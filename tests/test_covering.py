import math
import random
from fractions import Fraction

import numpy as np
import pytest

import coverkit.covering
from coverkit import (
    CyclotomicElement,
    ExpSumSequence,
    PeriodicValueTable,
    BenchReport,
    MultiSequence,
    System,
    Verdict,
    WeightedSequence,
    brute_cover_verdict,
    brute_least_period,
    brute_periodic_mod_vec,
    brute_tables_zero_verdict,
    cover_count,
    cover_table,
    cover_values,
    divisors_of,
    equal_cover_superset_check,
    expsum_cover_check,
    is_exact_m_cover,
    is_periodic_mod_vec,
    least_period,
    min_on_window,
    multiples_set,
    non_exact_witness,
    root_power,
    verify_covering_function,
    weighted_average_check,
    window_zero_check,
    zero_system_coefficients,
)
from coverkit.cli import Report, SystemFile
from coverkit.covering import DEFAULT_ORACLE_CAP
from coverkit.fracsets import fraction_set
from coverkit.multidim import DivisibilityChainReport
from helpers import (
    erdos_cover,
    erdos_system,
    perturb_last,
    random_prime_field_tables,
    random_unweighted_system,
    random_weighted_system,
    random_zero_system,
    sequence_table,
    system_B,
    system_B_prime,
    window_bound_reference,
)

F = Fraction


# --- types ---------------------------------------------------------------


def test_residue_canonicalization():
    s = WeightedSequence(-3, 4)
    assert s.residue == 1
    assert s.contains(-3) and s.contains(5)


def test_non_integer_residues_and_moduli_are_refused():
    """A residue or modulus that is not an integer of some type is refused
    at construction: 1.5 as a residue once reached the kernels, where the
    list path raised TypeError and the numpy path truncated it to 1."""
    for entries in (((1.5, 3), (0, 3), (2, 3)), ((0, 3.0),), ((F(3, 2), 2),), (("1", 2),)):
        with pytest.raises(ValueError, match="must be integers"):
            System.of(*entries)
    assert System.of((True, 3)).seqs[0].residue == 1


def test_system_requires_sequences():
    with pytest.raises(ValueError):
        System(())


def test_table_validation():
    with pytest.raises(ValueError):
        PeriodicValueTable(2, (1,))
    with pytest.raises(ValueError):
        PeriodicValueTable(2, (1, 0), char=4)
    t = PeriodicValueTable(3, (5, -1, 0), char=3)
    assert t.values == (2, 2, 0)


def test_prime_field_table_refuses_fractions():
    """Over F_p a table holds integers: a Fraction of denominator 1 is one,
    any other Fraction or a float is refused, not truncated (1/2 once
    became 0, so 1/2 + 2 read as nonzero in F_5)."""
    assert PeriodicValueTable(2, (F(6, 2), -F(7)), 5).values == (3, 3)
    for v in (F(1, 2), 0.5, 1.0):
        with pytest.raises(ValueError, match="must be integers"):
            PeriodicValueTable(1, (v,), 5)
    assert PeriodicValueTable(1, (F(1, 2),)).values == (F(1, 2),)


ONE = CyclotomicElement.constant(1, 1)
# (type, arguments by field name, every field of the record they build);
# arguments left out take their defaults, and a record built from every
# field, each kept as given, uses one dict, `both`, for both
RECORDS = [
    (WeightedSequence, dict(residue=-3, modulus=4), dict(residue=1, modulus=4, weight=F(1))),
    (WeightedSequence, dict(residue=0, modulus=2, weight=2), dict(residue=0, modulus=2, weight=F(2))),
    (System, dict(seqs=[WeightedSequence(0, 1)]), dict(seqs=(WeightedSequence(0, 1),))),
    (PeriodicValueTable, dict(period=2, values=(1, 2)), dict(period=2, values=(1, 2), char=0)),
    (PeriodicValueTable, dict(period=2, values=[7, -1], char=5), dict(period=2, values=(2, 4), char=5)),
    (Verdict, dict(ok=True), dict(ok=True, witness=None, points=None)),
    (ExpSumSequence, dict(modulus=2, terms=[(0, ONE)]), dict(modulus=2, terms=((0, ONE),))),
    (
        MultiSequence,
        dict(residue=[3, -1], modulus=[2, 3]),
        dict(residue=(1, 2), modulus=(2, 3), weight=F(1)),
    ),
    (
        DivisibilityChainReport,
        both := dict(
            applicable=False,
            reason="r",
            indices=(),
            theta=(),
            coefficient_sum=F(0),
            chain=None,
            verified=False,
        ),
        both,
    ),
    (
        BenchReport,
        both := dict(
            moduli=(2,),
            window_points=2,
            full_points=2,
            t_window_ns=1,
            t_full_ns=1,
            agree=True,
            window_verdict=Verdict(True),
            full_verdict=Verdict(True),
        ),
        both,
    ),
    (SystemFile, both := dict(entries=(), dim=1, source=""), both),
    (Report, dict(code=0, verdict="ok"), dict(code=0, verdict="ok", witness=None, lines=())),
]


@pytest.mark.parametrize(
    "record, given, fields", RECORDS, ids=[f"{r.__name__}-{i}" for i, (r, _, _) in enumerate(RECORDS)]
)
def test_record_contract(record, given, fields):
    """Every record builds positionally and by keyword with the same
    defaults, normalises its fields, and refuses attribute assignment."""
    r = record(*given.values())
    assert r == record(**given)
    for name, value in fields.items():
        got = getattr(r, name)
        assert got == value and type(got) is type(value), name
        with pytest.raises(AttributeError):
            setattr(r, name, value)
    with pytest.raises(AttributeError):
        r.extra = 1


def test_replaced_fields_are_checked():
    """A named tuple's ``_make`` and ``_replace`` go through the record's own
    checks and normalisation, as the constructor does."""
    s = WeightedSequence(1, 4)
    assert s._replace(residue=-1).residue == 3
    assert WeightedSequence._make((5, 4, 2)) == WeightedSequence(1, 4, F(2))
    with pytest.raises(ValueError, match="modulus must be positive"):
        s._replace(modulus=0)
    with pytest.raises(ValueError, match="must share a positive dimension"):
        MultiSequence((0,), (2,))._replace(modulus=(2, 3))


def test_verdict_equality_ignores_points():
    assert Verdict(False, 3, 10) == Verdict(False, 3)
    assert not Verdict(False, 3, 10) != Verdict(False, 3)
    assert hash(Verdict(False, 3, 10)) == hash(Verdict(False, 3))
    assert Verdict(False, 3) != Verdict(True)
    assert not Verdict(False, 3) == Verdict(True)


# 1_{0 mod 4} + 1_{not 0 mod 4} - 1 = 0, and with one -1 dropped from the
# period-6 table it is 1 at x = 5
TABLES = [PeriodicValueTable(4, (1, 0, 0, 0)), PeriodicValueTable(4, (0, 1, 1, 1))]
CANCEL = PeriodicValueTable.constant(-1, 6)
NEAR = PeriodicValueTable(6, (-1, -1, -1, -1, -1, 0))
# an exact 1-cover of lcm 4, and its zero sets
COVER = System.of((0, 2), (1, 4), (3, 4))
ZERO_SETS = [ExpSumSequence.from_arith_sequence(s) for s in COVER.seqs]
# w = 1 on the rows y = 0 mod 3 of Z^2: periodic mod (1, 3) and (1, 6),
# not mod (1, 1) or (1, 2)
ROWS = [MultiSequence((0, 0), (2, 3)), MultiSequence((1, 0), (2, 3))]
ONE = PeriodicValueTable.constant(1)


@pytest.mark.parametrize(
    "check,args,ok,points",
    [
        # windows: the totient sum over the divisors of the periods
        (window_zero_check, (TABLES + [CANCEL],), True, 8),
        (window_zero_check, (TABLES + [NEAR],), False, 8),
        (verify_covering_function, (COVER, ONE), True, 4),
        (verify_covering_function, (COVER, PeriodicValueTable.constant(2)), False, 4),
        # the largest sumset of the term fractions, {0, 1/2} + {0, 1/4} + {0, 1/4}
        (expsum_cover_check, (ZERO_SETS, 1), True, 4),
        (expsum_cover_check, (ZERO_SETS, 2), False, 4),
        # the box [0, 2) x [0, 3); a shift by a period of w scans nothing
        (is_periodic_mod_vec, (ROWS, (1, 3)), True, 6),
        (is_periodic_mod_vec, (ROWS, (1, 1)), False, 6),
        (is_periodic_mod_vec, (ROWS, (2, 3)), True, None),
        # oracles: one full period, or one period box
        (brute_cover_verdict, (COVER, PeriodicValueTable.constant(1, 3)), True, 12),
        (brute_cover_verdict, (COVER, PeriodicValueTable.constant(2)), False, 4),
        (brute_tables_zero_verdict, (TABLES + [CANCEL],), True, 12),
        (brute_tables_zero_verdict, (TABLES + [NEAR],), False, 12),
        (brute_periodic_mod_vec, (ROWS, (1, 6)), True, 12),
        (brute_periodic_mod_vec, (ROWS, (1, 2)), False, 12),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_every_scan_verdict_records_its_points(check, args, ok, points):
    """A verdict that a scan decided carries the scan's length in points,
    whether it holds or fails."""
    verdict = check(*args)
    assert (verdict.ok, verdict.points) == (ok, points)


# --- covering function ----------------------------------------------------


def test_cover_count_examples():
    B = system_B()
    for x in (-5, 0, 1, 7, 12, 100):
        assert cover_count(B, x) == 1
    assert cover_count(system_B_prime(), 0) == 0
    cancel = System.of((3, 5, 1), (3, 5, -1))
    for x in range(-10, 10):
        assert cover_count(cancel, x) == 0


def test_cover_table_examples():
    tB = cover_table(system_B())
    assert tB.period == 4 and set(tB.values) == {1}
    assert cover_table(System.of((0, 4))).values == (1, 0, 0, 0)
    tBp = cover_table(system_B_prime())
    assert tBp.period == 12
    assert [x for x in range(12) if tBp.values[x] == 0] == [0, 8]


def test_cover_table_cap():
    system = System.of((0, 1009), (0, 1013))  # lcm 1022117
    assert system.lcm() > DEFAULT_ORACLE_CAP
    with pytest.raises(ValueError, match="period too large"):
        cover_table(system)


# --- window criterion for vanishing sums (totient-sum window) -------------


def test_window_zero_trivial():
    psi = PeriodicValueTable(6, (0,) * 6)
    for start in (-9, 0, 4):
        assert window_zero_check([psi], start).ok


def test_window_zero_bprime_example():
    psis = [
        sequence_table(1, 2),
        sequence_table(2, 4),
        sequence_table(4, 6),
        PeriodicValueTable(1, (-1,)),
    ]
    v = window_zero_check(psis, start=1)
    assert not v.ok and v.witness == 8


def test_window_zero_matches_oracle_over_prime_fields():
    rng = random.Random(2718)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        psis = random_prime_field_tables(rng, p, force_zero_sum=rng.random() < 0.5)
        start = rng.randint(-30, 30)
        window = window_zero_check(psis, start)
        full = brute_tables_zero_verdict(psis)
        assert window.ok == full.ok


@pytest.fixture(scope="module")
def wide_prime_tables():
    """2**15 + 1 references to one table of value p - 1 plus one table of
    value 2**15 + 1 over F_p, p = 2**48 - 59: the sum is 0 mod p, but its
    unreduced value passes 2**63.  Built once for the module."""
    p = 2**48 - 59
    count = 2**15 + 1
    return [PeriodicValueTable(1, (p - 1,), p)] * count + [PeriodicValueTable(1, (count,), p)]


def test_window_zero_prime_field_sum_past_int64(wide_prime_tables):
    assert window_zero_check(wide_prime_tables).ok
    assert brute_tables_zero_verdict(wide_prime_tables).ok
    assert window_zero_check(wide_prime_tables, start=2**64).ok
    broken = wide_prime_tables[:-1]
    v = window_zero_check(broken, start=2**64)
    assert (v.ok, v.witness) == (False, 2**64)
    assert not brute_tables_zero_verdict(broken).ok


def test_window_zero_rejects_characteristic_dividing_period():
    psis = [PeriodicValueTable(4, (1, 0, 1, 0), char=2)]
    with pytest.raises(ValueError, match="characteristic divides period"):
        window_zero_check(psis)


def test_window_zero_rejects_mixed_fields():
    with pytest.raises(ValueError):
        window_zero_check([PeriodicValueTable(3, (0, 0, 0), char=2), PeriodicValueTable(2, (0, 0))])


# --- covering-function verification ----------------------------------------


def test_verify_examples():
    one = PeriodicValueTable.constant(1)
    assert verify_covering_function(system_B(), one).ok
    v = verify_covering_function(system_B_prime(), one, start=1)
    assert (v.ok, v.witness) == (False, 8)


def test_verify_self_table_any_start():
    rng = random.Random(11)
    for _ in range(25):
        system = random_unweighted_system(rng)
        table = cover_table(system)
        assert verify_covering_function(system, table, rng.randint(-40, 40)).ok


def test_verify_weighted_matches_oracle():
    # targets: the system's own table over its least period; a copy changed
    # at one point by 1/3 or 1/6, finer than the weights' denominator; and a
    # constant
    rng = random.Random(1940)
    for _ in range(300):
        system = random_weighted_system(rng, k_max=6, n_max=12)
        full = cover_table(system)
        n0 = brute_least_period(full)
        own = PeriodicValueTable(n0, full.values[:n0])
        mutated = list(own.values)
        mutated[rng.randrange(n0)] += rng.choice((1, -1)) * F(1, rng.choice((3, 6)))
        constant = PeriodicValueTable.constant(rng.choice((0, 1, F(1, 2), F(-3, 2))))
        start = rng.randint(-40, 40)
        for target in (own, PeriodicValueTable(n0, tuple(mutated)), constant):
            v = verify_covering_function(system, target, start)
            assert v.ok == brute_cover_verdict(system, target).ok
            if not v.ok:
                x = v.witness
                assert x >= start and cover_count(system, x) != target.value_at(x)
        assert verify_covering_function(system, own, start).ok
        assert not verify_covering_function(system, PeriodicValueTable(n0, tuple(mutated))).ok


def test_verify_rejects_prime_field_target():
    with pytest.raises(ValueError, match="rational"):
        verify_covering_function(system_B(), PeriodicValueTable.constant(1, char=3))


def test_exact_m_cover():
    assert is_exact_m_cover(system_B(), 1)
    assert not is_exact_m_cover(system_B_prime(), 1)
    assert is_exact_m_cover(System.of((0, 1), (0, 1), (0, 1)), 3)
    with pytest.raises(ValueError):
        is_exact_m_cover(system_B(), 0)


def test_window_soundness_against_oracle():
    rng = random.Random(161803)
    for _ in range(150):
        system = random_unweighted_system(rng)
        start = rng.randint(-50, 50)
        table = cover_table(system)
        n0 = brute_least_period(table)
        exact = PeriodicValueTable(n0, table.values[:n0])
        assert verify_covering_function(system, exact, start).ok
        assert brute_cover_verdict(system, exact).ok
        mutated = list(exact.values)
        mutated[rng.randrange(n0)] += rng.choice((1, -1, 2))
        mut = PeriodicValueTable(n0, tuple(mutated))
        wv = verify_covering_function(system, mut, start)
        fv = brute_cover_verdict(system, mut)
        assert not wv.ok and not fv.ok
        const = PeriodicValueTable.constant(rng.randint(0, system.k))
        assert verify_covering_function(system, const, start).ok == brute_cover_verdict(system, const).ok


# --- witness for impossible exact covers -----------------------------------


def test_non_exact_witness_examples():
    # lcm of B's moduli is 4 and f(4) = 2, so any m >= 2 qualifies
    x = non_exact_witness(system_B(), 2)
    assert 0 <= x < 4 and cover_count(system_B(), x) != 2

    pair = System.of((0, 2), (1, 2))
    assert non_exact_witness(pair, 2) == 0

    rng = random.Random(42)
    for _ in range(20):
        system = random_unweighted_system(rng, k_max=4, n_max=8)
        m = system.k + 1
        x = non_exact_witness(system, m)
        assert cover_count(system, x) != m


def test_non_exact_witness_hypothesis():
    with pytest.raises(ValueError, match="hypothesis not met"):
        non_exact_witness(system_B(), 0)
    # f(lcm(2, 4, 4)) = f(4) = 2 takes each prime at its largest exponent
    with pytest.raises(ValueError, match=r"need m > k - f\(N\) = 1, got m=1"):
        non_exact_witness(system_B(), 1)


def test_non_exact_witness_factors_the_moduli_not_their_lcm(monkeypatch):
    # two primes near 10^13: their lcm is past FACTOR_BOUND, each prime is
    # not, and the window cap refuses before any scan
    system = System.of((0, 10**13 + 37), (0, 10**13 + 51))
    factorize = coverkit.covering.factorize

    def moduli_only(n):
        assert n <= max(system.moduli), f"factored {n}, past every modulus"
        return factorize(n)

    monkeypatch.setattr(coverkit.covering, "factorize", moduli_only)
    with pytest.raises(ValueError, match="window too large"):
        non_exact_witness(system, 2)


def test_non_exact_witness_refuses_the_window_before_it_factors(monkeypatch):
    # semiprimes near 2.4e24 and 3.1e24, each with two 13-digit factors, would
    # send the factorizer into rho; the window is past the cap first
    system = System.of((0, 1500000000047 * 1600000000021), (1, 1700000000011 * 1800000000047))

    def refuse(n):
        raise AssertionError(f"factored {n} before the window was refused")

    monkeypatch.setattr(coverkit.covering, "factorize", refuse)
    with pytest.raises(ValueError, match="window too large"):
        non_exact_witness(system, 2)


# --- exponential-sum cover criterion ----------------------------------------


def expsum_oracle_min_cover(exp_seqs):
    tables = [es.membership_table() for es in exp_seqs]
    N = math.lcm(*(es.modulus for es in exp_seqs))
    return min(
        sum(tab[x % es.modulus] for es, tab in zip(exp_seqs, tables)) for x in range(N)
    )


def test_expsum_cover_arith_instantiation():
    exp = [ExpSumSequence.from_arith_sequence(s) for s in system_B().seqs]
    # the two-term zero sets are exactly the residue classes
    for es, s in zip(exp, system_B().seqs):
        tab = es.membership_table()
        for x in range(es.modulus):
            assert tab[x] == s.contains(x)
    assert expsum_cover_check(exp, 1).ok


def test_expsum_cover_empty_zero_set():
    es = ExpSumSequence(1, ((0, CyclotomicElement.constant(1, 1)),))
    v = expsum_cover_check([es], 1, start=5)
    assert not v.ok and v.witness == 5


def test_expsum_cover_matches_oracle():
    rng = random.Random(31415)
    for _ in range(40):
        k = rng.randint(1, 4)
        seqs = [WeightedSequence(rng.randrange(8), rng.randint(1, 8)) for _ in range(k)]
        exp = []
        for s in seqs:
            mult = rng.choice([m for m in range(1, s.modulus + 1) if math.gcd(m, s.modulus) == 1])
            exp.append(ExpSumSequence.from_arith_sequence(s, mult))
            assert exp[-1].membership_table() == tuple(map(s.contains, range(s.modulus)))
        m = rng.randint(1, k)
        r = rng.randint(-20, 20)
        for start in (r, 2**70 + r):
            verdict = expsum_cover_check(exp, m, start)
            assert verdict.ok == (expsum_oracle_min_cover(exp) >= m)
            if not verdict.ok:
                assert verdict.witness >= start
                assert sum(s.contains(verdict.witness) for s in seqs) < m


def test_expsum_cover_refuses_a_window_past_the_cap(monkeypatch):
    """The window of two sums with a term at every t/1009 and every t/1013
    is their whole sumset, 1022117 points: refused before any zero-set
    table is built, any level is factored or any level-L vector is made."""
    from coverkit import cyclotomic

    one = CyclotomicElement.constant(1, 1)
    exp = [ExpSumSequence(n, tuple((t, one) for t in range(n))) for n in (1009, 1013)]

    def unbuilt(*args):
        raise AssertionError("table, factoring or vector made for a refused window")

    monkeypatch.setattr(ExpSumSequence, "membership_table", unbuilt)
    monkeypatch.setattr(cyclotomic, "zero_set_from_input", unbuilt)
    monkeypatch.setattr(cyclotomic, "factorize", unbuilt)
    monkeypatch.setattr(CyclotomicElement, "from_terms", unbuilt)
    with pytest.raises(ValueError, match="window too large: 1022117 points"):
        expsum_cover_check(exp, 1)


def test_expsum_cover_refuses_zero_set_tables_past_the_cap(monkeypatch):
    """Each table point is one zero test at L, the lcm of the modulus and
    the coefficient levels: sum_s n_s * L_s past the cap is refused before
    any table is built, any L is factored or any level-L vector is made.
    Construction reads each coefficient's terms once and builds nothing
    level-L long either, so it may run under the same guards."""
    from coverkit import cyclotomic

    def unbuilt(*args):
        raise AssertionError("table, factoring or vector made past the cap")

    one = CyclotomicElement.constant(1, 1)
    minus_one = CyclotomicElement.constant(991, -1)
    monkeypatch.setattr(cyclotomic, "zero_set_from_input", unbuilt)
    monkeypatch.setattr(cyclotomic, "factorize", unbuilt)
    monkeypatch.setattr(CyclotomicElement, "lift", unbuilt)
    monkeypatch.setattr(CyclotomicElement, "from_terms", unbuilt)
    big = ExpSumSequence(997, ((0, one), (1, minus_one)))
    small = ExpSumSequence(2, ((0, one), (1, one)))
    with pytest.raises(ValueError, match=f"zero-set table too large: {997 * 997 * 991 + 2 * 2} points"):
        expsum_cover_check([big, small], 1)


def test_expsum_refuses_non_integer_term_indices():
    """e^(pi*i*x) - 1 written with the term index 1/2 at modulus 1 once had
    the table (True,) and passed as a cover of Z, while it vanishes only on
    the even integers; written at modulus 2 it is right.  A term index that
    is not an integer of some type is refused at construction."""
    c = CyclotomicElement.constant(1, 1)
    assert expsum_cover_check([ExpSumSequence(2, [(1, c), (0, -c)])], 1) == Verdict(False, 1)
    for t in (F(1, 2), 1.5, "1"):
        with pytest.raises(ValueError, match="term indices must be integers"):
            ExpSumSequence(1, [(t, c), (0, -c)])
    # integers of any type are kept as Python ints
    es = ExpSumSequence(np.int64(4), [(np.int8(3), c), (True, c)])
    assert es.modulus == 4 and [t for t, _ in es.terms] == [3, 1]
    assert all(type(t) is int for t, _ in es.terms) and type(es.modulus) is int


def test_expsum_from_arith_requires_coprime_multiplier():
    with pytest.raises(ValueError):
        ExpSumSequence.from_arith_sequence(WeightedSequence(1, 6), 2)


# --- minimum on a window -----------------------------------------------------


# moduli 1, 1009, 1013, 1019: lcm 1.04e9 is far past the oracle cap, the
# sumset window W_0 has 8 points
PAST_CAP = System.of((0, 1), (0, 1009), (1, 1013), (2, 1019))


def test_min_window_remark_values():
    system = System.of((0, 3), (0, 5), (0, 15))
    W, wmin, gmin = min_on_window(system, [1, 1, 2], 0)
    assert (W, wmin, gmin) == (7, 0, 0)
    W, wmin, gmin = min_on_window(system, [1, 1, 1], 0)
    assert (W, wmin, gmin) == (8, 0, 0)


def test_min_window_l_equals_k(monkeypatch):
    """l = k is at most the minimum only when every modulus is 1; l >= k
    is answered or refused without a window, for any k."""

    def no_window(*args):
        raise AssertionError("l >= k needs no window")

    monkeypatch.setattr(coverkit.covering, "window_bound", no_window)
    monkeypatch.setattr(coverkit._kernels, "exact_values", no_window)
    # all index subsets of size k-l are empty, so a single integer suffices
    double = System.of((0, 1), (0, 1))
    for start in (-3, 0, 17):
        W, wmin, gmin = min_on_window(double, [1, 1], 2, start)
        assert W == 1 and wmin == gmin == 2
    ones = System.of(*[(0, 1)] * 30)  # k past the subset-enumeration cap
    assert min_on_window(ones, [1] * 30, 30, 2**70) == (1, 30, 30)
    for system, l in ((ones, 31), (system_B(), 3), (PAST_CAP, 4), (PAST_CAP, 5)):
        with pytest.raises(ValueError, match="exceeds the minimum coverage"):
            min_on_window(system, [1] * system.k, l)


def test_min_window_B():
    # W_1 over pairs of {1/2, 1/4, 1/4}: the largest subset-sum set has 4 points
    W, wmin, gmin = min_on_window(system_B(), [1, 1, 1], 1)
    assert (W, wmin, gmin) == (4, 1, 1)


def test_min_window_random_starts():
    rng = random.Random(271)
    for _ in range(30):
        system = random_unweighted_system(rng, k_max=4, n_max=9)
        mults = [
            rng.choice([m for m in range(1, s.modulus + 1) if math.gcd(m, s.modulus) == 1])
            for s in system.seqs
        ]
        W, wmin, gmin = min_on_window(system, mults, 0, rng.randint(-30, 30))
        assert wmin == gmin


def test_min_window_matches_the_fraction_reference():
    """W_0 and W_l are the Fraction sumset reference's on each set
    {0, m_s/n_s} mod 1, for multipliers that are negative or past their
    modulus (so m_s/n_s is 0 mod 1 only for n_s = 1), and both minima are
    the pointwise minimum of w over one period."""
    rng = random.Random(2917)
    for i in range(40):
        k = rng.randint(1, 5)
        seqs = [(rng.randrange(12), rng.randint(1, 12)) for _ in range(k)]
        if i % 3 == 0:
            seqs[rng.randrange(k)] = (0, 1)
        if i % 2:  # every residue mod a small n, so the minimum is at least 1
            n = rng.randint(2, 3)
            seqs += [(a, n) for a in range(n)]
        system = System.of(*seqs)
        mults = [
            rng.choice([m for m in (*range(-2 * n, 0), *range(n + 1, 3 * n)) if math.gcd(m, n) == 1])
            for n in system.moduli
        ]
        R_sets = [fraction_set([0, F(m, n)]) for m, n in zip(mults, system.moduli)]
        least = min(cover_count(system, x) for x in range(system.lcm()))
        start = rng.randint(-40, 40)
        for l in range(int(least) + 1):
            W, wmin, gmin = min_on_window(system, mults, l, start)
            assert W == window_bound_reference(R_sets, l + 1), (seqs, mults, l)
            assert wmin == gmin == least


def test_min_window_rejections():
    B = system_B()
    with pytest.raises(ValueError, match="coprime"):
        min_on_window(B, [1, 2, 1], 0)
    with pytest.raises(ValueError, match="exceeds the minimum"):
        min_on_window(B, [1, 1, 1], 2)
    with pytest.raises(ValueError):
        min_on_window(B, [1, 1], 0)


def test_min_window_past_the_period_cap():
    assert PAST_CAP.lcm() > DEFAULT_ORACLE_CAP
    assert min_on_window(PAST_CAP, [1] * 4, 1) == (8, 1, 1)
    assert min_on_window(PAST_CAP, [1, 2, 3, 4], 0, 10**12) == (8, 1, 1)
    with pytest.raises(ValueError, match="exceeds the minimum coverage 1"):
        min_on_window(PAST_CAP, [1] * 4, 2)


# --- least period -------------------------------------------------------------


def test_least_period_examples():
    assert least_period(System.of((0, 4))) == 4
    assert least_period(system_B()) == 1
    cancel = System.of((0, 2), (1, 2), (0, 1, -1))
    assert least_period(cancel) == 1
    assert all(v == 0 for v in cover_table(cancel).values)


def test_least_period_highly_composite_modulus():
    # the zero test at level 27720 needs Phi_27720, of degree 5760
    assert least_period(System.of((0, 27720), (1, 27720))) == 27720


def test_least_period_matches_brute():
    rng = random.Random(606)
    for _ in range(60):
        system = random_weighted_system(rng)
        assert least_period(system) == brute_least_period(cover_table(system))


def coefficient_by_definition(system: System, alpha: F) -> CyclotomicElement:
    """c_alpha as a sum of dense root_power terms, one per sequence whose
    modulus the denominator q of alpha divides, at level q."""
    q, p = alpha.denominator, alpha.numerator
    c = CyclotomicElement.zero(q)
    for s in system.seqs:
        if s.modulus % q == 0:
            c = c + root_power(q, p * s.residue) * (s.weight / s.modulus)
    return c


def planted_split(rng: random.Random, n: int, p: int, w: F) -> list[tuple]:
    """a(n)*w plus (a+j*n)(p*n)*(-w) for j < p: the refined classes partition
    a(n), so together they add nothing to w anywhere."""
    a = rng.randrange(n)
    return [(a, n, w)] + [(a + j * n, p * n, -w) for j in range(p)]


def test_least_period_one_test_per_denominator_matches_definition():
    rng = random.Random(27720)
    small = [n for n in divisors_of(27720) if n <= 100]
    weights = (F(1), F(-1), F(1, 2), F(-2, 3), F(3))
    for i in range(14):
        k = rng.randint(3, 8)
        entries = []
        if i % 2:
            n, p = rng.choice([(n, p) for n in small for p in (2, 3, 5) if n * p in small])
            entries = planted_split(rng, n, p, rng.choice(weights))
        while len(entries) < k:
            n = rng.choice(small)
            entries.append((rng.randrange(n), n, rng.choice(weights)))
        system = System.of(*entries)
        got = least_period(system)
        assert got == brute_least_period(cover_table(system))
        by_denominator = {}
        by_definition = 1
        for alpha in multiples_set(system.moduli):
            q = alpha.denominator
            if q not in by_denominator:
                by_denominator[q] = coefficient_by_definition(system, F(1, q)).is_zero()
            zero = coefficient_by_definition(system, alpha).is_zero()
            assert zero == by_denominator[q], (entries, alpha)  # Galois invariance
            if not zero:
                by_definition = math.lcm(by_definition, q)
        assert got == by_definition


def test_least_period_above_oracle_cap_certified_by_window():
    # primes 2..19 at nonzero weights give period 9699690; a planted split of
    # 7(23) into 7(46) and 30(46) adds moduli 23 and 46 but cancels, so the
    # lcm 223092870 is not the period.  Both exceed the oracle cap.
    rng = random.Random(23)
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    entries = [(rng.randrange(p), p, rng.choice((F(1), F(-1, 2), F(3)))) for p in primes]
    entries += [(7, 23, F(2, 3)), (7, 46, F(-2, 3)), (30, 46, F(-2, 3))]
    system = System.of(*entries)
    assert system.lcm() > DEFAULT_ORACLE_CAP
    d = least_period(system)
    assert d == 9699690 > DEFAULT_ORACLE_CAP

    def shift_tables(t: int) -> list[PeriodicValueTable]:
        # psi_s(x) = w_s * ([x + t = a_s] - [x = a_s]) mod n_s: their sum is
        # w(x + t) - w(x), which vanishes identically iff t is a period
        tables = []
        for s in system.seqs:
            tables.append(sequence_table(s.residue - t, s.modulus, weight=s.weight))
            tables.append(sequence_table(s.residue, s.modulus, weight=-s.weight))
        return tables

    assert window_zero_check(shift_tables(d)).ok
    for p in primes:
        v = window_zero_check(shift_tables(d // p))
        assert not v.ok
        assert cover_count(system, v.witness + d // p) != cover_count(system, v.witness)


# --- averages, zero systems, subset-sum superset ------------------------------


def test_weighted_average_examples():
    assert weighted_average_check(system_B())
    assert weighted_average_check(System.of((0, 7, F(3, 5))))
    rng = random.Random(8128)
    for _ in range(30):
        assert weighted_average_check(random_weighted_system(rng))


def test_zero_system_coefficients():
    canonical = System.of((0, 2), (1, 2), (0, 1, -1))
    pairs = zero_system_coefficients(canonical)
    assert [a for a, _ in pairs] == [F(0), F(1, 2)]
    assert all(c.is_zero() for _, c in pairs)

    b_minus_one = System(system_B().seqs + (WeightedSequence(0, 1, F(-1)),))
    assert all(c.is_zero() for _, c in zero_system_coefficients(b_minus_one))

    doubled = System(system_B().seqs * 2 + (WeightedSequence(0, 1, F(-2)),))
    assert all(c.is_zero() for _, c in zero_system_coefficients(doubled))


def test_zero_system_coefficients_one_test_per_denominator(monkeypatch):
    rng = random.Random(2520)
    levels = []
    is_zero = CyclotomicElement.is_zero

    def counted(self):
        levels.append(self.level)
        return is_zero(self)

    for _ in range(25):
        system = random_zero_system(rng)
        alphas = multiples_set(system.moduli)
        monkeypatch.setattr(CyclotomicElement, "is_zero", counted)
        levels.clear()
        pairs = zero_system_coefficients(system)
        monkeypatch.undo()
        assert sorted(levels) == sorted({a.denominator for a in alphas})
        # every alpha, each with c_alpha as defined (coefficients compared
        # as tuples, since == on elements is equality in Q(zeta))
        assert [(a, c.level, c.coeffs) for a, c in pairs] == [
            (a, a.denominator, coefficient_by_definition(system, a).coeffs) for a in alphas
        ]


def test_zero_system_rejects_nonzero():
    with pytest.raises(ValueError):
        zero_system_coefficients(system_B())


def halves_minus_one(*moduli: int) -> list[tuple]:
    """Every residue class mod each of two moduli at weight 1/2, and Z at
    weight -1: a zero system of lcm the moduli's product."""
    return [(0, 1, -1)] + [(r, n, F(1, 2)) for n in moduli for r in range(n)]


def test_zero_system_coefficients_past_the_period_cap():
    entries = halves_minus_one(1009, 1013)
    system = System.of(*entries)
    assert system.k == 2023 and system.lcm() > DEFAULT_ORACLE_CAP
    pairs = zero_system_coefficients(system)
    assert [a for a, _ in pairs] == list(multiples_set([1009, 1013]))
    by_alpha = dict(pairs)
    assert by_alpha[F(0)].coeffs == (F(0),)
    assert by_alpha[F(5, 1009)].coeffs == (F(1, 2018),) * 1009
    with pytest.raises(ValueError, match="not identically zero"):
        zero_system_coefficients(System.of(*entries[:-1]))


def test_superset_check_bounds_the_subset_sums(monkeypatch):
    """The subset sums cost about k * min(2^k, N): refused up front, before
    any scan, when both pass the oracle cap, and answered when either fits."""
    scans = []
    points = coverkit.covering._oracle_points
    monkeypatch.setattr(coverkit.covering, "_oracle_points", lambda *a: scans.append(a) or points(*a))
    # 0(1) and every class mod 1009 and mod 1013: w = 3, k = 2023
    triple = System.of((0, 1), *((r, n) for n in (1009, 1013) for r in range(n)))
    with pytest.raises(ValueError, match="too many subset sums"):
        equal_cover_superset_check(triple)
    assert scans == []
    assert equal_cover_superset_check(System.of(*[(0, 1)] * 21))
    with pytest.raises(ValueError, match="equally often"):
        equal_cover_superset_check(System.of((0, 1009), (0, 1013)))


def test_hypothesis_checks_scan_only_windows(monkeypatch):
    """min_on_window, zero_system_coefficients and
    equal_cover_superset_check test their hypotheses on windows: every
    scan they ask the cap for, whether they answer or refuse, below the
    period cap or past it, is a window."""
    asked = []
    points = coverkit.covering._oracle_points

    def recording(n, what="period"):
        asked.append(what)
        return points(n, what)

    monkeypatch.setattr(coverkit.covering, "_oracle_points", recording)
    checks = [
        lambda: min_on_window(system_B(), [1, 1, 1], 1),
        lambda: min_on_window(system_B(), [1, 1, 1], 2),
        lambda: min_on_window(PAST_CAP, [1] * 4, 1),
        lambda: zero_system_coefficients(System.of((0, 2), (1, 2), (0, 1, -1))),
        lambda: zero_system_coefficients(system_B()),
        lambda: zero_system_coefficients(System.of(*halves_minus_one(1009, 1013))),
        lambda: equal_cover_superset_check(system_B()),
        lambda: equal_cover_superset_check(system_B_prime()),
        lambda: equal_cover_superset_check(System.of((0, 1009), (0, 1013))),
    ]
    for check in checks:
        try:
            check()
        except ValueError:
            pass
    assert len(asked) >= len(checks) and set(asked) == {"window"}


def test_superset_check_examples():
    assert equal_cover_superset_check(system_B())
    assert equal_cover_superset_check(System.of((0, 1)))
    assert equal_cover_superset_check(erdos_cover(3))
    with pytest.raises(ValueError):
        equal_cover_superset_check(system_B_prime())


# --- classical families --------------------------------------------------------


def test_erdos_family_tightness():
    for k in range(1, 11):
        system = erdos_system(k)
        vals = cover_values(system, 1, 2**k - 1)
        assert all(v >= 1 for v in vals)
        assert cover_count(system, 0) == 0
        assert cover_count(system, 2**k) == 0


def test_pan_observation():
    # appending 0(N) to an exact m-cover bumps only the multiples of N
    B = system_B()
    for N in range(2, 21):
        extended = System(B.seqs + (WeightedSequence(0, N),))
        assert all(cover_count(extended, x) == 1 for x in range(1, N))
        assert cover_count(extended, 0) == 2


def test_perturbed_exact_cover_window():
    B = system_B()
    assert perturb_last(B, 6).seqs == system_B_prime().seqs
    rng = random.Random(12321)
    for n in (5, 6, 9, 14):
        pert = perturb_last(B, n)
        last = B.seqs[-1]
        a_k, n_k = last.residue, last.modulus
        for x in range(a_k + 1, a_k + 2 * n_k):
            assert cover_count(pert, x) == 1
        assert cover_count(pert, a_k) != 1
        assert cover_count(pert, a_k + 2 * n_k) != 1
