import math
import random
from fractions import Fraction

import pytest

from coverkit import (
    CyclotomicElement,
    ExpSumSequence,
    PeriodicValueTable,
    System,
    WeightedSequence,
    brute_cover_verdict,
    brute_least_period,
    brute_tables_zero_verdict,
    cover_count,
    cover_table,
    cover_values,
    divisors_of,
    equal_cover_superset_check,
    expsum_cover_check,
    is_exact_m_cover,
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
from coverkit.covering import DEFAULT_ORACLE_CAP
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
)

F = Fraction


# --- types ---------------------------------------------------------------


def test_residue_canonicalization():
    s = WeightedSequence(-3, 4)
    assert s.residue == 1
    assert s.contains(-3) and s.contains(5)


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
    unreduced value passes 2**63.  Built once, since checking that a 48-bit
    characteristic is prime takes about a second."""
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


def test_expsum_from_arith_requires_coprime_multiplier():
    with pytest.raises(ValueError):
        ExpSumSequence.from_arith_sequence(WeightedSequence(1, 6), 2)


# --- minimum on a window -----------------------------------------------------


def test_min_window_remark_values():
    system = System.of((0, 3), (0, 5), (0, 15))
    W, wmin, gmin = min_on_window(system, [1, 1, 2], 0)
    assert (W, wmin, gmin) == (7, 0, 0)
    W, wmin, gmin = min_on_window(system, [1, 1, 1], 0)
    assert (W, wmin, gmin) == (8, 0, 0)


def test_min_window_l_equals_k():
    # all index subsets of size k-l are empty, so a single integer suffices
    double = System.of((0, 1), (0, 1))
    for start in (-3, 0, 17):
        W, wmin, gmin = min_on_window(double, [1, 1], 2, start)
        assert W == 1 and wmin == gmin == 2


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


def test_min_window_rejections():
    B = system_B()
    with pytest.raises(ValueError, match="coprime"):
        min_on_window(B, [1, 2, 1], 0)
    with pytest.raises(ValueError, match="exceeds the minimum"):
        min_on_window(B, [1, 1, 1], 2)
    with pytest.raises(ValueError):
        min_on_window(B, [1, 1], 0)


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
