import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from coverkit import _kernels
from coverkit.covering import (
    ExpSumSequence,
    PeriodicValueTable,
    System,
    Verdict,
    WeightedSequence,
    _first_nonzero,
    _scan_input,
    cover_count,
    cover_table,
    cover_values,
    expsum_cover_check,
    min_on_window,
    non_exact_witness,
    verify_covering_function,
    weighted_average_check,
    window_zero_check,
)
from coverkit.fracsets import phi_sum_cardinality
from coverkit.multidim import MultiSequence, is_periodic_mod_vec
from coverkit.numtheory import f_additive
from coverkit.oracle import (
    brute_cover_verdict,
    brute_least_period,
    brute_periodic_mod_vec,
    brute_tables_zero_verdict,
)
from helpers import (
    SCAN_SETTINGS,
    WIDTH_SETTINGS,
    digit_values,
    indexed_values,
    kernel_widths,
    mean_reference,
    random_distinct_moduli_instance,
    random_prime_field_tables,
    random_unweighted_system,
    random_weighted_system,
    random_zero_system,
    sequence_table,
    table_sums_reference,
)


def test_cover_counts_matches_pointwise_definition():
    rng = random.Random(4096)
    for _ in range(30):
        k = rng.randint(1, 6)
        mod = [rng.randint(1, 15) for _ in range(k)]
        res = [rng.randrange(n) for n in mod]
        wts = [rng.randint(-4, 4) for _ in range(k)]
        start = rng.randint(-40, 40)
        length = rng.randint(1, 100)
        out = _kernels.cover_counts(res, mod, wts, start, length)
        for j in range(length):
            x = start + j
            expected = sum(w for a, n, w in zip(res, mod, wts) if (x - a) % n == 0)
            assert out[j] == expected


def plan_dtype(tables):
    """The dtype of a full-period plan of ``tables`` that is one digit."""
    (nums,), _ = _kernels._plan((), tables, None)
    return nums.dtype


def test_scaled_refuses_at_the_guard():
    g = _kernels._INT64_GUARD
    dtype = plan_dtype
    (nums,), D = _kernels._plan((), [(Fraction(1, 2), 3), (Fraction(-1, 3),)], None)
    assert (nums.tolist(), D) == ([3, 18, -2], 6)
    # a weight column goes first, and each weight counts alone
    (nums,), D = _kernels._plan([Fraction(-1, 3)], [(Fraction(1, 2), 3)], None)
    assert (nums.tolist(), D) == ([-2, 3, 18], 6)
    assert dtype([(g - 2, -5), (1,)]) == np.int64
    assert dtype([(g - 2, -5), (2,)]) == object  # the group peaks sum to g
    # a lone value at or past int64 is split into exact base-2**32 digits,
    # each in a fixed width
    for v in (-(2**63), 2**63):
        for weights, tables in (((), [(v,)]), ([v], ())):
            digits, D = _kernels._plan(weights, tables, None)
            assert type(digits) is tuple and len(digits) == 2 and D == 1
            assert [d.dtype.kind for d in digits] == ["i", "i"] and digit_values(digits) == [v]
    assert dtype([(Fraction(g - 2, 3),)]) == np.int64
    assert dtype([(Fraction(g - 2, 3), Fraction(1, 2))]) == object  # D = 6
    # past the guard the numerators stay exact
    (nums,), D = _kernels._plan((), [(Fraction(g - 2, 3), Fraction(1, 2)), (-(2**63),)], None)
    assert (nums.tolist(), D) == ([2 * (g - 2), 3, -6 * 2**63], 6)
    # a denominator past int64 stays off the object path when only zeros
    # need scaling by it
    (nums,), D = _kernels._plan((), [(Fraction(1, 2**70),), (0, 0)], None)
    assert (nums.dtype, nums.tolist(), D) == (np.int8, [1, 0, 0], 2**70)


def test_scaled_picks_the_narrowest_width():
    """Each width holds group peak sums up to a quarter of its range, for
    one group and for peaks summed across groups; the values stay exact.
    Every plan is made twice: with each group as a table, and with the
    groups of one value as a weight column ahead of the others."""
    edges = [
        (63, np.int8), (64, np.int16), (2**14 - 1, np.int16), (2**14, np.int32),
        (2**30 - 1, np.int32), (2**30, np.int64), (2**62 - 1, np.int64), (2**62, object),
    ]  # fmt: skip
    for peak, width in edges:
        half = peak // 2
        for groups, lone in (
            ([(peak,)], True),
            ([(-peak, 1, 0)], False),
            ([(half, -3), (peak - half,)], True),
            ([(peak - 1, 0), (-1,), (0, 0)], False),
            ([(Fraction(peak, 3), Fraction(-1, 3))], False),
        ):
            weights = [g[0] for g in groups if len(g) == 1]
            tables = [g for g in groups if len(g) > 1]
            for args in (((), groups), (weights, tables)):
                digits, D = _kernels._plan(*args, None)
                flat = [*args[0], *(v for g in args[1] for v in g)]
                assert type(digits) is tuple
                if width is object and lone:
                    # at the guard a lone value past 2**32 splits into
                    # digits, and the group of two goes whole into digit 0,
                    # whose peak sum stays below the guard
                    assert [d.dtype.kind for d in digits] == ["i", "i"]
                    assert [Fraction(v, D) for v in digit_values(digits)] == flat
                    continue
                (nums,) = digits
                assert nums.dtype == width, (peak, groups)
                assert [Fraction(v, D) for v in nums.tolist()] == flat


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
def test_prime_field_tables_in_narrow_widths(p):
    """0/1 tables over F_p travel in int8 although p does not fit there;
    with their negations added (values p - 1) they need a width that
    holds p, and reduce mod p to zero.  Window verdicts and witnesses, and
    oracle verdicts, agree with a pointwise sum mod p."""
    rng = random.Random(p)
    for _ in range(20):
        periods = [rng.randint(1, 8) for _ in range(rng.randint(1, 5))]
        # each table holds a 1 at some point
        tables = [
            PeriodicValueTable(n, tuple(int(x == n - 1 or rng.random() < 0.5) for x in range(n)), p)
            for n in periods
        ]
        negated = [PeriodicValueTable(t.period, tuple(-v for v in t.values), p) for t in tables]
        assert plan_dtype([t.values for t in tables]) == np.int8
        assert plan_dtype([t.values for t in tables + negated]) == (
            np.int16 if p < 2**14 else np.int64
        )
        start = rng.choice((0, 2**64 + rng.randrange(99)))
        for psis in (tables, tables + negated, tables + negated[1:]):
            values = [v for t in psis for v in t.values]
            offsets = [0, *accumulate(t.period for t in psis[:-1])]
            L = phi_sum_cardinality([t.period for t in psis])
            sums = table_sums_reference(values, offsets, [t.period for t in psis], start, L, p)
            witness = next((start + j for j, v in enumerate(sums) if v), None)
            verdict = window_zero_check(psis, start)
            assert (verdict.ok, verdict.witness) == (witness is None, witness)
            assert brute_tables_zero_verdict(psis).ok == verdict.ok
        assert window_zero_check(tables + negated).ok


def test_kernels_on_object_arrays_match_pointwise_definition():
    rng = random.Random(2**64)
    for _ in range(30):
        k = rng.randint(1, 5)
        big = rng.choice((0, 2**63, 2**90))
        dtype = np.int64 if big == 0 else object

        def value():
            return rng.choice((1, -1)) * (big + rng.randrange(10))

        start = rng.choice((1, -1)) * rng.choice((0, 2**64, 2**100)) + rng.randint(-40, 40)
        length = rng.randint(1, 60)
        mod = [rng.randint(1, 12) for _ in range(k)]
        res = [rng.randrange(n) for n in mod]
        wts = np.array([value() for _ in range(k)], dtype=dtype)
        out = _kernels.cover_counts(res, mod, wts, start, length)
        assert out.dtype == dtype
        for j in range(length):
            x = start + j
            assert out[j] == sum(w for a, n, w in zip(res, mod, wts.tolist()) if (x - a) % n == 0)
        periods = [rng.randint(1, 12) for _ in range(k)]
        offsets = [0, *accumulate(periods[:-1])]
        vals = np.array([value() for _ in range(sum(periods))], dtype=dtype)
        char = rng.choice((0, 5, 2**61 - 1))
        out = _kernels.table_sums(vals, offsets, periods, start, length, char)
        assert out.dtype == dtype
        for j in range(length):
            x = start + j
            total = sum(vals.tolist()[o + x % n] for o, n in zip(offsets, periods))
            assert out[j] == (total % char if char else total)
    # int64 field elements with a characteristic past int64
    p, periods = 2**89 - 1, [3, 4, 4]
    vals = [rng.randrange(2**60) for _ in range(11)]
    out = _kernels.table_sums(np.array(vals), [0, 3, 7], periods, 2**64 + 5, 30, p)
    assert out.dtype == np.int64
    for j in range(30):
        x = 2**64 + 5 + j
        assert out[j] == (vals[x % 3] + vals[3 + x % 4] + vals[7 + x % 4]) % p


def test_cover_values_exact_fallback_agrees(monkeypatch):
    rng = random.Random(55)
    systems = []
    for _ in range(10):
        k = rng.randint(1, 5)
        systems.append(
            System.of(
                *(
                    (rng.randrange(9), rng.randint(1, 9), Fraction(rng.choice((1, -1, 3)), rng.choice((1, 2))))
                    for _ in range(k)
                )
            )
        )
    fast = [cover_values(s, -7, 40) for s in systems]
    monkeypatch.setattr(_kernels, "_INT64_GUARD", 1)  # force the big-int path
    slow = [cover_values(s, -7, 40) for s in systems]
    assert fast == slow


def _table_sets(rng):
    """Seeded table lists over Q and F_p, about half of them vanishing."""
    sets = []
    for _ in range(15):
        zero = random_zero_system(rng)
        sets.append([sequence_table(s.residue, s.modulus, weight=s.weight) for s in zero.seqs])
        other = random_weighted_system(rng)
        sets.append([sequence_table(s.residue, s.modulus, weight=s.weight) for s in other.seqs])
    for _ in range(30):
        p = rng.choice((2, 3, 5, 7))
        sets.append(random_prime_field_tables(rng, p, force_zero_sum=rng.random() < 0.5))
    return sets


def _answers(seed: int) -> list:
    """Verdicts and witnesses of every check that scales values for the
    int64 kernels, on seeded inputs."""
    rng = random.Random(seed)
    out = []
    for _ in range(30):
        system = random_unweighted_system(rng)
        table = cover_table(system)
        mutated = list(table.values)
        mutated[rng.randrange(table.period)] += rng.choice((1, -1, Fraction(1, 2)))
        start = rng.randint(-40, 40)
        for target in (table, PeriodicValueTable(table.period, tuple(mutated))):
            out.append(verify_covering_function(system, target, start))
            out.append(brute_cover_verdict(system, target))
        out.append(non_exact_witness(system, system.k - f_additive(system.lcm()) + rng.randint(1, 2)))
    for _ in range(30):
        system = random_weighted_system(rng, k_max=6, n_max=12)
        table = cover_table(system)
        mutated = list(table.values)
        # finer than the weights' denominator 2
        mutated[rng.randrange(table.period)] += Fraction(rng.choice((1, -1)), rng.choice((3, 6)))
        start = rng.randint(-40, 40)
        for target in (table, PeriodicValueTable(table.period, tuple(mutated))):
            out.append(verify_covering_function(system, target, start))
            out.append(brute_cover_verdict(system, target))
    for psis in _table_sets(rng):
        out.append(window_zero_check(psis, rng.randint(-40, 40)))
        out.append(brute_tables_zero_verdict(psis))
    for _ in range(30):
        out.append(brute_least_period(cover_table(random_weighted_system(rng))))
    for _ in range(20):
        seqs, n0 = random_distinct_moduli_instance(rng, rng.randint(1, 3))
        out.append(is_periodic_mod_vec(seqs, n0))
    for _ in range(20):
        system = random_unweighted_system(rng)
        exp = [ExpSumSequence.from_arith_sequence(s) for s in system.seqs]
        out.append(expsum_cover_check(exp, rng.randint(1, system.k), rng.randint(-40, 40)))
    for _ in range(10):
        system = random_unweighted_system(rng)
        out.append(min_on_window(system, [1] * system.k, 0, rng.randint(-40, 40)))
    return out


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
def test_int64_guard_changes_speed_never_answers(setting):
    """The answers as shipped, with every numpy scan in int64 up to the
    guard, with every window check on lists or on numpy below the guard,
    all equal those with the guard at 1: every window check on lists of
    exact Python ints and every full-period scan on numpy object arrays."""
    with kernel_widths("guard-1"):
        exact = _answers(8128)
    with kernel_widths(setting):
        width = {"int64-guard": np.int64, "guard-1": object}.get(setting, np.int8)
        assert plan_dtype([(Fraction(1),), (1, 0)]) == width
        assert _answers(8128) == exact


def _at_work(seqs, psis, length: int, work: int):
    """(seqs, psis) padded to a window check of exactly ``work`` = points +
    class hits + points per distinct table period + table values: each
    filler adds one to it and nothing to the sum, a zero-weight class of a
    modulus past the window or a zero table of period 1 (one is added
    first)."""
    if not seqs:
        psis = psis + [PeriodicValueTable.constant(0, 1, psis[0].char)]
    periods = [t.period for t in psis]
    hits = sum(length // s.modulus + 1 for s in seqs)
    base = length + hits + length * len(set(periods)) + sum(periods)
    assert base <= work
    if seqs:
        return seqs + [WeightedSequence(0, length + 1, 0)] * (work - base), psis
    return seqs, psis + [PeriodicValueTable.constant(0, 1, psis[0].char)] * (work - base)


def _boundary_cases(rng):
    """(seqs, psis, start, length, huge) window checks over Q with integer
    and Fraction weights, with values past 2**62 (huge), and over F_7;
    about half of them fail."""
    length = 150
    for scale in (1, Fraction(1, 3), 2**62 + 1):
        for _ in range(4):
            system = random_weighted_system(rng, k_max=5, n_max=12)
            seqs = [WeightedSequence(s.residue, s.modulus, s.weight * scale) for s in system.seqs]
            values = list(cover_table(System(tuple(seqs))).values)
            if rng.random() < 0.5:
                values[rng.randrange(len(values))] += scale
            psis = [PeriodicValueTable(len(values), tuple(values))]
            yield seqs, psis, rng.randint(-40, 40), length, scale == 2**62 + 1
    for _ in range(6):
        psis = random_prime_field_tables(rng, 7, force_zero_sum=rng.random() < 0.5)
        yield [], psis, rng.choice((0, 2**64 + rng.randrange(99))), length, False


def _pointwise_witness(seqs, psis, start: int, length: int):
    """First x in the window where w(x) - sum of the tables is nonzero in
    their field, one exact ``cover_count`` per point; None if there is none."""
    char = psis[0].char
    for x in range(start, start + length):
        diff = (cover_count(System(tuple(seqs)), x) if seqs else 0) - sum(t.value_at(x) for t in psis)
        if diff % char if char else diff:
            return x
    return None


def test_list_boundary_keeps_answers(monkeypatch):
    """At work _LIST_WORK a window check runs on lists, one past it on
    numpy, except that values past the int64 guard keep it on lists at
    both; every path gives the pointwise answer, as does the numpy oracle
    scan, which runs on object arrays past the guard.  first_below on 0/1
    tables, as expsum_cover_check passes them, at both work levels too."""
    numpy_calls = []
    for name in ("cover_counts", "table_sums"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *a, _k=kernel: numpy_calls.append(1) or _k(*a))
    rng = random.Random(2048)
    failing = 0
    for seqs, psis, start, length, huge in _boundary_cases(rng):
        expected = _pointwise_witness(seqs, psis, start, length)
        failing += expected is not None
        for work, on_numpy in ((_kernels._LIST_WORK, False), (_kernels._LIST_WORK + 1, not huge)):
            padded = _at_work(seqs, psis, length, work)
            numpy_calls.clear()
            verdict = _first_nonzero(*padded, start, length)
            assert bool(numpy_calls) == on_numpy
            assert (verdict.ok, verdict.witness) == (expected is None, expected)
            numpy_calls.clear()
            assert _kernels.first_nonzero(*_scan_input(*padded, start, length)) == verdict.witness
            assert numpy_calls
    assert 5 < failing < 15
    failing, length = 0, 150
    for _ in range(12):
        tables = [
            PeriodicValueTable(n, tuple(int(rng.random() < 0.9) for _ in range(n)))
            for n in (rng.randint(1, 12) for _ in range(rng.randint(2, 5)))
        ]
        least = rng.randint(1, len(tables))
        start = rng.choice((rng.randint(-40, 40), 2**64 + rng.randrange(99)))
        sums = [sum(t.value_at(x) for t in tables) for x in range(start, start + length)]
        expected = next((start + j for j, v in enumerate(sums) if v < least), None)
        failing += expected is not None
        for work, on_numpy in ((_kernels._LIST_WORK, False), (_kernels._LIST_WORK + 1, True)):
            _, padded = _at_work([], tables, length, work)
            rows = [t.values for t in padded]
            numpy_calls.clear()
            assert _kernels.first_below(rows, least, start, length) == expected
            assert bool(numpy_calls) == on_numpy
            oracle, _ = _kernels.exact_values(((), (), ()), rows, start, length)
            assert next((start + j for j, v in enumerate(oracle) if v > -least), None) == expected
    assert 3 < failing < 10


def test_full_period_scan_stops_at_the_first_chunk(monkeypatch):
    """A 720720-point full-period scan whose first nonzero point is its
    start hands the numpy kernels one chunk of at most 2**13 points, on
    classes with a table and on tables alone, and returns that start;
    classes past the guard fold too, digit by digit, so they make no
    cover_counts call."""
    lengths = []
    for name in ("cover_counts", "table_sums"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *a, _k=kernel: lengths.append(a[4]) or _k(*a))
    # lcm 720720; every class contains 0, so w(0) = 6 and w - 0 is nonzero there
    system = System.of(*((0, n) for n in (16, 9, 5, 7, 11, 13)))
    zero = PeriodicValueTable.constant(0)
    assert brute_cover_verdict(system, zero) == Verdict(False, 0)
    assert 0 < sum(lengths) <= 2**13
    # tables of periods 720 and 1001 (lcm 720720), nonzero only at x = 5
    # and x = 5 + 720720, so a scan from 5 fails at its first point
    tables = [PeriodicValueTable(720, tuple(int(x == 5) for x in range(720))), PeriodicValueTable(1001, (0,) * 1001)]
    for start in (5, 5 + 720720):
        lengths.clear()
        assert _kernels.first_nonzero(*_scan_input((), tables, start, 720720)) == start
        assert 0 < sum(lengths) <= 2**13
    # the classes above at weight 2**62 + 1 = 2**30 * 2**32 + 1 put the scan
    # on two digits, which fold too: one table_sums call of 2**13 points each
    monkeypatch.setattr(_kernels, "cover_counts", lambda *a: pytest.fail("cover_counts called"))
    lengths.clear()
    system = System.of(*((0, n, 2**62 + 1) for n in (16, 9, 5, 7, 11, 13)))
    assert brute_cover_verdict(system, zero) == Verdict(False, 0)
    assert lengths == [2**13, 2**13]


def test_cover_past_the_guard_scans_on_digits(monkeypatch):
    """A refined cover of 60 classes at weight 2**63 + 1 (lcm 90090), less
    one class, against the constant 2**63 + 1: the full-period scan plans
    digits in fixed widths and no object array, and returns the least
    point of the class left out, which lies in the first chunk; the whole
    cover passes."""
    seqs = [(0, 1)]
    # each step replaces the class at index i, a mod n, by a + j*n mod p*n
    # for j < p: the last one added, or the first class mod 13
    steps = [(-1, 13), (-1, 11), (-1, 7), (-1, 5), (-1, 3), (-1, 3), (-1, 2), (0, 11), (-1, 7), (-1, 5), (-1, 3)]
    for i, p in steps:
        a, n = seqs.pop(i)
        seqs += [(a + j * n, p * n) for j in range(p)]
    w = 2**63 + 1
    target = PeriodicValueTable.constant(w)
    cover = System.of(*((a, n, w) for a, n in seqs))
    assert (cover.k, cover.lcm()) == (60, 90090)
    plans = []
    plan = _kernels._plan

    def recording(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(_kernels, "_plan", recording)
    left_out = (559, 1001)
    broken = System.of(*((a, n, w) for a, n in seqs if (a, n) != left_out))
    assert brute_cover_verdict(broken, target) == Verdict(False, 559)
    assert cover_count(broken, 559) == 0 and all(cover_count(broken, x) == w for x in range(559))
    assert brute_cover_verdict(cover, target) == Verdict(True)
    assert len(plans) == 2 and all(type(nums) is tuple for nums, _ in plans)
    assert {d.dtype.kind for nums, _ in plans for d in nums} == {"i"}


def test_exact_sum_native_only_where_exact(monkeypatch):
    """exact_sum sums each digit of a full-period scan natively where no
    int64 total can wrap, and in Python ints from there: every digit's
    sums come back as an array whose tolist raises, so a native sum is one
    that does not raise."""

    class NoList(np.ndarray):
        def tolist(self):
            raise AssertionError("summed in Python ints")

    cover_counts = _kernels.cover_counts
    monkeypatch.setattr(_kernels, "cover_counts", lambda *a: cover_counts(*a).view(NoList))
    none = ((), (), ())
    rng = random.Random(32)
    for width, bound in ((np.int8, 2**6), (np.int16, 2**14), (np.int32, 2**30)):
        values = [rng.randrange(1 - bound, bound) for _ in range(1000)]
        assert plan_dtype([values]) == width
        assert _kernels.exact_sum(none, [values], 0, 1000) == (-sum(values), 1)
    # an int64 scan sums natively while its size times its largest
    # magnitude is below 2**63, and in Python ints from there
    peak = 2**62 - 1
    assert plan_dtype([(peak, -peak)]) == np.int64
    assert _kernels.exact_sum(none, [(peak, -peak)], 0, 2) == (0, 1)
    assert _kernels.exact_sum(none, [(peak,)], 0, 2) == (-(2**63 - 2), 1)
    with pytest.raises(AssertionError, match="Python ints"):
        _kernels.exact_sum(none, [(peak,)], 0, 3)
    # each digit of a lone value past the guard sums natively, and shifts
    # into place
    assert _kernels.exact_sum(([0], [1], [2**63]), [], 0, 3) == (3 * 2**63, 1)
    monkeypatch.setattr(_kernels, "cover_counts", cover_counts)
    assert _kernels.exact_sum(none, [(peak,)], 0, 3) == (-3 * peak, 1)
    assert int(np.full(3, -peak).sum()) != -3 * peak  # an int64 total wraps
    # a periodic table past the guard sums as an object array
    assert plan_dtype([(2**70, -1)]) == object
    assert _kernels.exact_sum(none, [(2**70, -1)], 0, 2) == (1 - 2**70, 1)


# weight scales that put a system's scaled peak sum in each width
SCALES = (1, Fraction(1, 2), 50, 3000, 10**6, 2**40, 2**60)


def _scaled_system(rng, scale) -> System:
    k = rng.randint(1, 5)
    return System.of(
        *((rng.randrange(12), rng.randint(1, 12), rng.choice((1, -1, 2)) * scale) for _ in range(k))
    )


def _full_period_answers(seed: int) -> list:
    """Verdicts and witnesses of the full-period scans on seeded inputs
    whose scaled values span every width."""
    rng = random.Random(seed)
    out = []
    for scale in SCALES * 4:
        system = _scaled_system(rng, scale)
        table = cover_table(system)
        mutated = list(table.values)
        mutated[rng.randrange(table.period)] += scale
        for target in (table, PeriodicValueTable(table.period, tuple(mutated))):
            out.append(brute_cover_verdict(system, target))
        out.append(brute_least_period(table))
        out.append(weighted_average_check(system))
        tables = [sequence_table(s.residue, s.modulus, weight=s.weight) for s in system.seqs]
        negated = PeriodicValueTable(table.period, tuple(-v for v in table.values))
        out.append(brute_tables_zero_verdict(tables + [negated]))
        out.append(brute_tables_zero_verdict(tables[1:] + [negated]))
        seqs, n0 = random_distinct_moduli_instance(rng, rng.randint(1, 3))
        seqs = [MultiSequence(s.residue, s.modulus, s.weight * scale) for s in seqs]
        out.append(brute_periodic_mod_vec(seqs, n0))
    for p in (5, 1009, 2**31 - 1, 2**61 - 1):
        for _ in range(5):
            psis = random_prime_field_tables(rng, p, force_zero_sum=rng.random() < 0.5)
            out.append(brute_tables_zero_verdict(psis))
    return out


def test_full_period_answers_independent_of_width(monkeypatch):
    chosen = {setting: set() for setting in WIDTH_SETTINGS}
    plan = _kernels._plan
    answers = {}
    for setting in WIDTH_SETTINGS:

        def recording(weights, tables, work, char=0):
            nums, D = plan(weights, tables, work, char)
            if work is None:  # a full-period plan: a tuple of digits
                chosen[setting].add(tuple(d.dtype for d in nums))
            return nums, D

        with kernel_widths(setting):
            monkeypatch.setattr(_kernels, "_plan", recording)
            answers[setting] = _full_period_answers(496)
    int64, digits = np.dtype("int64"), (np.dtype("int64"),) * 2
    one = {t: (np.dtype(t),) for t in ("int8", "int16", "int32", "int64", object)}
    assert chosen == {
        "narrowest": {*one.values(), (np.dtype("int8"), int64), digits},
        "int64-guard": {one["int64"], one[object], digits},
        "guard-1": {one[object]},
    }
    assert answers["narrowest"] == answers["int64-guard"] == answers["guard-1"]
    # the sweep is not vacuous: some checks fail, with witnesses
    assert any(not v for v in answers["narrowest"] if hasattr(v, "ok"))


def test_cover_values_is_pointwise_cover_count():
    rng = random.Random(616)
    for _ in range(20):
        k = rng.randint(1, 5)
        system = System.of(*((rng.randrange(10), rng.randint(1, 10)) for _ in range(k)))
        start = rng.randint(-30, 30)
        vals = cover_values(system, start, 50)
        for j, v in enumerate(vals):
            assert v == cover_count(system, start + j)


def test_table_sums_blocks_match_pointwise_definition():
    """Whole blocks of the largest period, a tail, windows no longer than
    one period, and a window holding more than _BLOCK copies of every
    period, which tiles each row of period 2 or more first, on int64 and
    object values over Q and F_p."""
    rng = random.Random(720720)
    periods = [1, 3, 4, 4, 7, 12]  # lcm 84
    offsets = [0, *accumulate(periods[:-1])]
    big_p = 2**89 - 1
    cases = [
        (np.int64, 0, lambda: rng.randint(-50, 50)),
        (np.int64, 7, lambda: rng.randrange(7)),
        (object, 0, lambda: rng.choice((1, -1)) * (2**70 + rng.randrange(50))),
        (object, big_p, lambda: rng.randrange(big_p)),
    ]
    for dtype, char, value in cases:
        vals = np.array([value() for _ in range(sum(periods))], dtype=dtype)
        for start in (0, -13, 2**64 + 5, -(2**70) + 3):
            for length in (0, 5, 12, 3 * 12 + 1, 84 + 1, 12 * _kernels._BLOCK + 5):
                out = _kernels.table_sums(vals, offsets, periods, start, length, char)
                assert out.dtype == dtype and len(out) == length
                assert out.tolist() == table_sums_reference(
                    vals.tolist(), offsets, periods, start, length, char
                )


def _window_values(classes, tables, start: int, length: int, char: int = 0) -> list:
    """A window check's values from ``_kernels._values``, as Python ints,
    reduced mod char when char > 0 (the list path does not reduce)."""
    out, D = _kernels._values(classes, tables, start, length, char, True)
    assert D == 1
    values = out if type(out) is list else out[0].tolist()
    return [v % char for v in values] if char else values


# width edges: the peak sum, the width the narrowest plan picks for it, and
# a prime past each table's peak for the same sums over F_p
EDGES = (
    (2**6 - 1, np.int8, 17),
    (2**14 - 1, np.int16, 4099),
    (2**30 - 1, np.int32, 2**31 - 1),
    (2**62 - 1, np.int64, 2**61 - 1),
)


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
def test_in_place_subtraction_exact_at_width_edges(setting):
    """Tables subtracted in place from the class sums stay exact when the
    peak sum is one below a width's bound: at x0 = 0 mod 30030 every class
    holds and every table sits at its negated peak, so w - the tables
    reaches P there, and -P on the negated input; with classes, without
    them, and over F_p, on the window path and the full-period scan, equal
    to pointwise sums."""
    rng = random.Random(30030)
    x0 = 30030 * 2**60
    start, length = x0 - 300, 600
    periods = (2, 6, 5, 7)
    for peak, width, p in EDGES:
        cases = []
        for moduli in ((11, 13), ()):
            parts = [peak // 6] * (len(moduli) + 3)
            parts.append(peak - sum(parts))
            weights, maxima = parts[: len(moduli)], parts[len(moduli) :]
            tables = [
                [-m, *(rng.randint(-m, m) for _ in range(n - 1))] for m, n in zip(maxima, periods)
            ]
            classes = ([0] * len(moduli), list(moduli), weights)
            cases.append((classes, tables, peak))
            negated = (classes[0], classes[1], [-w for w in weights])
            cases.append((negated, [[-v for v in t] for t in tables], -peak))
        with kernel_widths(setting):
            for classes, tables, extreme in cases:
                ref = indexed_values(classes, tables, start, length, dtype=object).tolist()
                assert ref[x0 - start] == extreme and max(map(abs, ref)) == peak
                assert _window_values(classes, tables, start, length) == ref
                assert _kernels.exact_values(classes, tables, start, length) == (ref, 1)
                out, _ = _kernels._values(classes, tables, start, length, 0, True)
                if type(out) is tuple and setting in ("narrowest", "no-lists"):
                    assert out[0].dtype == width
            # over F_p: values in [0, p), each table peaking at x0
            maxima = [-(-peak // 4)] * 3
            maxima.append(peak - sum(maxima))
            tables = [[m, *(rng.randrange(m) for _ in range(n - 1))] for m, n in zip(maxima, periods)]
            none = ((), (), ())
            ref = [v % p for v in indexed_values(none, tables, start, length, dtype=object).tolist()]
            assert ref[x0 - start] == -peak % p
            assert _window_values(none, tables, start, length, p) == ref
            exact, D = _kernels.exact_values(none, tables, start, length, p)
            assert ([v % p for v in exact], D) == (ref, 1)


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
def test_list_fold_tiles_each_period_into_one_maximal_period(setting):
    """Tables of periods n, 2n, 3n and 6n fold into the one of period 6n
    and a coprime period stays its own; a period dividing two maximal
    periods (2 of 6 and 10) folds into exactly one of them.  Windows from
    past 2**62, with and without classes, equal pointwise sums on every
    path, and so does the full-period search."""
    assert _kernels._homes([5, 10, 15, 30, 7]) == {30: 30, 15: 30, 10: 30, 7: 7, 5: 30}
    assert _kernels._homes([6, 2, 10]) == {10: 10, 6: 6, 2: 10}
    rng = random.Random(6)
    start = 2**62 + rng.randrange(10**6)
    with kernel_widths(setting):
        for periods in ((5, 10, 15, 30, 7), (6, 2, 10, 2)):
            for k in (0, 3):
                classes = ([rng.randrange(9) for _ in range(k)], [9] * k, [rng.randint(-5, 5) for _ in range(k)])
                for length in (29, 211, 3000):
                    tables = [[rng.randint(-9, 9) for _ in range(n)] for n in periods]
                    ref = indexed_values(classes, tables, start, length, dtype=object).tolist()
                    assert _window_values(classes, tables, start, length) == ref
                    # a point that cancels is nonzero nowhere else
                    first = next((start + j for j, v in enumerate(ref) if v), None)
                    assert _kernels.window_first_nonzero(classes, tables, start, length) == first
                    assert _kernels.first_nonzero(classes, tables, start, length) == first


def test_weighted_average_exact_where_int64_total_wraps(monkeypatch):
    system = System.of((0, 2, 2**60), (1, 1009, 2**60))
    assert plan_dtype([(2**60,), (2**60,)]) == np.int64  # the scan's plan
    values, D = _kernels.exact_values(*_scan_input(system.seqs, (), 0, system.lcm()))
    assert D == 1 and max(values) < 2**62
    # every point fits in int64, the total over the period does not
    total = _kernels.exact_sum(*_scan_input(system.seqs, (), 0, system.lcm()))
    assert total == (sum(values), 1) == (1011 * 2**60, 1)
    assert int(np.array(values, dtype=np.int64).sum()) != 1011 * 2**60
    rng = random.Random(2**60)

    def weight():
        return Fraction(rng.choice((1, -1)) * 2**59 + rng.randint(-9, 9), rng.choice((1, 3)))

    systems = [system]
    for _ in range(12):
        k = rng.randint(1, 4)
        systems.append(System.of(*((rng.randrange(12), rng.randint(1, 12), weight()) for _ in range(k))))
    fast = [weighted_average_check(s) for s in systems]
    assert all(fast)
    for s in systems[1:]:
        assert mean_reference(s) == sum(Fraction(q.weight, q.modulus) for q in s.seqs)
    monkeypatch.setattr(_kernels, "_INT64_GUARD", 1)  # force the big-int path
    assert plan_dtype([(2**60,), (2**60,)]) == object
    assert [weighted_average_check(s) for s in systems] == fast


def test_numpy_integers_become_exact():
    """Weights and table values given as numpy integers leave construction
    as Python ints or Fractions of them, so no path sums them in a fixed
    width: four weights or tables of 2**62 sum to 2**64, not to 0."""
    big = np.int64(2**62)
    seq = WeightedSequence(0, 1, big)
    assert type(seq.weight.numerator) is int and type(seq.weight.denominator) is int
    system = System((seq,) * 4)
    zero = PeriodicValueTable.constant(0)
    assert verify_covering_function(system, zero) == brute_cover_verdict(system, zero) == Verdict(False, 0)
    tables = [PeriodicValueTable(1, (big,))] * 4
    assert type(tables[0].values[0]) is int
    assert window_zero_check(tables) == brute_tables_zero_verdict(tables) == Verdict(False, 0)
    halves = PeriodicValueTable(2, (big, Fraction(np.int64(1), np.int64(2))))
    assert all(type(v) is Fraction and type(v.numerator) is int for v in halves.values[1:])
    assert halves.values == (2**62, Fraction(1, 2))
    multi = [MultiSequence((0,), (2,), big)] * 4
    assert type(multi[0].weight.numerator) is int
    assert not is_periodic_mod_vec(multi, (1,)).ok and not brute_periodic_mod_vec(multi, (1,)).ok
    # residues and moduli become Python ints too, so a start past int64
    # does not overflow the list path's (a - start) % n
    mixed = System.of((np.int64(1), 3), (np.int64(0), 3), (2, 3))
    assert {type(v) for s in mixed.seqs for v in (s.residue, s.modulus)} == {int}
    one = PeriodicValueTable.constant(1)
    assert verify_covering_function(mixed, one, start=2**70) == Verdict(True)
    entries = [((1, 0), (3, 2)), ((0, 1), (3, 2)), ((2, 0), (3, 1), -1)]
    plain = [MultiSequence(*e) for e in entries]
    wide = [MultiSequence(tuple(map(np.int64, a)), tuple(map(np.int64, n)), *w) for a, n, *w in entries]
    assert {type(v) for s in wide for v in s.residue + s.modulus} == {int}
    for n0 in ((1, 2), (3, 1), (2**70, 2), (3 * 2**70, 4)):
        assert is_periodic_mod_vec(wide, n0) == is_periodic_mod_vec(plain, n0)
    assert is_periodic_mod_vec(wide, (1, 2)) == brute_periodic_mod_vec(plain, (1, 2))
