import random
from fractions import Fraction
from itertools import accumulate

import numpy as np

from coverkit import _kernels
from coverkit.covering import (
    PeriodicValueTable,
    System,
    cover_count,
    cover_table,
    cover_values,
    non_exact_witness,
    verify_covering_function,
    window_zero_check,
)
from coverkit.multidim import is_periodic_mod_vec
from coverkit.numtheory import f_additive
from coverkit.oracle import brute_cover_verdict, brute_least_period, brute_tables_zero_verdict
from helpers import (
    random_distinct_moduli_instance,
    random_prime_field_tables,
    random_unweighted_system,
    random_weighted_system,
    random_zero_system,
    sequence_table,
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


def test_scaled_refuses_at_the_guard():
    g = _kernels._INT64_GUARD

    def dtype(groups):
        return _kernels._scaled(groups)[0].dtype

    nums, D = _kernels._scaled([(Fraction(1, 2), 3), (Fraction(-1, 3),)])
    assert (nums.tolist(), D) == ([3, 18, -2], 6)
    assert dtype([(g - 2, -5), (1,)]) == np.int64
    assert dtype([(g - 2, -5), (2,)]) == object  # the group peaks sum to g
    assert dtype([(-(2**63),)]) == object
    assert dtype([(2**63,)]) == object
    assert dtype([(Fraction(g - 2, 3),)]) == np.int64
    assert dtype([(Fraction(g - 2, 3), Fraction(1, 2))]) == object  # D = 6
    # past the guard the numerators stay exact
    nums, D = _kernels._scaled([(Fraction(g - 2, 3), Fraction(1, 2)), (-(2**63),)])
    assert (nums.tolist(), D) == ([2 * (g - 2), 3, -6 * 2**63], 6)
    # a denominator past int64 stays int64 when only zeros need scaling by it
    nums, D = _kernels._scaled([(Fraction(1, 2**70),), (0, 0)])
    assert (nums.dtype, nums.tolist(), D) == (np.int64, [1, 0, 0], 2**70)


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
    return out


def test_int64_guard_changes_speed_never_answers(monkeypatch):
    fast = _answers(8128)
    monkeypatch.setattr(_kernels, "_INT64_GUARD", 1)
    assert _kernels._scaled([(Fraction(1),), (1, 0)])[0].dtype == object
    assert _answers(8128) == fast


def test_cover_values_is_pointwise_cover_count():
    rng = random.Random(616)
    for _ in range(20):
        k = rng.randint(1, 5)
        system = System.of(*((rng.randrange(10), rng.randint(1, 10)) for _ in range(k)))
        start = rng.randint(-30, 30)
        vals = cover_values(system, start, 50)
        for j, v in enumerate(vals):
            assert v == cover_count(system, start + j)
