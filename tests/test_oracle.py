import re
import random
from fractions import Fraction

import pytest

from coverkit import (
    PeriodicValueTable,
    System,
    bench_window_vs_full,
    brute_cover_verdict,
    brute_least_period,
    cover_table,
)
from coverkit.numtheory import divisors_of
from helpers import random_weighted_system, rolled_least_period, system_B, system_B_prime


def test_brute_cover_examples():
    one = PeriodicValueTable.constant(1)
    assert brute_cover_verdict(system_B(), one).ok
    v = brute_cover_verdict(system_B_prime(), one)
    assert (v.ok, v.witness) == (False, 0)
    table = cover_table(system_B_prime())
    assert brute_cover_verdict(system_B_prime(), table).ok


def test_brute_cover_cap():
    system = System.of((0, 1009), (0, 1013))  # lcm 1022117, past the oracle cap
    with pytest.raises(ValueError, match="period too large"):
        brute_cover_verdict(system, PeriodicValueTable.constant(1))


def test_brute_least_period_examples():
    assert brute_least_period(PeriodicValueTable.constant(7, period=1)) == 1
    assert brute_least_period(PeriodicValueTable(6, (2, 2, 2, 2, 2, 2))) == 1
    assert brute_least_period(PeriodicValueTable(4, (1, 0, 0, 0))) == 4
    assert brute_least_period(cover_table(system_B())) == 1
    assert brute_least_period(PeriodicValueTable(6, (1, 0, 1, 0, 1, 0))) == 2


def test_brute_least_period_fractions():
    h = Fraction(1, 2)
    assert brute_least_period(PeriodicValueTable(4, (h, 1, h, 1))) == 2
    wide = Fraction(2**70, 3)
    assert brute_least_period(PeriodicValueTable(2, (wide, wide))) == 1


def test_brute_least_period_divides_table_period():
    rng = random.Random(77)
    for _ in range(40):
        table = cover_table(random_weighted_system(rng, k_max=4, n_max=8))
        d = brute_least_period(table)
        assert table.period % d == 0
        assert all(
            table.values[x] == table.values[(x + d) % table.period]
            for x in range(table.period)
        )


def test_brute_least_period_matches_rolled_reference():
    """Slice comparison against the roll-based reference, on tables with a
    planted period that half the time one changed value breaks."""
    rng = random.Random(2520)
    for _ in range(80):
        N = rng.choice((1, 2, 6, 12, 30, 60, 210, 420))
        d = rng.choice(divisors_of(N))
        base = [rng.choice((0, 1, -2, Fraction(1, 2), 2**70)) for _ in range(d)]
        values = [base[x % d] for x in range(N)]
        if rng.random() < 0.5:
            values[rng.randrange(N)] += rng.choice((1, Fraction(1, 3)))
        table = PeriodicValueTable(N, tuple(values))
        assert brute_least_period(table) == rolled_least_period(table)
    for _ in range(20):
        table = cover_table(random_weighted_system(rng))
        assert brute_least_period(table) == rolled_least_period(table)


BENCH_RE = re.compile(
    r"^bench\|moduli=[-\d,]+\|S=\d+\|N=\d+\|t_window_ns=\d+\|t_full_ns=\d+\|agree=(true|false)$"
)


def test_bench_small_example():
    report = bench_window_vs_full(
        System.of((0, 2), (0, 4), (0, 6)), PeriodicValueTable.constant(1)
    )
    assert report.window_points == 8
    assert report.full_points == 12
    assert report.agree
    assert BENCH_RE.match(report.machine_line())


def test_bench_trivial_ratio():
    report = bench_window_vs_full(System.of((0, 1)), PeriodicValueTable.constant(1))
    assert report.window_points == report.full_points == 1


def test_bench_prime_moduli():
    system = System.of(*((0, n) for n in (2, 3, 5, 7, 11, 13)))
    report = bench_window_vs_full(system, PeriodicValueTable.constant(1))
    assert report.window_points == 36
    assert report.full_points == 30030
    assert report.agree
