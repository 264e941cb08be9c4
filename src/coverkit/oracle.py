"""Brute-force reference checks over full periods, plus the window/full
benchmark.

Every fast windowed criterion elsewhere in the package is anchored by an
exhaustive scan here.  The scans run the first-nonzero scan that every
window check of :mod:`coverkit.covering` uses (the kernels on int64, or on
exact Python ints when the scaled values require it) over one full period,
but they never consult the window theorems themselves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .covering import (
    PeriodicValueTable,
    System,
    Verdict,
    _first_nonzero,
    _oracle_points,
    verify_covering_function,
)
from .fracsets import phi_sum_cardinality
from .numtheory import divisors_of

__all__ = [
    "brute_cover_verdict",
    "brute_tables_zero_verdict",
    "brute_least_period",
    "BenchReport",
    "bench_window_vs_full",
]


def brute_cover_verdict(system: System, target: PeriodicValueTable) -> Verdict:
    """Compare w with the target on every point of one full common period."""
    N = _oracle_points(math.lcm(system.lcm(), target.period))
    return _first_nonzero(system.seqs, [target], 0, N)


def brute_tables_zero_verdict(psis: list[PeriodicValueTable]) -> Verdict:
    """Check sum_s psi_s(x) = 0 on every point of one full common period."""
    N = _oracle_points(math.lcm(*(t.period for t in psis)))
    return _first_nonzero((), psis, 0, N)


def brute_least_period(table: PeriodicValueTable) -> int:
    """Smallest divisor d of the period with table(x) = table(x+d) for all x.

    For d dividing N = period, the cyclic condition is equivalent to
    arr[x] == arr[x+d] for x < N-d (the wrapped pairs follow by going round
    the cycle), so each d compares two slices of one array, without a copy.
    """
    arr = _kernels._scaled([table.values])[0]
    N = len(arr)
    # d = period always matches (two empty slices)
    return next(d for d in divisors_of(N) if np.array_equal(arr[d:], arr[: N - d]))


@dataclass(frozen=True)
class BenchReport:
    """Timing contrast of the window check against the full-period scan."""

    moduli: tuple[int, ...]
    window_points: int
    full_points: int
    t_window_ns: int
    t_full_ns: int
    agree: bool
    window_verdict: Verdict
    full_verdict: Verdict

    def machine_line(self) -> str:
        return (
            f"bench|moduli={','.join(map(str, self.moduli))}"
            f"|S={self.window_points}|N={self.full_points}"
            f"|t_window_ns={self.t_window_ns}|t_full_ns={self.t_full_ns}"
            f"|agree={'true' if self.agree else 'false'}"
        )


def _best_ns(check, *args) -> int:
    """Least wall time of five calls of check(*args), in ns."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        check(*args)
        times.append(time.perf_counter_ns() - t0)
    return min(times)


def bench_window_vs_full(system: System, target: PeriodicValueTable) -> BenchReport:
    """Run the windowed verification and the exhaustive one, check they
    agree, and report the point counts and wall times of both.

    One untimed warmup run precedes the measurements so one-time first-call
    costs never land in the timings, and each side reports the best of five
    timed runs, so that one preempted run does not decide the contrast.
    This is an illustrative contrast, not a statistically careful benchmark.
    """
    window_points = phi_sum_cardinality(system.moduli + [target.period])
    full_points = math.lcm(system.lcm(), target.period)

    wv = verify_covering_function(system, target)
    fv = brute_cover_verdict(system, target)
    t_window = _best_ns(verify_covering_function, system, target)
    t_full = _best_ns(brute_cover_verdict, system, target)

    agree = wv.ok == fv.ok
    assert agree, f"window verdict {wv} disagrees with full-period verdict {fv}"
    return BenchReport(
        tuple(system.moduli), window_points, full_points, t_window, t_full, agree, wv, fv
    )
