"""Brute-force reference checks over full periods, plus the window/full
benchmark.

Every fast windowed criterion elsewhere in the package is anchored by an
exhaustive scan here, of one full period or period box, searched or
compared by :mod:`coverkit._kernels`, whose plan picks the path: always
numpy, so a window check, which may run on lists, is checked by a second
implementation.  The scans never consult the window theorems themselves.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Sequence

from . import _kernels
from .covering import (
    PeriodicValueTable,
    System,
    Verdict,
    _oracle_points,
    _scan_input,
    verify_covering_function,
)
from .multidim import IntVector, MultiSequence, _check_dims, _columns
from .numtheory import divisors_of

__all__ = [
    "brute_cover_verdict",
    "brute_tables_zero_verdict",
    "brute_least_period",
    "brute_periodic_mod_vec",
    "BenchReport",
    "bench_window_vs_full",
]


def _whole_period(system: System | None, psis: Sequence[PeriodicValueTable]) -> Verdict:
    """Search one full common period N of the classes of ``system`` (none
    for None) and the tables, at most the oracle cap, for the first x where
    w(x) - sum_s psi_s(x) is nonzero in the tables' field, on the numpy
    kernels."""
    moduli = system.moduli if system is not None else ()
    N = _oracle_points(math.lcm(*moduli, *(t.period for t in psis)))
    x = _kernels.first_nonzero(*_scan_input(system, psis, 0, N))
    return Verdict(x is None, x, N)


def brute_cover_verdict(system: System, target: PeriodicValueTable) -> Verdict:
    """Compare w with the target on every point of one full common period."""
    return _whole_period(system, [target])


def brute_tables_zero_verdict(psis: list[PeriodicValueTable]) -> Verdict:
    """Check sum_s psi_s(x) = 0 on every point of one full common period."""
    return _whole_period(None, psis)


def brute_least_period(table: PeriodicValueTable) -> int:
    """Smallest divisor d of the period with table(x) = table(x+d) for all
    x; d = N, the period, always is."""
    return _kernels.first_period(table._column, divisors_of(table.period))


def brute_periodic_mod_vec(seqs: Sequence[MultiSequence], n0: IntVector) -> Verdict:
    """Exhaustively decide whether w is periodic modulo n0.

    Compares w(x) with w(x + n0_t * e_t) for every coordinate t on one full
    period box (componentwise lcm of n0 and all moduli), at most the oracle
    cap.  dims_t is a multiple of n0_t, so the pairs that wrap round the
    box follow from those inside it by going round the cycle, and the
    first mismatch in C order (the witness x) never wraps.
    """
    _check_dims(seqs, n0)
    if any(c < 1 for c in n0):
        raise ValueError(f"period components must be positive, got {n0}")
    dims = tuple(math.lcm(c, *(s.modulus[t] for s in seqs)) for t, c in enumerate(n0))
    points = _oracle_points(math.prod(dims), "box")
    found = _kernels.box_first_mismatch(_columns(seqs), dims, n0)
    if found is None:
        return Verdict(True, None, points)
    t, x = found
    return Verdict(False, (x, tuple(c + (n0[t] if u == t else 0) for u, c in enumerate(x))), points)


class BenchReport(NamedTuple):
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
    wv = verify_covering_function(system, target)
    fv = brute_cover_verdict(system, target)
    t_window = _best_ns(verify_covering_function, system, target)
    t_full = _best_ns(brute_cover_verdict, system, target)

    agree = wv.ok == fv.ok
    if not agree:
        raise AssertionError(f"window verdict {wv} disagrees with full-period verdict {fv}")
    return BenchReport(
        tuple(system.moduli), wv.points, fv.points, t_window, t_full, agree, wv, fv
    )
