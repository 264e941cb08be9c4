"""Brute-force reference checks over full periods, plus the window/full
benchmark.

Every fast windowed criterion elsewhere in the package is anchored by an
exhaustive scan here.  The scans run the first-nonzero scan of
:mod:`coverkit.covering` over one full period (or compare slices of one
full period box, for periodicity mod a vector), always on the numpy kernels
(in the narrowest fixed integer width that the scaled sums fit, or on
numpy object arrays of exact Python ints past the widest), so a window
check, which runs on lists of Python ints when it is short or past the
widest width, is checked by a second implementation; they never consult
the window theorems themselves.
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
    _first_nonzero,
    _oracle_points,
    verify_covering_function,
)
from .multidim import IntVector, MultiSequence, _check_dims
from .numtheory import divisors_of

__all__ = [
    "brute_cover_verdict",
    "brute_tables_zero_verdict",
    "brute_least_period",
    "brute_periodic_mod_vec",
    "BenchReport",
    "bench_window_vs_full",
]


def brute_cover_verdict(system: System, target: PeriodicValueTable) -> Verdict:
    """Compare w with the target on every point of one full common period."""
    N = _oracle_points(math.lcm(system.lcm(), target.period))
    return _first_nonzero(system.seqs, [target], 0, N, full_period=True)


def brute_tables_zero_verdict(psis: list[PeriodicValueTable]) -> Verdict:
    """Check sum_s psi_s(x) = 0 on every point of one full common period."""
    N = _oracle_points(math.lcm(*(t.period for t in psis)))
    return _first_nonzero((), psis, 0, N, full_period=True)


def brute_least_period(table: PeriodicValueTable) -> int:
    """Smallest divisor d of the period with table(x) = table(x+d) for all x.

    For d dividing N = period, the cyclic condition is equivalent to
    arr[x] == arr[x+d] for x < N-d (the wrapped pairs follow by going round
    the cycle), so each d compares two slices of one array, without a copy.
    """
    arr = _kernels._scaled([table.values])[0]
    N = len(arr)
    # d = period always matches (two empty slices)
    return next(d for d in divisors_of(N) if (arr[d:] == arr[: N - d]).all())


def _box_dims(seqs: Sequence[MultiSequence], n0: IntVector) -> tuple[int, ...]:
    l = len(n0)
    return tuple(
        math.lcm(n0[t], *(s.modulus[t] for s in seqs)) for t in range(l)
    )


def brute_periodic_mod_vec(seqs: Sequence[MultiSequence], n0: IntVector) -> Verdict:
    """Exhaustively decide whether w is periodic modulo n0.

    Scans one full period box (componentwise lcm of n0 and all moduli) and
    compares w(x) with w(x + n0_t * e_t) for every coordinate t.  Along
    axis t that is the slice [0, dims_t - n0_t) against the slice
    [n0_t, dims_t): dims_t is a multiple of n0_t, so the pairs that wrap
    round the box follow from these by going round the cycle, and the
    first mismatch in C order (the witness x) never wraps.  The box may not
    exceed the oracle cap.
    """
    l = _check_dims(seqs, n0)
    if any(c < 1 for c in n0):
        raise ValueError(f"period components must be positive, got {n0}")
    dims = _box_dims(seqs, n0)
    _oracle_points(math.prod(dims), "box")
    # D * w over the box, D the weights' common denominator
    nums, _ = _kernels._scaled([(s.weight,) for s in seqs])
    box = _kernels._box_counts([s.residue for s in seqs], [s.modulus for s in seqs], nums, dims)
    for t in range(l):
        head = (slice(None),) * t
        bad = box[head + (slice(0, dims[t] - n0[t]),)] != box[head + (slice(n0[t], None),)]
        if bad.any():
            x = _kernels._unravel(int(bad.argmax()), bad.shape)
            y = tuple(c + (n0[t] if u == t else 0) for u, c in enumerate(x))
            return Verdict(False, (x, y))
    return Verdict(True)


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
    assert agree, f"window verdict {wv} disagrees with full-period verdict {fv}"
    return BenchReport(
        tuple(system.moduli), wv.points, fv.points, t_window, t_full, agree, wv, fv
    )
