"""Hot scan kernels, and the one boundary between int64 and exact arithmetic.

The kernels (full-period covering counts and periodic-table sums) are the
only loops in the package that touch millions of points, so they run on
int64 numpy buffers.  Every caller first puts its exact values over a
common denominator with :func:`_scaled`, which refuses whenever a kernel's
sums or the window endpoints might leave int64; the caller then takes its
exact big-integer path instead, so the guard changes speed, never answers.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

BACKEND = "numpy"

# scaled sums and window endpoints must stay below this magnitude before a
# kernel may run on them
_INT64_GUARD = 2**62

def _scaled(groups, start: int = 0, length: int = 0, den: int = 1):
    """(numerators, D): the values of ``groups`` (ints or Fractions) over
    their common denominator D, a multiple of ``den``, as one flat int64
    array in group order.

    Returns None when a sum of one scaled value from each group, or an
    endpoint of the window [start, start+length), might leave int64.
    """
    if max(abs(start), abs(start + length)) >= _INT64_GUARD:
        return None
    flat = list(chain.from_iterable(groups))
    nums = np.asarray(flat)
    D = den
    if nums.dtype != np.int64 or den != 1:
        # Fractions, or ints past int64: scale exactly before converting
        D = math.lcm(den, *{v.denominator for v in flat})
        flat = [v.numerator * (D // v.denominator) for v in flat]
        if max(map(abs, flat), default=0) >= _INT64_GUARD:
            return None
        nums = np.asarray(flat, dtype=np.int64)
    # the largest magnitude in each group (unsigned, so abs(-2**63) is right)
    firsts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    peaks = np.maximum.reduceat(np.abs(nums).view(np.uint64), firsts)
    if sum(peaks.tolist()) >= _INT64_GUARD:
        return None
    return nums, D


def cover_counts(residues, moduli, weights, start: int, length: int) -> np.ndarray:
    """int64 array of sum(weights[s] : x = residues[s] mod moduli[s]) for
    x in [start, start+length)."""
    out = np.zeros(length, dtype=np.int64)
    for a, n, w in zip(residues, moduli, weights):
        out[(int(a) - start) % int(n) :: int(n)] += w
    return out


def table_sums(values, offsets, periods, start: int, length: int, char: int = 0) -> np.ndarray:
    """int64 array of sum over tables s of values[offsets[s] + (x mod periods[s])]
    for x in [start, start+length), reduced mod char when char > 0."""
    vals = np.asarray(values, dtype=np.int64)
    x = np.arange(start, start + length, dtype=np.int64)
    out = np.zeros(length, dtype=np.int64)
    for off, n in zip(offsets, periods):
        out += vals[int(off) + (x % int(n))]
    if char > 0:
        out %= char
    return out
