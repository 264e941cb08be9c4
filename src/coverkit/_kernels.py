"""Hot scan kernels, and the one boundary between int64 and exact arithmetic.

The kernels (window covering counts and periodic-table sums) are the only
loops in the package that touch millions of points.  Every caller first
puts its exact values over a common denominator with :func:`_scaled`,
which hands back an int64 array when no kernel sum can leave int64 and an
object array of exact Python ints otherwise.  The kernels take their dtype
from the values they are given, so both arrays run the same code and the
guard changes speed, never answers.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

BACKEND = "numpy"

# a sum of one scaled value from each group must stay below this magnitude
# for the values to travel as int64
_INT64_GUARD = 2**62


def _scaled(groups):
    """(numerators, D): the values of ``groups`` (ints or Fractions) over
    their common denominator D, as one flat array in group order.

    The array is int64 when the sum over groups of each group's largest
    scaled magnitude stays below the guard, and an object array of exact
    Python ints otherwise.
    """
    flat = list(chain.from_iterable(groups))
    nums = np.asarray(flat)
    D = 1
    if nums.dtype != np.int64:
        # Fractions, or ints past int64: scale exactly before converting
        D = math.lcm(*{v.denominator for v in flat})
        flat = [v.numerator * (D // v.denominator) for v in flat]
        if max(map(abs, flat)) >= _INT64_GUARD:
            return np.array(flat, dtype=object), D
        nums = np.asarray(flat, dtype=np.int64)
    # the largest magnitude in each group (unsigned, so abs(-2**63) is right)
    firsts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    peaks = np.maximum.reduceat(np.abs(nums).view(np.uint64), firsts)
    if sum(peaks.tolist()) >= _INT64_GUARD:
        return nums.astype(object), D
    return nums, D


def cover_counts(residues, moduli, weights, start: int, length: int) -> np.ndarray:
    """Array of sum(weights[s] : x = residues[s] mod moduli[s]) for x in
    [start, start+length), in the dtype of ``weights``."""
    weights = np.asarray(weights)
    out = np.zeros(length, dtype=weights.dtype)
    for a, n, w in zip(residues, moduli, weights):
        out[(int(a) - start) % int(n) :: int(n)] += w
    return out


def table_sums(values, offsets, periods, start: int, length: int, char: int = 0) -> np.ndarray:
    """Array of sum over tables s of values[offsets[s] + (x mod periods[s])]
    for x in [start, start+length), in the dtype of ``values``, reduced mod
    char when char > 0."""
    vals = np.asarray(values)
    # tables of one period are summed first, so each period is gathered once
    folded = {}
    for off, n in zip(offsets, periods):
        off, n = int(off), int(n)
        row = vals[off : off + n]
        folded[n] = folded[n] + row if n in folded else row
    x = np.arange(length, dtype=np.int64)
    out = np.zeros(length, dtype=vals.dtype)
    for n, row in folded.items():
        # start is reduced mod n first, so no index leaves [0, n)
        out += row[(x + start % n) % n]
    if char > 0:
        out %= char
    return out
