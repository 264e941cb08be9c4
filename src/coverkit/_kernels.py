"""Hot scan kernels, and the one place that picks their integer width.

The kernels (window covering counts and periodic-table sums) are the only
loops in the package that touch millions of points.  Every caller first
puts its exact values over a common denominator with :func:`_scaled`,
which hands back the narrowest of int8, int16, int32 and int64 that no
kernel sum can leave, and an object array of exact Python ints past the
int64 guard.  A scan's cost is memory traffic, so an exact cover whose
counts stay below 64 scans bytes, not words.  The kernels take their dtype
from the values they are given, so every width runs the same code and the
ladder and guard change speed, never answers.

This is the only module that uses numpy, and it imports numpy inside each
kernel entry point rather than at module load: a process that never scans
(``least-period``, ``window-size``) never loads it, and once loaded the
import statement is a dictionary lookup.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BACKEND = "numpy"

# a sum of one scaled value from each group must stay below this magnitude
# for the values to travel in a fixed width at all
_INT64_GUARD = 2**62

# (bound, dtype): values travel in the first dtype whose bound their group
# peak sum stays below; each bound keeps the same two-bit margin as the
# guard, which is the ladder's top
_WIDTHS = ((2**6, "int8"), (2**14, "int16"), (2**30, "int32"), (_INT64_GUARD, "int64"))


def _scaled(groups):
    """(numerators, D): the values of ``groups`` (ints or Fractions) over
    their common denominator D, as one flat array in group order.

    The sum over groups of each group's largest scaled magnitude picks
    the array's dtype: the narrowest width of the ladder whose bound it
    stays below, or an object array of exact Python ints at or past the
    guard.  A sum of one value from each group, or the difference of two
    such sums, then fits the width.
    """
    import numpy as np

    flat = list(chain.from_iterable(groups))
    nums = np.asarray(flat)
    D = 1
    if nums.dtype == object and all(type(v) is int for v in flat):
        # ints past int64: numpy already holds them exactly, over D = 1
        return nums, D
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
    total = sum(peaks.tolist())
    if total >= _INT64_GUARD:
        return nums.astype(object), D
    width = next(dtype for bound, dtype in _WIDTHS if total < bound)
    return nums.astype(width, copy=False), D


def cover_counts(residues, moduli, weights, start: int, length: int) -> np.ndarray:
    """Array of sum(weights[s] : x = residues[s] mod moduli[s]) for x in
    [start, start+length), in the dtype of ``weights``."""
    import numpy as np

    weights = np.asarray(weights)
    out = np.zeros(length, dtype=weights.dtype)
    for a, n, w in zip(residues, moduli, weights):
        out[(int(a) - start) % int(n) :: int(n)] += w
    return out


def _box_counts(residues, moduli, weights, dims) -> np.ndarray:
    """Array of shape ``dims`` holding sum(weights[s] : x = residues[s] mod
    moduli[s] componentwise), in the dtype of ``weights``; each side of the
    box must be a multiple of every modulus on that side."""
    import numpy as np

    weights = np.asarray(weights)
    out = np.zeros(dims, dtype=weights.dtype)
    for a, n, w in zip(residues, moduli, weights):
        out[tuple(slice(at, None, nt) for at, nt in zip(a, n))] += w
    return out


def table_sums(values, offsets, periods, start: int, length: int, char: int = 0) -> np.ndarray:
    """Array of sum over tables s of values[offsets[s] + (x mod periods[s])]
    for x in [start, start+length), in the dtype of ``values``, reduced mod
    char when char > 0 (values are then field elements, in [0, char)).

    Tables of one period are summed into one row first.  Each row is
    rotated once so that its entry 0 belongs to x = start; the window is
    then whole blocks of one period, to which the row is added by
    broadcasting, plus a short tail.  No index array is built, and a window
    shorter than a period costs one slice add per row.
    """
    import numpy as np

    vals = np.asarray(values)
    folded = {}
    for off, n in zip(offsets, periods):
        off, n = int(off), int(n)
        row = vals[off : off + n]
        folded[n] = folded[n] + row if n in folded else row
    out = np.zeros(length, dtype=vals.dtype)
    for n, row in folded.items():
        s = start % n
        row = np.concatenate((row[s:], row[:s]))
        full = length // n
        # a view, since out is contiguous: adding to it adds to out
        blocks = out[: full * n].reshape(full, n)
        blocks += row
        out[full * n :] += row[: length - full * n]
    # nonnegative sums of a fixed width of b bits are below 2**(b-1), so a
    # char at or past that (which the width may not even hold) leaves them
    # reduced already
    if char > 0 and (out.dtype == object or char < 1 << 8 * out.itemsize - 1):
        out %= char
    return out
