"""Hot scan kernels, and the one place that picks how a scan runs.

The kernels (window covering counts and periodic-table sums) are the only
loops in the package that touch millions of points.  Every numpy scan
first puts its exact values over a common denominator with :func:`_scaled`,
which hands back the narrowest of int8, int16, int32 and int64 that no
kernel sum can leave, and an object array of exact Python ints past the
int64 guard.  A scan's cost is memory traffic, so an exact cover whose
counts stay below 64 scans bytes, not words.  The kernels take their dtype
from the values they are given, so every width runs the same code and the
ladder and guard change speed, never answers.

A window check of work at most ``_LIST_WORK`` (:func:`_short`) is too
short for numpy to pay off and runs on lists of Python ints instead.
Full-period scans always run numpy, so the oracle is a second
implementation of the short checks.

This is the only module that uses numpy, and it imports numpy inside each
kernel entry point rather than at module load: a process that runs no
long scan (``least-period``, ``window-size``, a short ``exact-cover``)
never loads it, and once loaded the import statement is a dictionary
lookup.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from operator import add, sub
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

# window checks of at most this work run on lists: numpy's call overhead
# outweighs its speed below about 2000-2500 on the window benchmark's checks
_LIST_WORK = 2048


def _numerators(groups):
    """(groups, D): the values of ``groups`` (ints or Fractions) as ints
    over their common denominator D."""
    if all(type(v) is int for g in groups for v in g):
        return groups, 1
    D = math.lcm(*{v.denominator for g in groups for v in g})
    return [[v.numerator * (D // v.denominator) for v in g] for g in groups], D


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


def scan(classes, tables, start: int, length: int, char: int = 0):
    """(D * (w - sum of the tables) over [start, start+length), D) as an
    array: w sums the weights of the classes (residues, moduli, weights)
    containing x, a table is one period of values, D is the common
    denominator, and table sums are reduced mod char when char > 0."""
    residues, moduli, weights = classes
    nums, D = _scaled([(w,) for w in weights] + list(tables))
    k = len(weights)
    counts = (residues, moduli, nums[:k], start, length)
    if not tables:
        return cover_counts(*counts), D
    periods = [len(t) for t in tables]
    sums = table_sums(nums, list(accumulate([k] + periods[:-1])), periods, start, length, char)
    if not k:
        sums *= -1
        return sums, D
    # subtracting from the counts saves the pass that negating would take
    out = cover_counts(*counts)
    out -= sums
    return out, D


def _first(start: int, bad):
    return start + int(bad.argmax()) if bad.any() else None


def first_nonzero(classes, tables, start: int, length: int, char: int = 0):
    """First x where :func:`scan` is nonzero, or None."""
    return _first(start, scan(classes, tables, start, length, char)[0] != 0)


def _short(moduli, tables, length: int) -> bool:
    """Whether a window check's work, points + class hits + points per
    distinct table period + table values, is at most _LIST_WORK; the hits
    cost a division per class, so they are counted last."""
    periods = list(map(len, tables))
    work = length * (1 + len(set(periods))) + len(moduli) + sum(periods)
    return work <= _LIST_WORK and work + sum(map(length.__floordiv__, moduli)) <= _LIST_WORK


def _list_window(weights, residues, moduli, rows, start: int, length: int) -> list:
    """The values of :func:`scan`, not reduced mod char, on lists of Python
    ints; weights and rows are already over one denominator."""
    out = [0] * length
    for a, n, w in zip(residues, moduli, weights):
        j = (a - start) % n
        out[j::n] = [v + w for v in out[j::n]]
    folded = {}
    for row in rows:
        n = len(row)
        folded[n] = list(map(add, folded[n], row)) if n in folded else row
    for n, row in folded.items():
        s = start % n
        out = list(map(sub, out, (row[s:] + row[:s]) * (length // n + 1)))
    return out


def window_first_nonzero(classes, tables, start: int, length: int, char: int = 0):
    """:func:`first_nonzero`, on lists when the work is at most _LIST_WORK."""
    residues, moduli, weights = classes
    if not _short(moduli, tables, length):
        return first_nonzero(classes, tables, start, length, char)
    (weights, *rows), _ = _numerators([weights, *tables])
    out = _list_window(weights, residues, moduli, rows, start, length)
    return next((start + j for j, v in enumerate(out) if (v % char if char else v)), None)


def first_below(tables, least: int, start: int, length: int):
    """First x where the sum of the integer tables is below ``least``, or
    None; on lists when the work is at most _LIST_WORK."""
    if not _short((), tables, length):
        return _first(start, scan(((), (), ()), tables, start, length)[0] > -least)
    out = _list_window((), (), (), tables, start, length)
    return next((start + j for j, v in enumerate(out) if v > -least), None)


def exact_sum(arr) -> int:
    """Exact sum of an array: native where no int64 total can wrap (at most
    2**32 values of 32 bits or fewer), else in Python ints."""
    if arr.dtype.kind == "i" and arr.itemsize <= 4 and arr.size <= 2**32:
        return int(arr.sum(dtype="int64"))
    return sum(arr.tolist())
