"""Hot scan kernels, and the one place that picks how a scan runs.

The kernels (window covering counts, periodic-table sums, and the first
nonzero of a covering function over a box in Z^l) are the only loops in
the package that touch millions of points.  Every scan first puts its
exact values over a common denominator with :func:`_plan`, which also
decides, once, the path the scan runs on.  A numpy scan gets the narrowest
of int8, int16, int32 and int64 that no kernel sum can leave.  A scan's
cost is memory traffic, so an exact cover whose counts stay below 64 scans
bytes, not words.  The kernels take their dtype from the values they are
given, so every width runs the same code and the ladder and guard change
speed, never answers.

A window check runs on lists of Python ints instead when its work is at
most ``_LIST_WORK``, too short for numpy to pay off, or when its values
reach the int64 guard, where lists beat numpy object arrays.  Full-period
scans always run numpy, on object arrays of exact Python ints past the
guard, so the oracle is a second implementation of every window check.

A full-period first-nonzero search plans once, folds once and then scans
in chunks: every table and every class goes into one row per maximal
period, and the rows are summed chunk by chunk, from ``_CHUNK`` points
doubling to ``_CHUNK_MAX``, by one :func:`table_sums` call per chunk.
It returns at the first chunk with a nonzero point, so a falsified scan
whose witness comes early touches a few thousand points, not the period.
Window checks and :func:`scan` run whole and are not folded.

This is the only module that uses numpy, and it imports numpy inside each
kernel entry point rather than at module load: a process that runs no
long scan (``least-period``, ``window-size``, a short ``exact-cover``, a
small ``multidim-period``) never loads it, and once loaded the import
statement is a dictionary lookup.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, chain, compress, count, repeat
from operator import add, floordiv, gt, mul, ne, sub
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

# a periodic row shorter than this is tiled up to it before it is added to
# a window block by block, when the window holds more than this many copies
# of it, or when it is a folded row that every chunk adds
_BLOCK = 2**12

# a full-period first-nonzero search folds its input and runs in chunks
# that start at _CHUNK points and double up to _CHUNK_MAX
_CHUNK = 2**13
_CHUNK_MAX = 2**17


def _plan(groups, work):
    """(nums, D): the values of ``groups`` (ints or Fractions) as ints over
    their common denominator D, in group order, laid out for the path the
    scan takes, which is decided here and nowhere else.

    ``work`` is a window check's work estimate, or None for a full-period
    scan.  A window check runs on a list of Python ints when its work is at
    most _LIST_WORK, where numpy's call overhead outweighs its speed.
    Otherwise the sum over groups of each group's largest scaled magnitude
    picks the narrowest width of the ladder whose bound it stays below, and
    the values come back as an array in it; a sum of one value from each
    group, or the difference of two such sums, then fits the width.  At or
    past the int64 guard a window check runs on a list of exact Python ints
    too, and a full-period scan on a numpy object array of them.
    """
    flat = list(chain.from_iterable(groups))
    D = 1
    try:
        # one C pass checks that every value is an int within int64 and
        # packs it: a Fraction raises TypeError, a larger int OverflowError
        packed = array("q", flat)
    except (TypeError, OverflowError):
        # Fractions, or ints past int64: exact Python ints over D
        packed = None
        if not {int}.issuperset(map(type, flat)):
            D = math.lcm(*{v.denominator for v in flat})
            flat = [v.numerator * (D // v.denominator) for v in flat]
    if work is not None and work <= _LIST_WORK:
        return flat, D
    import numpy as np

    try:
        nums = np.frombuffer(array("q", flat) if packed is None else packed, dtype=np.int64)
    except OverflowError:  # a value past int64, so past the guard
        total = _INT64_GUARD
    else:
        # the largest magnitude in each group (unsigned, so abs(-2**63) is right)
        firsts = list(accumulate(map(len, groups[:-1]), initial=0))
        total = sum(np.maximum.reduceat(np.abs(nums).view(np.uint64), firsts).tolist())
    if total < _INT64_GUARD:
        for bound, width in _WIDTHS:
            if total < bound:
                return nums.astype(width, copy=False), D
    return (flat if work is not None else np.array(flat, dtype=object)), D


def _scaled(groups):
    """(nums, D): the values of ``groups`` over their common denominator D
    as one flat array for a full-period scan, which always runs numpy: in
    the narrowest width of the ladder, or an object array of exact Python
    ints past the guard (:func:`_plan`)."""
    return _plan(groups, None)


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
    moduli[s] componentwise), in the dtype of ``weights``, for x in the box
    [0, dims); the sides need not be multiples of the moduli."""
    import numpy as np

    weights = np.asarray(weights)
    out = np.zeros(dims, dtype=weights.dtype)
    for a, n, w in zip(residues, moduli, weights):
        out[tuple(slice(at, None, nt) for at, nt in zip(a, n))] += w
    return out


def _unravel(index: int, shape) -> tuple[int, ...]:
    """The point at flat C-order position ``index`` of a box of this shape."""
    out = []
    for side in reversed(shape):
        index, c = divmod(index, side)
        out.append(c)
    return tuple(reversed(out))


def _flat(axes, strides) -> list[int]:
    """Flat positions, in C order, of the points of the product of ``axes``
    (one sequence of coordinates per axis) in a box of these strides."""
    out = [0]
    for coords, stride in zip(axes, strides):
        out = [i + c * stride for i in out for c in coords]
    return out


def box_first_nonzero(classes, dims):
    """First x in C order of the box [0, dims) where w of the classes
    (residues, moduli, weights) is nonzero, or None.  The values are D * w,
    on the path :func:`_plan` picks from the work of filling the box, its
    points plus the class hits."""
    residues, moduli, weights = classes
    points = math.prod(dims)
    hits = len(moduli) + sum(math.prod(map(floordiv, dims, n)) for n in moduli)
    nums, _ = _plan([*zip(weights)], points + hits)
    if type(nums) is not list:
        # argmax stops at the first True, and is 0 when there is none
        bad = _box_counts(residues, moduli, nums, dims).ravel() != 0
        i = int(bad.argmax())
        return _unravel(i, dims) if bad[i] else None
    strides = list(accumulate(reversed(dims[1:]), mul, initial=1))[::-1]
    flat = [0] * points
    for a, n, w in zip(residues, moduli, nums):
        for i in _flat(map(range, a, dims, n), strides):
            flat[i] += w
    i = next(compress(count(), flat), None)
    return None if i is None else _unravel(i, dims)


def _by_period(vals, offsets, periods) -> dict:
    """period -> the sum of the tables of that period, each one period of
    ``vals`` from its offset."""
    rows = {}
    for off, n in zip(offsets, periods):
        off, n = int(off), int(n)
        row = vals[off : off + n]
        rows[n] = rows[n] + row if n in rows else row
    return rows


def _tiled_length(n: int) -> int:
    """The length a row of period n is tiled up to before it is added block
    by block: the least multiple of n that is at least _BLOCK when
    1 < n < _BLOCK, else n itself (a row of period 1 is added as a
    scalar)."""
    return -(-_BLOCK // n) * n if 1 < n < _BLOCK else n


def _add_periodic(out, rows, start: int) -> None:
    """out[j] += row[(start + j) mod n] for each row of ``rows`` (period n
    -> one period of values), in place.

    Each row is added as its slice from entry start mod n to its end, then
    as whole copies broadcast over a block view of ``out``, then as the
    head that is left, so a row at least as long as ``out`` is one or two
    slices.  A row that ``out`` holds more than _BLOCK copies of is first
    tiled up to _BLOCK values (:func:`_tiled_length`): a broadcast over
    blocks of a few values costs 5 to 50 times one over blocks of
    thousands, while over fewer blocks the tiling costs more than it
    saves.  No index array is built.
    """
    import numpy as np

    length = len(out)
    for n, row in rows.items():
        s = start % n
        if 1 < n and n * _BLOCK < length:
            # still periodic with n, so s stays its rotation
            tiled = _tiled_length(n)
            row = np.tile(row, tiled // n)
            n = tiled
        head = row[s : s + length]
        out[: len(head)] += head
        at = len(head)
        full = (length - at) // n
        if full:
            # a view, since out is contiguous: adding to it adds to out
            blocks = out[at : at + full * n].reshape(full, n)
            blocks += row
            at += full * n
        if at < length:
            out[at:] += row[: length - at]


def table_sums(values, offsets, periods, start: int, length: int, char: int = 0) -> np.ndarray:
    """Array of sum over tables s of values[offsets[s] + (x mod periods[s])]
    for x in [start, start+length), in the dtype of ``values``, reduced mod
    char when char > 0 (values are then field elements, in [0, char)).

    Tables of one period are summed into one row first, and each row is
    added to the window by :func:`_add_periodic`.
    """
    import numpy as np

    vals = np.asarray(values)
    out = np.zeros(length, dtype=vals.dtype)
    _add_periodic(out, _by_period(vals, offsets, periods), start)
    # nonnegative sums of a fixed width of b bits are below 2**(b-1), so a
    # char at or past that (which the width may not even hold) leaves them
    # reduced already
    if char > 0 and (out.dtype == object or char < 1 << 8 * out.itemsize - 1):
        # the sums are nonnegative, so x - (x // char) * char is x mod char
        # and no step wraps; numpy divides a fixed width by a scalar 1.7
        # (int64) to 14 (int8) times faster than it takes %
        quotient = out // char
        quotient *= char
        out -= quotient
    return out


def _values(classes, tables, start: int, length: int, char: int, window: bool):
    """(D * (w - sum of the tables) over [start, start+length), D): w sums
    the weights of the classes (residues, moduli, weights) containing x, a
    table is one period of values, and D is the common denominator.  On
    numpy the table sums are reduced mod char when char > 0; on lists the
    values are not reduced.  A window check runs on the path :func:`_plan`
    picks from its work; a full-period scan always runs numpy."""
    residues, moduli, weights = classes
    periods = list(map(len, tables))
    offsets = list(accumulate(periods, initial=len(weights)))
    groups = [*zip(weights), *tables]
    if window:
        # points + class hits + points per distinct table period + table values
        hits = len(moduli) + sum(map(length.__floordiv__, moduli))
        nums, D = _plan(groups, length * (1 + len(set(periods))) + hits + sum(periods))
    else:
        nums, D = _scaled(groups)
    if type(nums) is not list:
        out = cover_counts(residues, moduli, nums[: len(weights)], start, length)
        if tables:
            out -= table_sums(nums, offsets, periods, start, length, char)
        return out, D
    out = [0] * length
    for a, n, w in zip(residues, moduli, nums):
        j = (a - start) % n
        out[j::n] = map(w.__add__, out[j::n])
    folded = {}
    for off, n in zip(offsets, periods):
        row = nums[off : off + n]
        folded[n] = list(map(add, folded[n], row)) if n in folded else row
    for n, row in folded.items():
        s = start % n
        out = list(map(sub, out, (row[s:] + row[:s]) * (length // n + 1)))
    return out, D


def scan(classes, tables, start: int, length: int, char: int = 0):
    """(D * (w - sum of the tables) over [start, start+length), D) as an
    array (:func:`_values` of a full-period scan)."""
    return _values(classes, tables, start, length, char, False)


def _first_where(test, bound, classes, tables, start: int, length: int, char: int):
    """First x in [start, start+length) whose value v of a window check's
    :func:`_values`, reduced mod char when char > 0, has test(v, bound), or
    None: the one search of window checks."""
    out, _ = _values(classes, tables, start, length, char, True)
    if type(out) is list:
        if char:
            out = map(char.__rmod__, out)
        return next(compress(count(start), map(test, out, repeat(bound))), None)
    bad = test(out, bound)
    return start + int(bad.argmax()) if bad.any() else None


def _fold(classes, tables):
    """(values, offsets, periods): the input of a full-period scan, planned
    once by :func:`_scaled`, folded for a chunked search by
    :func:`table_sums`.

    There is one row per maximal period of the tables and the moduli: the
    sum of every table whose period divides it, tiled into it, minus the
    weight of every class whose modulus n divides it, at every n-th entry
    from its residue.  Every class folds, on a fixed width or on object
    arrays, and whatever its modulus.  A row shorter than _BLOCK is tiled
    up to it (:func:`_tiled_length`).  The rows' table sums are then
    D * (sum of the tables - w).
    """
    import numpy as np

    residues, moduli, weights = classes
    k = len(weights)
    periods = list(map(len, tables))
    nums, _ = _scaled([*zip(weights), *tables])
    # period -> the first maximal period, from the top, that it divides
    maximal, home = [], {}
    for n in sorted({*periods, *moduli}, reverse=True):
        home[n] = next((M for M in maximal if M % n == 0), n)
        if home[n] == n:
            maximal.append(n)
    lengths = list(map(_tiled_length, maximal))
    offsets = list(accumulate(lengths[:-1], initial=0))
    # maximal period -> its row, a view of one flat array
    flat = np.zeros(sum(lengths), dtype=nums.dtype)
    row_of = {M: flat[o : o + m] for M, o, m in zip(maximal, offsets, lengths)}
    for n, row in _by_period(nums, accumulate(periods, initial=k), periods).items():
        _add_periodic(row_of[home[n]], {n: row}, 0)
    for a, n, w in zip(residues, moduli, nums[:k]):
        row_of[home[n]][a % n :: n] -= w
    return flat, offsets, lengths


def first_nonzero(classes, tables, start: int, length: int, char: int = 0):
    """First x where :func:`scan` is nonzero, or None; always on numpy.

    The search folds its input once (:func:`_fold`) and scans it in chunks
    of _CHUNK points, doubling up to _CHUNK_MAX, each one :func:`table_sums`
    call, so a search of at most _CHUNK points is one chunk; it returns at
    the first chunk with a nonzero point, so a scan that fails early
    touches few points.
    """
    rows = _fold(classes, tables)
    pos, chunk = 0, _CHUNK
    while pos < length:
        chunk = min(chunk, length - pos)
        out = table_sums(*rows, start + pos, chunk, char)
        if out.any():
            return start + pos + int((out != 0).argmax())
        pos += chunk
        chunk = min(2 * chunk, _CHUNK_MAX)
    return None


def window_first_nonzero(classes, tables, start: int, length: int, char: int = 0):
    """:func:`first_nonzero` of a window check, on the path :func:`_plan`
    picks."""
    return _first_where(ne, 0, classes, tables, start, length, char)


def first_below(tables, least: int, start: int, length: int):
    """First x where the sum of the integer tables is below ``least``, or
    None; a window check, on the path :func:`_plan` picks."""
    return _first_where(gt, -least, ((), (), ()), tables, start, length, 0)


def exact_sum(arr) -> int:
    """Exact sum of an array: native where no int64 total can wrap (at most
    2**32 values of 32 bits or fewer), else in Python ints."""
    if arr.dtype.kind == "i" and arr.itemsize <= 4 and arr.size <= 2**32:
        return int(arr.sum(dtype="int64"))
    return sum(arr.tolist())
