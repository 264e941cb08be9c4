"""Hot scan kernels, and the one place that picks how a scan runs.

The kernels (window covering counts, periodic-table sums, and the first
nonzero of a covering function over a box in Z^l) are the only loops in
the package that touch millions of points.  Every scan first puts its
exact values over a common denominator with :func:`_plan`, which also
decides, once, the path the scan runs on.  Each group of values (the
class weights, each table) is a :class:`Column`: its values as ints over
its own denominator, packed as int64 by one ``struct.pack`` that also
checks each is an int within int64 (a Fraction or a larger int fails it;
ints past int64 are not packed again).  ``System`` and
``PeriodicValueTable`` build theirs once, at construction, with
:func:`column`, so a plan only joins the bytes, and scales a group only
when the groups' denominators differ; no flat list of the values is
built.  From about 20 values the pack beats ``array("q")``: 67 against
150 us for 6000 values in [-9, 9] on a 2-core Xeon VM.  Values and sums
come back over the same D (:func:`exact_values`, :func:`exact_sum`), so
callers compare ints, not Fractions.  A numpy scan gets the narrowest of
int8, int16, int32 and int64 that no kernel sum can leave.  A scan's cost
is memory traffic, so an exact cover whose counts stay below 64 scans
bytes, not words.  The kernels take their dtype from the values they are
given, so every width runs the same code and the ladder and guard change
speed, never answers.

Each scan takes one of two routes, by the kind of answer it returns.  A
window-route scan (every window check, and every read that hands values
of w back to Python, :func:`exact_values`) runs on one fixed-width array,
or on lists of Python ints when its work is too short for numpy to pay
off, or when its values reach the int64 guard, where lists beat numpy
object arrays and digits joined in Python.  Too short is at most
``_LIST_WORK`` while numpy is not yet imported, since a first numpy scan
pays the import, and at most ``_WARM_LIST_WORK`` once it is; the kernels
never import numpy to find out.  Over Q numpy adds each table period's
negated row into the class sums in place; over F_p the table sums are
reduced, then subtracted.  On lists a table whose period divides a
longer one is tiled into it first, so the window is walked once per
maximal table period.
A full-period scan, whose answer stays in numpy (the oracle's searches
and compares, and :func:`exact_sum`), always runs numpy, so the oracle is
a second implementation of every window check.  Past the guard, over Q,
it splits each lone value (a class weight, a constant table) into
base-2**32 digits, runs every digit through the fixed-width kernels, and
recombines the digit sums, with one carry pass in int64 for a search or
a compare and one shift of each digit's sum for :func:`exact_sum` (a scan
is linear: classical multiple precision, Knuth, TAOCP vol. 2, 4.3.1).  A
periodic table goes whole into digit 0; where that reaches the guard, and
over F_p, the scan runs on object arrays of exact Python ints.

A full-period first-nonzero search plans once, folds once and then scans
in chunks: every table and every class goes into one row per maximal
period, and the rows are summed chunk by chunk, from ``_CHUNK`` points
doubling to ``_CHUNK_MAX``, by one :func:`table_sums` call per chunk.
It returns at the first chunk with a nonzero point, so a falsified scan
whose witness comes early touches a few thousand points, not the period.
Every other scan, on either route, runs whole and is not folded.

This is the only module that uses numpy, and it imports numpy inside each
kernel entry point rather than at module load: a process that runs no
long scan (``least-period``, ``window-size``, a short ``exact-cover`` or
``min-window``, a small ``multidim-period``) never loads it, and once
loaded the import statement is a dictionary lookup.
"""

from __future__ import annotations

import math
import struct
import sys
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

# window checks of at most this work run on lists while numpy is not yet
# imported, so short CLI checks never load it (CLI multidim work reaches 1868)
_LIST_WORK = 2048

# once numpy is imported, window checks of at most this work run on lists.
# Warm, lists cost this many times numpy, by work: whole window benchmark
# operations (seed 1, best of 3), and one window_first_nonzero on 4 to 40
# classes (best of 7); 2-core Xeon VM
#
#   work        operations   one scan
#   0-255       0.92         0.63-0.78
#   256-383     -            0.86
#   384-511     0.99         1.00
#   512-767     1.09         1.17-1.24
#   768-1023    1.27         1.43-1.54
#   1024-1535   1.28-1.39    1.62-2.12
#   1536-2047   1.67-1.80    2.25-2.51
_WARM_LIST_WORK = 384

# a periodic row shorter than this is tiled up to it before it is added to
# a window block by block, when the window holds more than this many copies
# of it, or when it is a folded row that every chunk adds
_BLOCK = 2**12

# a full-period first-nonzero search folds its input and runs in chunks
# that start at _CHUNK points and double up to _CHUNK_MAX
_CHUNK = 2**13
_CHUNK_MAX = 2**17


def _pack(values):
    """``values`` packed as int64 bytes by one ``struct.pack``, one C pass
    that also checks each is an int within int64; None when one is not (a
    Fraction, or an int past int64)."""
    try:
        return struct.pack(f"{len(values)}q", *values)
    except struct.error:
        return None


def _numpy_loaded() -> bool:
    """Whether numpy is imported already, so that a scan on it pays no
    import: the one place the kernels ask."""
    return "numpy" in sys.modules


class Column:
    """One group of a scan's values (the class weights, or one table), read
    once: ``nums`` holds them as ints over their common denominator ``D``,
    and ``packed`` those ints as int64 bytes, or None when one is past
    int64.  Its length is that of the group."""

    __slots__ = ("nums", "D", "packed")

    def __init__(self, nums, D: int, packed):
        self.nums, self.D, self.packed = nums, D, packed

    def __len__(self) -> int:
        return len(self.nums)


def column(values, ints: bool = False) -> Column:
    """``values``, ints or Fractions, or integers of any type the pack
    takes, as a :class:`Column`.  Values that pack, or that are all Python
    ints, are kept as they are, over D = 1; ``ints`` says the caller knows
    them to be, which spares a scan of their types when an int past int64
    fails the pack.  Other values go over the lcm D of their denominators,
    and are packed again.  A record builds its columns with this at
    construction, so its checks plan with no work per value."""
    packed = _pack(values)
    if packed is not None or ints or {int}.issuperset(map(type, values)):
        return Column(values, 1, packed)
    D = math.lcm(*{v.denominator for v in values})
    nums = [v.numerator * (D // v.denominator) for v in values]
    return Column(nums, D, _pack(nums))


def _over(group: Column, D: int) -> Column:
    """``group`` with its values over D, a multiple of its own D."""
    scale = D // group.D
    nums = [v * scale for v in group.nums]
    return Column(nums, D, _pack(nums))


def _plan(weights, tables, work, char: int = 0):
    """(nums, D): the class ``weights`` (one column), then the values of the
    ``tables``, as ints over their common denominator D, laid out for the
    path the scan takes, decided here and nowhere else.

    Each group is a :class:`Column`, or values that are made one here; a
    record hands in the columns it built at construction.  D is the lcm of
    the groups' own denominators, and only when it is above 1 is a group
    over a smaller one scaled and packed again; otherwise the groups'
    packed bytes are joined as they are, so a plan does no work per value
    before numpy reads them.

    ``work`` is a window-route scan's work estimate, or None for a
    full-period scan, whose sums are reduced mod ``char`` when it is
    positive.  A window-route scan runs on a list of Python ints when its
    work is at most _LIST_WORK, or at most _WARM_LIST_WORK once numpy is
    imported (:func:`_numpy_loaded`), where numpy's import and call
    overhead outweigh its speed.  Otherwise the sum of each weight's and
    each table's largest scaled magnitude picks the narrowest width of the
    ladder whose bound it stays below, and the values come back as a
    1-tuple of an array in it; a sum of weights and one value from each
    table, or the difference of two such sums, then fits the width.  At or
    past the int64 guard (a group that did not pack is past it) a
    window-route scan runs on a list too, and a full-period scan on the
    tuple of base-2**32 digit arrays of :func:`_digits`, or over F_p, or
    where a digit would reach the guard, on a 1-tuple of a numpy object
    array of exact Python ints.  A list of the values is built only for a
    list, digits or an object array.
    """
    groups = [g if type(g) is Column else column(g) for g in (weights, *tables)]
    D = math.lcm(*(g.D for g in groups))
    if D > 1:
        groups = [g if g.D == D else _over(g, D) for g in groups]
    k = len(weights)
    if work is None or work > (_WARM_LIST_WORK if _numpy_loaded() else _LIST_WORK):
        firsts = list(accumulate(map(len, tables), initial=k))[:-1]
        packed = [g.packed for g in groups]
        nums = None if None in packed else _fixed(b"".join(packed), k, firsts)
        if nums is not None:
            return (nums,), D
    flat = [*chain.from_iterable(g.nums for g in groups)]
    if work is not None:
        return flat, D
    digits = None if char else _digits(flat, k, firsts, tables)
    if digits is None:
        import numpy as np

        digits = (np.array(flat, dtype=object),)
    return digits, D


def _fixed(values, k: int, firsts):
    """``values`` (ints, or their packed int64 bytes) as a numpy array in the
    narrowest width of the ladder that the magnitudes of the first k plus
    the peak of each table from ``firsts`` stay below; None from the guard."""
    import numpy as np

    packed = values if type(values) is bytes else _pack(values)
    if packed is None:  # a value past int64, so past the guard
        return None
    nums = np.frombuffer(packed, dtype=np.int64)
    mags = np.abs(nums).view(np.uint64)  # unsigned, so abs(-2**63) is right
    total = sum(mags[:k].tolist()) + sum(np.maximum.reduceat(mags, firsts).tolist())
    if total < _INT64_GUARD:
        for bound, width in _WIDTHS:
            if total < bound:
                return nums.astype(width, copy=False)
    return None


def _digits(flat, k: int, firsts, tables):
    """The values ``flat`` of k weights and ``tables`` as a tuple of K >= 2
    digit arrays, value = sum of digit i * 2**(32 i), each digit in the
    width :func:`_fixed` gives it; None when a digit reaches the guard.

    Only a lone value (a class weight, or a constant table) is split:
    while it is past 2**32 in magnitude, its digit is the residue in
    [-2**31, 2**31) and the rest moves up, so every digit is at most 2**32
    in magnitude.  A table of more values (a periodic table) goes whole
    into digit 0.  Scans are linear, so each digit runs the kernels on its
    own and :func:`_nonzero` or :func:`exact_sum` recombines their sums;
    splitting a table would cost more than its object array (about 100 ns a
    value).
    """
    split = {}
    for f in chain(range(k), (f for f, t in zip(firsts, tables) if len(t) == 1)):
        if not -(2**32) <= flat[f] <= 2**32:
            v, split[f] = flat[f], []
            while not -(2**32) <= v <= 2**32:
                d = ((v + 2**31) & 0xFFFFFFFF) - 2**31
                split[f].append(d)
                v = (v - d) >> 32
            split[f].append(v)
    if not split:
        return None  # digit 0 would hold every value whole
    K = max(map(len, split.values()))
    rows = [list(flat)] + [[0] * len(flat) for _ in range(K - 1)]
    for f, parts in split.items():
        for row, d in zip(rows, parts):
            row[f] = d
    digits = []
    for row in rows:
        digits.append(_fixed(row, k, firsts))
        if digits[-1] is None:
            return None
    return tuple(digits)


def _nonzero(sums):
    """An array that is nonzero exactly where the value sum S_i * 2**(32 i)
    of the digit sums ``sums`` is (the sums themselves for one digit): the
    carries pass up in int64, and the value is zero exactly where the K - 1
    low digits, in [0, 2**32), and the signed top all are."""
    if len(sums) == 1:
        return sums[0]
    import numpy as np

    low, carry = 0, 0
    for s in sums[:-1]:
        # |S_i| < 2**62 and |carry| < 2**31, so no step wraps
        t = s.astype(np.int64, copy=False) + carry
        low = low | t & 0xFFFFFFFF
        carry = t >> 32
    return (sums[-1] + carry) | low


def cover_counts(residues, moduli, weights, start: int, length: int) -> np.ndarray:
    """Array of sum(weights[s] : x = residues[s] mod moduli[s]) for x in
    [start, start+length), in the dtype of ``weights``."""
    import numpy as np

    weights = np.asarray(weights)
    out = np.zeros(length, dtype=weights.dtype)
    # a view adds in place with no write back, and a weight as a scalar of
    # the array's own dtype adds with no conversion of a Python int
    for a, n, w in zip(residues, moduli, weights):
        view = out[(a - start) % n :: n]
        view += w
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
    nums, _ = _plan(weights, (), points + hits)
    if type(nums) is not list:
        # a window plan is one digit; argmax stops at the first True, and
        # is 0 when there is none
        bad = _box_counts(residues, moduli, nums[0], dims).ravel() != 0
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


def _homes(periods) -> dict:
    """period -> the first maximal period, from the top, that it divides."""
    maximal, home = [], {}
    for n in sorted(set(periods), reverse=True):
        home[n] = next((M for M in maximal if M % n == 0), n)
        if home[n] == n:
            maximal.append(n)
    return home


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
    saves.  A row of period 1 is added as one scalar.  No index array is
    built.
    """
    import numpy as np

    length = len(out)
    for n, row in rows.items():
        if n == 1:
            out += row[0]
            continue
        s = start % n
        if n * _BLOCK < length:
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


def _values(classes, tables, start: int, length: int, char: int):
    """(D * (w - sum of the tables) over [start, start+length), D): w sums
    the weights of the classes (residues, moduli, weights) containing x, a
    table is one period of values, and D is the common denominator.  The
    scan takes the window route, on the path :func:`_plan` picks from its
    work: a list of Python ints, not reduced, or one fixed-width array,
    whose table sums are reduced mod char when char > 0."""
    residues, moduli, weights = classes
    k = len(weights)
    periods = list(map(len, tables))
    offsets = list(accumulate(periods, initial=k))
    # points + class hits + points per distinct table period + table values
    hits = len(moduli) + sum(map(length.__floordiv__, moduli))
    nums, D = _plan(weights, tables, length * (1 + len(set(periods))) + hits + sum(periods))
    if type(nums) is tuple:
        (nums,) = nums  # a window plan is one digit
        out = cover_counts(residues, moduli, nums[:k], start, length)
        if char:
            out -= table_sums(nums, offsets, periods, start, length, char)
        elif tables:
            rows = _by_period(nums, offsets, periods)
            _add_periodic(out, {n: -row for n, row in rows.items()}, start)
        return out, D
    out = [0] * length
    for a, n, w in zip(residues, moduli, nums):
        j = (a - start) % n
        out[j::n] = map(w.__add__, out[j::n])
    # each table tiled into its home maximal period: one walk per home
    home = _homes(periods)
    folded = {}
    for off, n in zip(offsets, periods):
        M = home[n]
        row = nums[off : off + n] * (M // n)
        folded[M] = list(map(add, folded[M], row)) if M in folded else row
    for n, row in folded.items():
        s = start % n
        out = list(map(sub, out, (row[s:] + row[:s]) * (length // n + 1)))
    return out, D


def _first_where(test, bound, classes, tables, start: int, length: int, char: int):
    """First x in [start, start+length) whose value v of a window check's
    :func:`_values`, reduced mod char when char > 0, has test(v, bound), or
    None: the one search of window checks."""
    out, _ = _values(classes, tables, start, length, char)
    if type(out) is list:
        if char:
            out = map(char.__rmod__, out)
        return next(compress(count(start), map(test, out, repeat(bound))), None)
    bad = test(out, bound)
    i = int(bad.argmax())  # the first True, or 0 when there is none
    return start + i if bad[i] else None


def _fold(classes, periods, nums):
    """(values, offsets, periods): one digit of the input of a full-period
    scan, as planned by :func:`_plan`, folded for a chunked search by
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

    residues, moduli, _ = classes
    k = len(moduli)
    home = _homes([*periods, *moduli])
    maximal = [n for n, M in home.items() if n == M]
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
    """First x where :func:`exact_values` is nonzero, or None; always on
    numpy.

    The search plans once, folds each digit of its input once
    (:func:`_fold`) and scans them in chunks of _CHUNK points, doubling up
    to _CHUNK_MAX, each one :func:`table_sums` call per digit, so a search
    of at most _CHUNK points is one chunk; it returns at the first chunk
    with a nonzero point, so a scan that fails early touches few points.
    """
    import numpy as np

    periods = list(map(len, tables))
    nums, _ = _plan(classes[2], tables, None, char)
    folded = [_fold(classes, periods, digit) for digit in nums]
    pos, chunk = 0, _CHUNK
    while pos < length:
        chunk = min(chunk, length - pos)
        out = _nonzero([table_sums(*rows, start + pos, chunk, char) for rows in folded])
        # one count beats any() on object arrays (57 against 126 us at 8192)
        if np.count_nonzero(out):
            return start + pos + int((out != 0).argmax())
        pos += chunk
        chunk = min(2 * chunk, _CHUNK_MAX)
    return None


def first_period(values, periods):
    """First d of ``periods`` with values[x] == values[x + d] for all
    x < N - d, N = len(values), or None: for d dividing N, periodicity mod
    d, since the wrapped pairs follow by going round the cycle."""
    nums, _ = _plan((), [values], None)
    N = len(values)
    return next((d for d in periods if all((v[d:] == v[: N - d]).all() for v in nums)), None)


def box_first_mismatch(classes, dims, shifts):
    """(t, x): the first axis t, and the first x in C order on it, where w
    of the classes differs at x and at x + shifts[t] * e_t, both in the box
    [0, dims); or None.  Each digit's box of D * w compares its slice
    [0, dims_t - shifts_t) with its slice [shifts_t, dims_t) on axis t."""
    residues, moduli, weights = classes
    nums, _ = _plan(weights, (), None)
    boxes = [_box_counts(residues, moduli, digit, dims) for digit in nums]
    for t, h in enumerate(shifts):
        head = (slice(None),) * t
        ahead, behind = head + (slice(h, None),), head + (slice(0, dims[t] - h),)
        bad = _nonzero([box[behind] - box[ahead] for box in boxes]) != 0
        if bad.any():
            return t, _unravel(int(bad.argmax()), bad.shape)
    return None


def window_first_nonzero(classes, tables, start: int, length: int, char: int = 0):
    """:func:`first_nonzero` of a window check, on the path :func:`_plan`
    picks."""
    return _first_where(ne, 0, classes, tables, start, length, char)


def first_below(tables, least: int, start: int, length: int):
    """First x where the sum of the integer tables is below ``least``, or
    None; a window check, on the path :func:`_plan` picks."""
    return _first_where(gt, -least, ((), (), ()), tables, start, length, 0)


def _sum(arr) -> int:
    """Exact sum of an array: natively for an int array where no int64
    total can wrap (its size times its largest magnitude, or the dtype's
    bound on it below 64 bits, is below 2**63); else in Python ints."""
    if arr.dtype.kind == "i" and arr.size:
        peak = 1 << 8 * arr.itemsize - 1 if arr.itemsize < 8 else max(-int(arr.min()), int(arr.max()))
        if arr.size * peak < 2**63:
            return int(arr.sum(dtype="int64"))
    return sum(arr.tolist())


def exact_sum(classes, start: int, length: int):
    """(sum, D): the exact sum of D * w over [start, start+length), on the
    full-period plan: each digit's cover counts summed by :func:`_sum` and
    shifted into place."""
    residues, moduli, weights = classes
    nums, D = _plan(weights, (), None)
    sums = (cover_counts(residues, moduli, digit, start, length) for digit in nums)
    return sum(_sum(s) << 32 * i for i, s in enumerate(sums)), D


def exact_values(classes, start: int, length: int):
    """(D * w over [start, start+length) as Python ints, D): the window
    route of :func:`_values`, a list as it is or one array's ``tolist``."""
    out, D = _values(classes, (), start, length, 0)
    return (out if type(out) is list else out.tolist()), D
