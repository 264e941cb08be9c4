"""Shared corpus builders for the test suite."""

from __future__ import annotations

import random
import struct
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, inf, lcm

import numpy as np
import pytest

from coverkit import _kernels
from coverkit import (
    ExpSumSequence,
    MultiSequence,
    PeriodicValueTable,
    System,
    WeightedSequence,
    cover_count,
    multidim_value,
)
from coverkit.multidim import vec_divides
from coverkit.numtheory import divisors_of

WEIGHT_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
)


def system_B() -> System:
    return System.of((1, 2), (2, 4), (0, 4))


def system_B_prime() -> System:
    return System.of((1, 2), (2, 4), (4, 6))


def erdos_system(k: int) -> System:
    """{2^(s-1) mod 2^s} for s = 1..k: covers 1..2^k - 1 but no multiple of 2^k."""
    return System.of(*((2 ** (s - 1), 2**s) for s in range(1, k + 1)))


def erdos_cover(k: int) -> System:
    """The same family completed to an exact 1-cover by 0 mod 2^k."""
    seqs = [(2 ** (s - 1), 2**s) for s in range(1, k + 1)] + [(0, 2**k)]
    return System.of(*seqs)


def perturb_last(system: System, n: int) -> System:
    """Replace the last sequence a(m) by (a+m) mod n with n > m: the result
    covers a+1 .. a+2m-1 as often as the original covered everything, but
    not a or a+2m."""
    *rest, last = system.seqs
    if n <= last.modulus:
        raise ValueError("replacement modulus must exceed the last modulus")
    return System(tuple(rest) + (WeightedSequence(last.residue + last.modulus, n),))


def random_unweighted_system(rng: random.Random, k_max: int = 6, n_max: int = 12) -> System:
    k = rng.randint(1, k_max)
    return System.of(*((rng.randrange(n_max), rng.randint(1, n_max)) for _ in range(k)))


def random_weighted_system(rng: random.Random, k_max: int = 5, n_max: int = 10) -> System:
    k = rng.randint(1, k_max)
    return System.of(
        *((rng.randrange(n_max), rng.randint(1, n_max), rng.choice(WEIGHT_POOL)) for _ in range(k))
    )


def random_zero_system(rng: random.Random, k_max: int = 3, n_max: int = 6) -> System:
    """Weighted system whose covering function vanishes identically: a random
    system with every residue of the full period appended at the opposite
    weight."""
    base = random_weighted_system(rng, k_max, n_max)
    N = base.lcm()
    seqs = list(base.seqs)
    from coverkit import cover_values

    for r, w in enumerate(cover_values(base, 0, N)):
        if w != 0:
            seqs.append(WeightedSequence(r, N, -Fraction(w)))
    return System(tuple(seqs))


def sequence_table(a: int, n: int, char: int = 0, weight=1) -> PeriodicValueTable:
    """Indicator table of the residue class a mod n, scaled by weight."""
    values = tuple(weight if x % n == a % n else 0 for x in range(n))
    return PeriodicValueTable(n, values, char)


def random_prime_field_tables(
    rng: random.Random, p: int, k_max: int = 5, n_max: int = 12, force_zero_sum: bool = False
) -> list[PeriodicValueTable]:
    """Random tables over F_p with periods not divisible by p.  When
    ``force_zero_sum`` is set the tables are built in cancelling pairs (a
    table at period n against its negation presented at a multiple of n),
    so the sum is identically zero by construction."""
    allowed = [n for n in range(1, n_max + 1) if n % p != 0]
    if not force_zero_sum:
        k = rng.randint(1, k_max)
        return [
            PeriodicValueTable(n, tuple(rng.randrange(p) for _ in range(n)), p)
            for n in (rng.choice(allowed) for _ in range(k))
        ]
    tables = []
    for _ in range(rng.randint(1, k_max // 2)):
        n = rng.choice(allowed)
        v = [rng.randrange(p) for _ in range(n)]
        stretches = [m for m in allowed if m % n == 0]
        n2 = rng.choice(stretches)
        tables.append(PeriodicValueTable(n, tuple(v), p))
        tables.append(PeriodicValueTable(n2, tuple(-v[x % n] % p for x in range(n2)), p))
    if len(tables) < k_max and rng.random() < 0.5:
        n = rng.choice(allowed)
        tables.append(PeriodicValueTable(n, (0,) * n, p))
    return tables


# multidimensional corpus


def full_residue_group(modulus: tuple[int, ...], weight) -> list[MultiSequence]:
    """Every residue class mod the given vector, all at one weight; the sum
    of their indicators is constant, so appending a group never changes
    which vectors w is periodic mod."""
    return [
        MultiSequence(a, modulus, weight) for a in product(*(range(n) for n in modulus))
    ]


def random_chain_instance(rng: random.Random, l: int, comp_max: int = 6):
    """(seqs, n0, d) with w periodic mod n0 by construction and d a divisor
    vector not dividing n0 but dividing the modulus of an appended full
    residue group; most draws make the counting chain applicable."""
    n0 = tuple(rng.randint(1, comp_max) for _ in range(l))
    seqs: list[MultiSequence] = []
    for _ in range(rng.randint(0, 2)):
        n = tuple(rng.choice(divisors_of(c)) for c in n0)
        a = tuple(rng.randrange(c) for c in n)
        seqs.append(MultiSequence(a, n, rng.choice(WEIGHT_POOL)))
    group_moduli = []
    for _ in range(rng.randint(1, 2)):
        while True:
            nbig = tuple(rng.randint(1, comp_max) for _ in range(l))
            size = 1
            for c in nbig:
                size *= c
            if size <= 24 and not vec_divides(nbig, n0):
                break
        group_moduli.append(nbig)
        seqs.extend(full_residue_group(nbig, rng.choice(WEIGHT_POOL)))
    target = rng.choice(group_moduli)
    while True:
        d = tuple(rng.choice(divisors_of(c)) for c in target)
        if not vec_divides(d, n0):
            return seqs, n0, d


def random_distinct_moduli_instance(rng: random.Random, l: int, comp_max: int = 4):
    """(seqs, n0) with pairwise distinct moduli (so the maximal ones are
    automatically distinct) and nonzero weights."""
    moduli = set()
    while len(moduli) < rng.randint(1, 4):
        moduli.add(tuple(rng.randint(1, comp_max) for _ in range(l)))
    seqs = [
        MultiSequence(
            tuple(rng.randrange(c) for c in n), n, rng.choice(WEIGHT_POOL)
        )
        for n in sorted(moduli)
    ]
    n0 = tuple(rng.randint(1, comp_max) for _ in range(l))
    return seqs, n0


def enumerate_disjoint_covers(k: int, n_max: int):
    """All disjoint covers with exactly k sequences and 1 < n_1 <= ... <= n_k
    <= n_max, by backtracking on residues with pairwise-disjointness pruning.

    A pairwise disjoint system with reciprocal moduli summing to 1 covers
    every integer exactly once (its covering function averages 1 and never
    exceeds it), so no final cover check is needed.
    """
    from itertools import combinations_with_replacement

    covers = []
    for moduli in combinations_with_replacement(range(2, n_max + 1), k):
        if sum(Fraction(1, n) for n in moduli) != 1:
            continue
        chosen: list[int] = []

        def place(i: int):
            if i == k:
                covers.append(System.of(*zip(chosen, moduli)))
                return
            for a in range(moduli[i]):
                if all(
                    (a - b) % gcd(moduli[i], moduli[j]) != 0
                    for j, b in enumerate(chosen)
                ):
                    chosen.append(a)
                    place(i + 1)
                    chosen.pop()

        place(0)
    return covers


# the ways the kernels can run: every answer must be the same under each

# every window check below the guard on numpy, whether numpy is loaded or not
NO_LISTS = {"_LIST_WORK": -1, "_WARM_LIST_WORK": -1}

WIDTH_SETTINGS = {
    # as shipped: short windows and windows past the guard on lists, the
    # rest in the narrowest width; full-period scans past it on digits in
    # the narrowest widths, or on object arrays
    "narrowest": {},
    # every numpy scan (and digit) in int64 up to the guard; windows past it
    # on lists
    "int64-guard": {"_WIDTHS": ((_kernels._INT64_GUARD, "int64"),), **NO_LISTS},
    # every window check with a nonzero value on lists of exact Python ints,
    # every full-period scan with one on numpy object arrays of them
    "guard-1": {"_INT64_GUARD": 1, **NO_LISTS},
}

LIST_SETTINGS = {
    # every window check on lists of Python ints
    "all-lists": {"_LIST_WORK": inf, "_WARM_LIST_WORK": inf},
    # every window check below the guard in numpy, in the narrowest width
    "no-lists": NO_LISTS,
    # as shipped, but numpy reported unloaded: window checks up to the cold
    # crossover _LIST_WORK on lists, as in a fresh CLI process
    "cold": {"_numpy_loaded": lambda: False},
}

SCAN_SETTINGS = {**WIDTH_SETTINGS, **LIST_SETTINGS}


@contextmanager
def kernel_widths(setting: str):
    """Run the enclosed code with the kernels patched to one of
    ``SCAN_SETTINGS``."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SCAN_SETTINGS[setting].items():
            mp.setattr(_kernels, name, value)
        yield


# pointwise and roll-based references for the full-period scans


def table_sums_reference(values, offsets, periods, start: int, length: int, char: int = 0) -> list:
    """The definition of ``_kernels.table_sums`` point by point, in Python
    ints: sum over tables of values[offset + (x mod period)], mod char."""
    vals = [int(v) for v in values]
    out = []
    for x in range(start, start + length):
        total = sum(vals[o + x % n] for o, n in zip(offsets, periods))
        out.append(total % char if char else total)
    return out


# the columns a record derives from its fields, by their definition


def column_reference(values) -> tuple:
    """(nums, D, packed) of a group of exact values: D the lcm of their
    denominators, nums the values times D as Python ints, packed those as
    int64 bytes when every one fits, else None."""
    D = lcm(*(Fraction(v).denominator for v in values))
    nums = [int(Fraction(v) * D) for v in values]
    fits = all(-(2**63) <= v < 2**63 for v in nums)
    return nums, D, struct.pack(f"{len(nums)}q", *nums) if fits else None


def columns_reference(record) -> tuple:
    """What a System (residues, moduli, weight column), a
    PeriodicValueTable (value column) or an ExpSumSequence (term fractions,
    and the level with the sorted (j, step, v) entries of its zero-set
    input) must carry, from its public fields."""
    if isinstance(record, System):
        seqs = record.seqs
        return [s.residue for s in seqs], [s.modulus for s in seqs], column_reference([s.weight for s in seqs])
    if isinstance(record, ExpSumSequence):
        n = record.modulus
        fractions = tuple(sorted({Fraction(t % n, n) for t, _ in record.terms}))
        level = lcm(n, *(c.level for _, c in record.terms))
        # each nonzero coefficient of zeta_c^j sits at j * level/c, and
        # moves by level/n * t mod level per unit of x
        raw = [
            (j * (level // c.level), level // n * t % level, Fraction(v))
            for t, c in record.terms
            for j, v in enumerate(c.coeffs)
            if v
        ]
        den = lcm(*(v.denominator for *_, v in raw))
        return fractions, (level, sorted((j, step, int(v * den)) for j, step, v in raw))
    return column_reference(record.values)


def record_columns(record) -> tuple:
    """The columns ``record`` carries, in the shape of
    :func:`columns_reference`."""

    def group(c):
        return list(c.nums), c.D, c.packed

    if isinstance(record, System):
        residues, moduli, weights = record._classes
        return list(residues), list(moduli), group(weights)
    if isinstance(record, ExpSumSequence):
        level, entries = record._zero_set
        return record._fractions, (level, sorted(entries))
    return group(record._column)


def column_values(group) -> list:
    """The exact values a plan group stands for: a kernel Column's ints
    over its D, or the values given."""
    if isinstance(group, _kernels.Column):
        return [Fraction(v, group.D) if group.D > 1 else v for v in group.nums]
    return list(group)


def plan_reference(groups) -> tuple:
    """(values, D) a plan of ``groups`` of exact values must stand for: all
    of them over the lcm D of every denominator, as Python ints."""
    flat = [Fraction(v) for g in groups for v in g]
    D = lcm(*(v.denominator for v in flat))
    return [int(v * D) for v in flat], D


def indexed_values(classes, tables, start: int, length: int, dtype=np.int64) -> np.ndarray:
    """w(x) - sum of the tables at x for x in [start, start+length), each
    point read by its own index: a class (a, n, w) adds w where
    (x - a) mod n = 0, a table adds its entry at x mod its period.  In
    ``dtype``: int64 is exact while the sums stay within it, object
    always."""
    residues, moduli, weights = classes
    offsets = np.arange(length)
    values = np.zeros(length, dtype=dtype)
    for a, n, w in zip(residues, moduli, weights):
        values[((start - a) % n + offsets) % n == 0] += w
    for t in tables:
        values -= np.array(t, dtype=dtype)[(start % len(t) + offsets) % len(t)]
    return values


def digit_values(digits) -> list:
    """The values a full-period plan's tuple of digit arrays stands for:
    the sum of digit i times 2**(32 i) at each position, in Python ints."""
    return [sum(int(d) << 32 * i for i, d in enumerate(point)) for point in zip(*digits)]


def first_nonzero_reference(values: np.ndarray, start: int, char: int = 0):
    """First start + j with values[j] nonzero (mod char when char > 0), or
    None."""
    hits = np.flatnonzero(values % char if char else values)
    return start + int(hits[0]) if len(hits) else None


def mean_reference(system: System) -> Fraction:
    """Mean of w over one full period, one exact ``cover_count`` per point."""
    N = system.lcm()
    return sum((cover_count(system, x) for x in range(N)), Fraction(0)) / N


def rolled_least_period(table: PeriodicValueTable) -> int:
    """Least d | period with the exact values equal to their copy rolled
    by d."""
    arr = np.array(table.values, dtype=object)
    return next(d for d in divisors_of(table.period) if np.array_equal(arr, np.roll(arr, -d)))


def rolled_periodicity(seqs, n0) -> tuple[bool, tuple | None]:
    """(ok, witness) of periodicity mod n0: the exact values over the box
    (componentwise lcm of n0 and the moduli), compared with the box rolled
    by n0_t along each axis t; the witness is the first mismatch in C order
    and its partner n0_t further along axis t."""
    dims = tuple(lcm(c, *(s.modulus[t] for s in seqs)) for t, c in enumerate(n0))
    box = np.empty(dims, dtype=object)
    for x in product(*map(range, dims)):
        box[x] = multidim_value(seqs, x)
    for t, c in enumerate(n0):
        bad = np.argwhere(box != np.roll(box, -c, axis=t))
        if bad.size:
            x = tuple(int(v) for v in bad[0])
            return False, (x, tuple(v + (c if u == t else 0) for u, v in enumerate(x)))
    return True, None


# references for the factorizer


def prime_sieve(n: int) -> bytearray:
    """sieve[i] is 1 iff i < n is prime (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * n
    sieve[: min(n, 2)] = bytes(min(n, 2))
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return sieve


def trial_division_factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, ascending, by dividing out every
    d = 2, 3, 5, 7, 9, ... up to the square root of what is left."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# reference for the Q(zeta) zero test of coverkit.cyclotomic


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial, constant term first.

    For N > 1, Phi_N = prod over squarefree e | N of (1 - x^(N/e))^mu(e),
    expanded as a power series cut at degree phi(N).  Dividing by 1 - x^d is
    multiplying by 1 + x^d + x^(2d) + ..., so each factor is one pass over
    the coefficients, and a factor with N/e > phi(N) changes none of them.
    """
    if N == 1:
        return (-1, 1)
    deg = N
    squarefree = [(1, 1)]  # (e, mu(e))
    for p, _ in trial_division_factorize(N):
        deg = deg // p * (p - 1)
        squarefree += [(e * p, -mu) for e, mu in squarefree]
    out = [1] + [0] * deg
    for e, mu in squarefree:
        d = N // e
        if d > deg:
            continue
        if mu == 1:
            for i in range(deg, d - 1, -1):
                out[i] -= out[i - d]
        else:
            for i in range(d, deg + 1):
                out[i] += out[i - d]
    return tuple(out)


def vanishes_reference(level: int, terms: dict[int, int]) -> bool:
    """Whether sum c * zeta_level^j over the items (j, c) of ``terms`` is
    zero: the level-long integer vector, long-divided by the monic Phi_level,
    leaves no remainder."""
    ints = [0] * level
    for j, c in terms.items():
        ints[j % level] += c
    phi = cyclotomic_poly(level)
    deg = len(phi) - 1
    lower = [(j, p) for j, p in enumerate(phi[:deg]) if p]
    for i in range(level - 1, deg - 1, -1):
        c = ints[i]
        if c:
            ints[i] = 0
            for j, p in lower:
                ints[i - deg + j] -= c * p
    return not any(ints[:deg])


# Fraction references for the integer sumsets of coverkit.fracsets


def sumset_reference(A, B) -> tuple:
    """{a + b mod 1 : a in A, b in B} by Fraction arithmetic, sorted."""
    return tuple(sorted({(a + b) % 1 for a in A for b in B}))


def subset_sum_set_reference(terms) -> tuple:
    """Fractional parts of all subset sums, one Fraction sumset per term."""
    acc = (Fraction(0),)
    for t in terms:
        acc = sumset_reference(acc, (Fraction(0), Fraction(t) % 1))
    return acc


def window_bound_reference(R_sets, m: int) -> int:
    """Largest Fraction sumset over the index subsets of size k - m + 1."""
    k = len(R_sets)
    best = 0
    for I in combinations(range(k), k - m + 1):
        acc = (Fraction(0),)
        for s in I:
            acc = sumset_reference(acc, R_sets[s])
        best = max(best, len(acc))
    return best
