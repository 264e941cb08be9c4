"""Shared corpus builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from coverkit import (
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
