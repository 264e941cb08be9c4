"""Finite sets of exact fractions in [0,1) and their sumsets modulo 1.

A fraction set is a sorted, duplicate-free tuple of ``fractions.Fraction``
values, each reduced and lying in [0,1).  Sorted tuples (rather than Python
sets) keep every derived quantity deterministic and diff-stable.

Sumsets, subset-sum sets and window bounds put their inputs over one
common denominator D (the lcm of every denominator) once and compute on
plain ints, the residues mod D of the numerators; they build Fractions
only for the sets they return, since every Fraction sum pays a gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .numtheory import divisor_phis

FractionSet = tuple[Fraction, ...]

# window_bound enumerates subsets of the index set; above this many indices
# it refuses rather than approximating
SUBSET_ENUMERATION_CAP = 20

__all__ = [
    "FractionSet",
    "SUBSET_ENUMERATION_CAP",
    "frac_mod1",
    "fraction_set",
    "multiples_set",
    "divisor_union_phis",
    "phi_sum_cardinality",
    "sumset_mod1",
    "subset_sum_set",
    "window_bound",
]


def frac_mod1(x: Fraction | int) -> Fraction:
    """Fractional part of x, as an exact Fraction in [0,1)."""
    return Fraction(x) % 1


def fraction_set(items: Iterable[Fraction | int]) -> FractionSet:
    """Canonicalize an iterable of rationals into a fraction set (mod 1)."""
    return tuple(sorted({frac_mod1(x) for x in items}))


def multiples_set(moduli: list[int]) -> FractionSet:
    """Union over moduli n of {r/n : 0 <= r < n}, reduced and sorted."""
    if not moduli:
        raise ValueError("multiples_set expects a nonempty list")
    out = set()
    for n in set(moduli):
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        for r in range(n):
            out.add(Fraction(r, n))
    return tuple(sorted(out))


def divisor_union_phis(moduli: list[int]) -> dict[int, int]:
    """phi(d) for every d dividing some modulus.

    Only the moduli that divide no other modulus are factorized: every
    divisor of the others divides one of them.
    """
    if not moduli:
        raise ValueError("expected a nonempty list of moduli")
    if min(moduli) < 1:
        raise ValueError(f"moduli must be positive, got {min(moduli)}")
    top: list[int] = []
    for n in sorted(set(moduli), reverse=True):
        if all(m % n for m in top):
            top.append(n)
    out: dict[int, int] = {}
    for n in top:
        out.update(divisor_phis(n))
    return out


def phi_sum_cardinality(moduli: list[int]) -> int:
    """Sum of phi(d) over the union of the divisor sets of the moduli.

    Equals len(multiples_set(moduli)): each reduced fraction c/d with d
    dividing some modulus is counted exactly once.  When the largest
    modulus N is a multiple of all the others, it is their lcm, the union
    is the divisors of N, and the sum is N itself, found without factoring.
    """
    N = max(moduli, default=0)
    if N > 0 and all(n > 0 and N % n == 0 for n in moduli):
        return N
    return sum(divisor_union_phis(moduli).values())


def _over_one_denominator(sets: Iterable[Iterable[Fraction | int]]) -> tuple[int, list[list[int]]]:
    """(D, residues): D the lcm of every denominator in ``sets``, and each
    set's elements as the residues mod D of their numerators over D."""
    sets = [list(s) for s in sets]
    D = math.lcm(*(x.denominator for s in sets for x in s))
    return D, [[x.numerator * (D // x.denominator) % D for x in s] for s in sets]


def _sumset(A: Iterable[int], B: Iterable[int], D: int) -> set[int]:
    """{a + b mod D : a in A, b in B} for residues mod D."""
    return {(a + b) % D for a in A for b in B}


def _fractions(residues: Iterable[int], D: int) -> FractionSet:
    return tuple(Fraction(r, D) for r in sorted(residues))


def sumset_mod1(A: FractionSet, B: FractionSet) -> FractionSet:
    """{a + b mod 1 : a in A, b in B}, sorted and deduplicated."""
    D, (a, b) = _over_one_denominator((A, B))
    return _fractions(_sumset(a, b, D), D)


def subset_sum_set(terms: list[Fraction]) -> FractionSet:
    """Fractional parts of all subset sums of the given terms.

    The empty subset contributes 0, so the result is never empty.
    """
    D, (residues,) = _over_one_denominator([terms])
    acc: Iterable[int] = (0,)
    for t in residues:
        acc = _sumset(acc, (0, t), D)
    return _fractions(acc, D)


def window_bound(R_sets: list[FractionSet], m: int) -> int:
    """Max over index subsets I of size k-m+1 of the sumset cardinality
    |{{sum over s in I of r_s} : r_s in R_sets[s]}|.

    This is the number of consecutive integers that certify an m-fold cover
    by the associated zero sets.  Enumeration is exponential in k, so k
    above SUBSET_ENUMERATION_CAP is rejected outright.
    """
    k = len(R_sets)
    if not 1 <= m <= k:
        raise ValueError(f"m must lie in [1, {k}], got {m}")
    if k > SUBSET_ENUMERATION_CAP:
        raise ValueError(f"too many subsets: k={k} exceeds cap {SUBSET_ENUMERATION_CAP}")
    D, residues = _over_one_denominator(R_sets)
    best = 0
    for I in combinations(residues, k - m + 1):
        acc: Iterable[int] = (0,)
        for R in I:
            acc = _sumset(acc, R, D)
        best = max(best, len(acc))
    return best
