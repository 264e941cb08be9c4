"""Finite sets of exact fractions in [0,1) and their sumsets modulo 1.

A fraction set is a sorted, duplicate-free tuple of ``fractions.Fraction``
values, each reduced and lying in [0,1).  Sorted tuples (rather than Python
sets) keep every derived quantity deterministic and diff-stable.

Sumsets, subset-sum sets and window bounds put their inputs over one
common denominator D (the lcm of every denominator) once and compute on
plain ints, the residues mod D of the numerators; they build Fractions
only for the sets they return, since every Fraction sum pays a gcd.

Window lengths are sizes of unions of the subgroups (1/n)Z/Z; they come
from gcds by inclusion-exclusion, with no factoring.  Only
divisor_union_phis, which lists the denominators themselves, factorizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
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


def _maximal(moduli: Iterable[int]) -> list[int]:
    """The distinct moduli that divide no other one, in descending order."""
    top: list[int] = []
    for n in sorted(set(moduli), reverse=True):
        for m in top:
            if m % n == 0:
                break
        else:
            top.append(n)
    return top


def _checked_maximal(moduli: list[int]) -> list[int]:
    """_maximal of a caller's moduli, refusing an empty list and moduli below 1."""
    if not moduli:
        raise ValueError("expected a nonempty list of moduli")
    if min(moduli) < 1:
        raise ValueError(f"moduli must be positive, got {min(moduli)}")
    return _maximal(moduli)


def divisor_union_phis(moduli: list[int]) -> dict[int, int]:
    """phi(d) for every d dividing some modulus.

    Only the moduli that divide no other modulus are factorized: every
    divisor of the others divides one of them.
    """
    out: dict[int, int] = {}
    for n in _checked_maximal(moduli):
        out.update(divisor_phis(n))
    return out


def phi_sum_cardinality(moduli: list[int]) -> int:
    """Sum of phi(d) over the union of the divisor sets of the moduli.

    Equals len(multiples_set(moduli)), the size of the union of the
    subgroups (1/n)Z/Z: each reduced fraction c/d with d dividing some
    modulus is counted exactly once.  Nothing is factorized: the size
    comes from gcds by inclusion-exclusion (see _union_size).
    """
    return _union_size(_checked_maximal(moduli))


def _union_size(top: list[int]) -> int:
    """|union of (1/n)Z/Z over n in top|, for moduli in descending order
    none of which divides another.

    (1/a)Z/Z meets (1/b)Z/Z in (1/gcd(a,b))Z/Z, so adding n_i to the union
    of n_1 .. n_(i-1) adds n_i points minus the size of the union over the
    gcd(n_i, n_j), j < i, which recurses on the maximal ones among them.
    """
    total = 0
    for i, n in enumerate(top):
        total += n
        if i:
            common = _maximal(map(math.gcd, top[:i], repeat(n)))
            total -= _union_size(common)
    return total


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

    The subsets are walked depth-first, largest sets first, and each
    prefix sumset is built once and shared by every subset that extends
    it.  A sumset has at most D elements (D the common denominator) and at
    most |acc| times the sizes of the sets still to be added, so a branch
    whose bound min(D, |acc| * the product of the next sizes) is at most
    the best so far is cut, which stops the walk once best = D.  Equal sets
    are tried once at each depth, and a branch left with one subset takes
    it with no further bound.  The cost follows the nodes visited: a
    saturating family is answered at the first leaf.
    """
    k = len(R_sets)
    if not 1 <= m <= k:
        raise ValueError(f"m must lie in [1, {k}], got {m}")
    if k > SUBSET_ENUMERATION_CAP:
        raise ValueError(f"too many subsets: k={k} exceeds cap {SUBSET_ENUMERATION_CAP}")
    D, residues = _over_one_denominator(R_sets)
    # descending by size, equal sets side by side
    sets = sorted(sorted(residues, reverse=True), key=len, reverse=True)
    sizes = list(map(len, sets))
    best = 0

    def visit(acc, i: int, need: int) -> None:
        nonlocal best
        if not need or i + need == k:
            # one subset left: take the sets in order
            for R in sets[i : i + need]:
                acc = _sumset(acc, R, D)
            best = max(best, len(acc))
            return
        for j in range(i, k - need + 1):
            # sizes descend, so no later j has a larger bound than this one;
            # no bound passes D, so once best = D every branch is cut
            if min(D, len(acc) * math.prod(sizes[j : j + need])) <= best:
                return
            if j == i or sets[j] != sets[j - 1]:
                visit(_sumset(acc, sets[j], D), j + 1, need - 1)

    visit((0,), 0, k - m + 1)
    return best
