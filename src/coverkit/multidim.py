"""Weighted covering functions on Z^l with componentwise divisibility.

Vectors are plain int tuples; d | y means each component of d divides the
matching component of y.  The covering function of a family of weighted
multidimensional residue classes is scanned exhaustively over one period
box (the componentwise lcm of all moduli and the candidate period), which
anchors both the periodicity test and the divisibility inequality chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .covering import _oracle_points
from .fracsets import FractionSet, fraction_set
from .numtheory import least_prime_factor

IntVector = tuple[int, ...]

__all__ = [
    "IntVector",
    "MultiSequence",
    "PeriodicityVerdict",
    "DivisibilityChainReport",
    "vec_divides",
    "multidim_value",
    "is_periodic_mod_vec",
    "divisibility_chain_report",
    "decide_periodic_by_divisibility",
]


@dataclass(frozen=True)
class MultiSequence:
    """Residue class a + n*Z^l (componentwise) with an exact rational weight."""

    residue: IntVector
    modulus: IntVector
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        if len(self.residue) != len(self.modulus) or not self.modulus:
            raise ValueError("residue and modulus must share a positive dimension")
        if any(n < 1 for n in self.modulus):
            raise ValueError(f"modulus components must be positive, got {self.modulus}")
        object.__setattr__(
            self, "residue", tuple(a % n for a, n in zip(self.residue, self.modulus))
        )
        object.__setattr__(self, "modulus", tuple(self.modulus))
        object.__setattr__(self, "weight", Fraction(self.weight))

    @property
    def dim(self) -> int:
        return len(self.modulus)

    def contains(self, x: IntVector) -> bool:
        return all((xt - at) % nt == 0 for xt, at, nt in zip(x, self.residue, self.modulus))


def _check_dims(seqs: Sequence[MultiSequence], *vecs: IntVector) -> int:
    if not seqs:
        raise ValueError("need at least one sequence")
    l = seqs[0].dim
    if any(s.dim != l for s in seqs):
        raise ValueError("sequences must share one dimension")
    for v in vecs:
        if len(v) != l:
            raise ValueError(f"vector {v} does not match dimension {l}")
    return l


def vec_divides(d: IntVector, y: IntVector) -> bool:
    """Componentwise divisibility: every d_t divides y_t."""
    if len(d) != len(y):
        raise ValueError("vectors must share a dimension")
    return all(yt % dt == 0 for dt, yt in zip(d, y))


def multidim_value(seqs: Sequence[MultiSequence], x: IntVector) -> Fraction:
    """w(x): exact sum of the weights of the classes containing x."""
    _check_dims(seqs, x)
    return sum((s.weight for s in seqs if s.contains(x)), Fraction(0))


@dataclass(frozen=True)
class PeriodicityVerdict:
    ok: bool
    witness: tuple[IntVector, IntVector] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _box_dims(seqs: Sequence[MultiSequence], n0: IntVector) -> tuple[int, ...]:
    l = len(n0)
    return tuple(
        math.lcm(n0[t], *(s.modulus[t] for s in seqs)) for t in range(l)
    )


def _box_array(seqs: Sequence[MultiSequence], dims: tuple[int, ...]) -> np.ndarray:
    """D * w over the box, D the weights' common denominator: int64 when
    the scaled weights provably sum inside it, exact Python ints otherwise."""
    nums, _ = _kernels._scaled([(s.weight,) for s in seqs])
    out = np.zeros(dims, dtype=nums.dtype)
    for s, num in zip(seqs, nums):
        # each box side is a multiple of the class modulus on that side
        out[tuple(slice(a, None, n) for a, n in zip(s.residue, s.modulus))] += num
    return out


def is_periodic_mod_vec(seqs: Sequence[MultiSequence], n0: IntVector) -> PeriodicityVerdict:
    """Exhaustively decide whether w is periodic modulo n0.

    Scans one full period box (componentwise lcm of n0 and all moduli) and
    compares w(x) with w(x + n0_t * e_t) for every coordinate t.  Along
    axis t that is the slice [0, dims_t - n0_t) against the slice
    [n0_t, dims_t): dims_t is a multiple of n0_t, so the pairs that wrap
    round the box follow from these by going round the cycle, and the
    first mismatch in C order (the witness x) never wraps.  The box may not
    exceed the oracle cap.
    """
    l = _check_dims(seqs, n0)
    if any(c < 1 for c in n0):
        raise ValueError(f"period components must be positive, got {n0}")
    dims = _box_dims(seqs, n0)
    _oracle_points(math.prod(dims), "box")
    box = _box_array(seqs, dims)
    for t in range(l):
        head = (slice(None),) * t
        bad = box[head + (slice(0, dims[t] - n0[t]),)] != box[head + (slice(n0[t], None),)]
        if bad.any():
            x = tuple(int(c) for c in np.unravel_index(bad.argmax(), bad.shape))
            y = tuple(c + (n0[t] if u == t else 0) for u, c in enumerate(x))
            return PeriodicityVerdict(False, (x, y))
    return PeriodicityVerdict(True)


@dataclass(frozen=True)
class DivisibilityChainReport:
    """Outcome of the divisor-vector counting bound.

    When applicable, ``chain`` holds (#indices, #distinct fraction sums,
    lcm-ratio lower bound, least prime of the product of d) and the four
    values are verified to be weakly decreasing.
    """

    applicable: bool
    reason: str
    indices: tuple[int, ...]
    theta: FractionSet
    coefficient_sum: Fraction
    chain: tuple[int, int, int, int] | None
    verified: bool


def divisibility_chain_report(
    seqs: Sequence[MultiSequence],
    n0: IntVector,
    d: IntVector,
) -> DivisibilityChainReport:
    """For w periodic mod n0 and a divisor vector d not dividing n0, bound
    the number of moduli divisible by d from below.

    Applicability needs: d does not divide n0, the index set
    I = {s : d | modulus_s} is nonempty, and the exact rational sum of
    weight_s / prod(modulus_s components) over I is nonzero.  Then with
    Theta = {frac(sum_t residue_st / d_t) : s in I} the chain
    |I| >= |Theta| >= min-bound >= least prime of prod(d) is asserted,
    where min-bound ranges over n0 and all moduli not divisible by d.
    """
    l = _check_dims(seqs, n0, d)
    if any(c < 1 for c in d):
        raise ValueError(f"divisor components must be positive, got {d}")
    if not is_periodic_mod_vec(seqs, n0).ok:
        raise ValueError(f"covering function is not periodic mod {n0}")

    def not_applicable(reason: str) -> DivisibilityChainReport:
        return DivisibilityChainReport(
            False, reason, (), (), Fraction(0), None, False
        )

    if vec_divides(d, n0):
        return not_applicable("d divides the period vector")
    indices = tuple(i for i, s in enumerate(seqs) if vec_divides(d, s.modulus))
    if not indices:
        return not_applicable("no modulus is divisible by d")
    csum = sum(
        (Fraction(seqs[i].weight, math.prod(seqs[i].modulus)) for i in indices),
        Fraction(0),
    )
    if csum == 0:
        return DivisibilityChainReport(
            False, "coefficient sum vanishes", indices, (), csum, None, False
        )
    theta = fraction_set(
        sum(Fraction(at, dt) for at, dt in zip(seqs[i].residue, d)) for i in indices
    )
    candidates = [n0] + [s.modulus for s in seqs]
    bound = min(
        math.lcm(*(dt // math.gcd(dt, nt) for dt, nt in zip(d, n)))
        for n in candidates
        if not vec_divides(d, n)
    )
    lp = least_prime_factor(math.prod(d))
    chain = (len(indices), len(theta), bound, lp)
    verified = chain[0] >= chain[1] >= chain[2] >= chain[3]
    assert verified, f"divisibility chain violated: {chain}"
    return DivisibilityChainReport(True, "", indices, theta, csum, chain, verified)


def decide_periodic_by_divisibility(seqs: Sequence[MultiSequence], n0: IntVector) -> bool:
    """Decide periodicity mod n0 purely from modulus divisibility.

    Valid when every weight is nonzero and the moduli that are maximal with
    respect to componentwise divisibility are pairwise distinct: w is then
    periodic mod n0 iff every modulus divides n0.  The verdict is
    cross-checked against the exhaustive box scan before being returned.
    """
    _check_dims(seqs, n0)
    if any(s.weight == 0 for s in seqs):
        raise ValueError("weights must be nonzero")
    moduli = [s.modulus for s in seqs]
    maximal = [
        n for n in moduli if not any(m != n and vec_divides(n, m) for m in moduli)
    ]
    for n in set(maximal):
        if moduli.count(n) > 1:
            raise ValueError(f"hypothesis not met: maximal modulus {n} duplicated")
    decision = all(vec_divides(n, n0) for n in moduli)
    oracle = is_periodic_mod_vec(seqs, n0)
    assert decision == oracle.ok, "divisibility decision disagrees with the box scan"
    return decision
