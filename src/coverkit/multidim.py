"""Weighted covering functions on Z^l with componentwise divisibility.

Vectors are plain int tuples; d | y means each component of d divides the
matching component of y.  Periodicity of the covering function of a family
of weighted multidimensional residue classes is decided from a window, as
in one dimension: a difference w(x) - w(x + h*e_t) is itself the covering
function of a weighted system (each class, plus a copy shifted by -h*e_t
with its weight negated), and such a function vanishes on Z^l iff it
vanishes on prod_u [0, L_u), L_u the totient sum over the divisors of the
moduli's u-th components (a tensor Vandermonde argument, one axis at a
time).  That test anchors both the divisibility inequality chain and the
divisibility criterion; the exhaustive scan of one period box is the oracle
(:func:`coverkit.oracle.brute_periodic_mod_vec`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import _kernels
from .covering import Verdict, _integers, _oracle_points, _rational, _record
from .fracsets import FractionSet, fraction_set, phi_sum_cardinality
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


class MultiSequence(_record("MultiSequence", "residue modulus weight")):
    """Residue class a + n*Z^l (componentwise) with an exact rational weight."""

    __slots__ = ()

    def __new__(cls, residue: IntVector, modulus: IntVector, weight: Fraction = Fraction(1)):
        if len(residue) != len(modulus) or not modulus:
            raise ValueError("residue and modulus must share a positive dimension")
        a, n = _integers(*residue), _integers(*modulus)
        if any(nt < 1 for nt in n):
            raise ValueError(f"modulus components must be positive, got {modulus}")
        residue = tuple(at % nt for at, nt in zip(a, n))
        return super().__new__(cls, residue, tuple(n), _rational(weight))

    @property
    def dim(self) -> int:
        return len(self.modulus)

    def contains(self, x: IntVector) -> bool:
        return all((xt - at) % nt == 0 for xt, at, nt in zip(x, self.residue, self.modulus))


def _columns(seqs: Sequence[MultiSequence]) -> tuple:
    """(residues, moduli, weights): the class columns of ``seqs`` as the
    kernels take them, from one transpose of the records; integral weights
    travel as ints.  A plain list of classes holds no columns of its own,
    so each check reads them here."""
    residues, moduli, weights = zip(*seqs)
    return residues, moduli, [w.numerator if w.denominator == 1 else w for w in weights]


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


# periodicity verdicts are covering.Verdict, their witness a pair (x, y)
PeriodicityVerdict = Verdict


def is_periodic_mod_vec(seqs: Sequence[MultiSequence], n0: IntVector) -> Verdict:
    """Decide whether w is periodic modulo n0 from a window.

    w is periodic mod N, the componentwise lcm of the moduli, so along
    axis t a shift by n0_t acts as one by h_t = n0_t mod N_t, and an axis
    with h_t = 0 needs no check; when every h_t is 0 the answer is
    "periodic" with no scan.  For every other axis t, w(x) - w(x + h_t*e_t)
    is the covering function of the classes whose t-th modulus does not
    divide h_t together with their copies shifted by -h_t*e_t with negated
    weights (the classes it fixes cancel), so it is checked for vanishing
    on the window prod_u [0, L_u) (module docstring).  The witness is its
    first nonzero x in C order, which is also the first mismatch on all of
    Z^l with x >= 0, and y = x + n0_t*e_t.  The window may not exceed the
    oracle cap.
    """
    _check_dims(seqs, n0)
    if any(c < 1 for c in n0):
        raise ValueError(f"period components must be positive, got {n0}")
    residues, moduli, weights = _columns(seqs)
    periods = [math.lcm(*col) for col in zip(*moduli)]
    shifts = [c % N for c, N in zip(n0, periods)]
    if not any(shifts):
        return Verdict(True)
    window = [phi_sum_cardinality(col) for col in zip(*moduli)]
    points = _oracle_points(math.prod(window), "box")
    for t, h in enumerate(shifts):
        if h:
            kept = [(a, n, w) for a, n, w in zip(residues, moduli, weights) if h % n[t]]
            moved = [(a[:t] + ((a[t] - h) % n[t],) + a[t + 1 :], n, -w) for a, n, w in kept]
            x = _kernels.box_first_nonzero([*zip(*kept, *moved)], window)
            if x is not None:
                return Verdict(False, (x, x[:t] + (x[t] + n0[t],) + x[t + 1 :]), points)
    return Verdict(True, None, points)


class DivisibilityChainReport(NamedTuple):
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
    if not verified:
        raise AssertionError(f"divisibility chain violated: {chain}")
    return DivisibilityChainReport(True, "", indices, theta, csum, chain, verified)


def decide_periodic_by_divisibility(seqs: Sequence[MultiSequence], n0: IntVector) -> bool:
    """Decide periodicity mod n0 purely from modulus divisibility.

    Valid when every weight is nonzero and the moduli that are maximal with
    respect to componentwise divisibility are pairwise distinct: w is then
    periodic mod n0 iff every modulus divides n0.  The verdict is
    cross-checked against the window test :func:`is_periodic_mod_vec`
    before being returned.
    """
    return _divisibility_verdict(seqs, n0).ok


def _divisibility_verdict(seqs: Sequence[MultiSequence], n0: IntVector) -> Verdict:
    """The verdict of :func:`is_periodic_mod_vec`, with its witness, once
    it agrees with :func:`decide_periodic_by_divisibility`'s decision."""
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
    verdict = is_periodic_mod_vec(seqs, n0)
    if decision != verdict.ok:
        raise AssertionError("divisibility decision disagrees with the window test")
    return verdict
