"""Systems of arithmetic sequences, covering functions, and window criteria.

The central objects are a :class:`System` of weighted residue classes and
its covering function w(x) = sum of weights over the sequences containing x.
w is periodic mod the lcm of the moduli, but the point of this module is
that its key properties are decidable from a far shorter window of
consecutive integers:

* a sum of periodic maps vanishes everywhere iff it vanishes on a window
  whose length is a totient sum over the moduli's divisors
  (:func:`window_zero_check`);
* equality of w with any candidate periodic function follows from equality
  on such a window (:func:`verify_covering_function`), which also decides
  exact m-covers;
* cover-by-zero-sets criteria and minimum-location windows come from subset
  sumsets of the moduli reciprocals (:func:`expsum_cover_check`,
  :func:`min_on_window`);
* the least period of a weighted covering function is read off from which
  exact cyclotomic coefficients survive (:func:`least_period`).

Weights are exact rationals (not arbitrary complex numbers): every "is this
coefficient zero" verdict then stays inside Q(zeta_N) where it is decidable
exactly.  Every scan, windowed or full-period, is one evaluator: D times
the covering function minus the tables over the window, with weights and
table values put over one common denominator D by
:mod:`coverkit._kernels` (int64 when the scaled sums provably fit, exact
Python ints otherwise), and then searched for its first nonzero point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from . import _kernels
from .cyclotomic import CyclotomicElement, root_power
from .fracsets import (
    FractionSet,
    divisor_union_phis,
    fraction_set,
    multiples_set,
    phi_sum_cardinality,
    subset_sum_set,
    window_bound,
)
from .numtheory import f_additive, lcm_all, least_prime_factor

DEFAULT_ORACLE_CAP = 10**6

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "WeightedSequence",
    "System",
    "PeriodicValueTable",
    "Verdict",
    "ExpSumSequence",
    "cover_count",
    "cover_values",
    "cover_table",
    "window_zero_check",
    "verify_covering_function",
    "is_exact_m_cover",
    "non_exact_witness",
    "expsum_cover_check",
    "min_on_window",
    "least_period",
    "weighted_average_check",
    "zero_system_coefficients",
    "equal_cover_superset_check",
]


@dataclass(frozen=True)
class WeightedSequence:
    """Residue class a(n) = {a + n*x} carrying an exact rational weight."""

    residue: int
    modulus: int
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)
        object.__setattr__(self, "weight", Fraction(self.weight))

    def contains(self, x: int) -> bool:
        return (x - self.residue) % self.modulus == 0

    def __str__(self) -> str:
        base = f"{self.residue}({self.modulus})"
        return base if self.weight == 1 else f"{base}*{self.weight}"


@dataclass(frozen=True)
class System:
    """Nonempty finite family of weighted arithmetic sequences."""

    seqs: tuple[WeightedSequence, ...]

    def __post_init__(self):
        object.__setattr__(self, "seqs", tuple(self.seqs))
        if not self.seqs:
            raise ValueError("a system needs at least one sequence")

    @classmethod
    def of(cls, *entries: tuple) -> System:
        """Build from (residue, modulus) or (residue, modulus, weight) tuples."""
        return cls(tuple(WeightedSequence(*e) for e in entries))

    @property
    def k(self) -> int:
        return len(self.seqs)

    @property
    def moduli(self) -> list[int]:
        return [s.modulus for s in self.seqs]

    def lcm(self) -> int:
        return lcm_all(self.moduli)

    def is_unweighted(self) -> bool:
        return all(s.weight == 1 for s in self.seqs)


def _is_prime(p: int) -> bool:
    return p > 1 and least_prime_factor(p) == p


@dataclass(frozen=True)
class PeriodicValueTable:
    """Periodic map Z -> F given by one period of values.

    ``char`` 0 means F = Q (values are ints or Fractions); a prime p means
    F = F_p (values are reduced into [0, p) at construction).
    """

    period: int
    values: tuple
    char: int = 0

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be positive, got {self.period}")
        if len(self.values) != self.period:
            raise ValueError(f"need {self.period} values, got {len(self.values)}")
        if self.char:
            if not _is_prime(self.char):
                raise ValueError(f"characteristic must be 0 or prime, got {self.char}")
            object.__setattr__(self, "values", tuple(int(v) % self.char for v in self.values))
        else:
            object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def constant(cls, value, period: int = 1, char: int = 0) -> PeriodicValueTable:
        return cls(period, (value,) * period, char)

    def value_at(self, x: int):
        return self.values[x % self.period]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check; ``witness`` locates the first failure when not ok."""

    ok: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# covering function evaluation


def cover_count(system: System, x: int) -> Fraction:
    """w(x): exact sum of the weights of the sequences containing x."""
    return sum((s.weight for s in system.seqs if s.contains(x)), Fraction(0))


def cover_values(system: System, start: int, length: int) -> tuple:
    """Exact values of w(x) for x in [start, start+length).

    Integers when the weights' common denominator is 1, Fractions otherwise.
    """
    arr, D = _scan(system.seqs, (), start, length)
    if D == 1:
        return tuple(arr.tolist())
    return tuple(Fraction(v, D) for v in arr.tolist())


def _oracle_points(points: int, what: str = "period") -> int:
    """``points``, once a scan of that many points (a full period, a box or
    a window) is known to fit under DEFAULT_ORACLE_CAP; larger scans are
    refused up front."""
    if points > DEFAULT_ORACLE_CAP:
        raise ValueError(f"{what} too large: {points} points exceed cap {DEFAULT_ORACLE_CAP}")
    return points


def cover_table(system: System) -> PeriodicValueTable:
    """Covering function over one full period N = lcm of the moduli."""
    N = _oracle_points(system.lcm())
    return PeriodicValueTable(N, cover_values(system, 0, N))


def _period_scan(system: System):
    """(D * w over one full period [0, N), D), refused past the oracle cap;
    the full-period checks reduce this array rather than a tuple of
    per-point values."""
    return _scan(system.seqs, (), 0, _oracle_points(system.lcm()))


# ---------------------------------------------------------------------------
# window criterion for vanishing sums of periodic maps


def _common_char(psis: Sequence[PeriodicValueTable]) -> int:
    chars = {t.char for t in psis}
    if len(chars) != 1:
        raise ValueError("tables must live over one common field")
    return chars.pop()


def _scan(
    seqs: Sequence[WeightedSequence], psis: Sequence[PeriodicValueTable], start: int, length: int
):
    """(D * (w - sum_s psi_s) over [start, start+length), D), where w is
    the covering function of ``seqs`` and D the common denominator of the
    weights and table values.  Sums over F_p are reduced mod p first, so a
    point is zero exactly where the difference vanishes in the field.  A
    window past the oracle cap is refused before anything is allocated."""
    _oracle_points(length, "window")
    char = _common_char(psis) if psis else 0
    if char and seqs:
        raise ValueError("tables compared with weighted classes must be rational-valued")
    # integral weights travel as ints, so all-integer input skips the
    # per-value Python scaling in _scaled
    weights = [(w.numerator if w.denominator == 1 else w,) for w in (s.weight for s in seqs)]
    nums, D = _kernels._scaled(weights + [t.values for t in psis])
    k = len(seqs)
    classes = ([s.residue for s in seqs], [s.modulus for s in seqs], nums[:k], start, length)
    if not psis:
        return _kernels.cover_counts(*classes), D
    periods = [t.period for t in psis]
    offsets = list(accumulate([k] + periods[:-1]))
    out = _kernels.table_sums(nums, offsets, periods, start, length, char)
    np.negative(out, out=out)
    if seqs:
        out += _kernels.cover_counts(*classes)
    return out, D


def _first_nonzero(
    seqs: Sequence[WeightedSequence], psis: Sequence[PeriodicValueTable], start: int, length: int
) -> Verdict:
    """Scan [start, start+length) for the first x where w(x) - sum_s psi_s(x)
    is nonzero in the tables' field; the witness of a failed Verdict."""
    nonzero = _scan(seqs, psis, start, length)[0] != 0
    if nonzero.any():
        return Verdict(False, start + int(nonzero.argmax()))
    return Verdict(True)


def window_zero_check(psis: Sequence[PeriodicValueTable], start: int = 0) -> Verdict:
    """Decide whether sum_s psi_s vanishes identically from one short window.

    The window length is the totient sum over the union of the divisor sets
    of the periods; vanishing there certifies vanishing on all of Z.  Over
    F_p the criterion requires p to divide no period, and violating inputs
    are rejected.
    """
    if not psis:
        raise ValueError("need at least one periodic map")
    char = _common_char(psis)
    if char:
        for t in psis:
            if t.period % char == 0:
                raise ValueError(
                    f"characteristic divides period: p={char} divides n={t.period}"
                )
    L = phi_sum_cardinality([t.period for t in psis])
    return _first_nonzero((), psis, start, L)


# ---------------------------------------------------------------------------
# covering-function verification from a window


def verify_covering_function(
    system: System, target: PeriodicValueTable, start: int = 0
) -> Verdict:
    """Check w(x) = target(x) on a window that certifies equality on all of Z.

    w - target is a sum of periodic maps over Q with periods the moduli and
    the target period, for any rational weights, so this is the vanishing
    criterion of :func:`window_zero_check` on a window of length
    |union over {target period} + moduli of the sets {r/n}|.  The target
    must be rational-valued.
    """
    L = phi_sum_cardinality(system.moduli + [target.period])
    return _first_nonzero(system.seqs, [target], start, L)


def is_exact_m_cover(system: System, m: int) -> bool:
    """True iff every integer is covered exactly m times."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return verify_covering_function(system, PeriodicValueTable.constant(m)).ok


def non_exact_witness(system: System, m: int) -> int:
    """Some x in [0, |S|) with w(x) != m, where S is the union of the
    fraction sets {r/n} of the moduli.

    Such an x is guaranteed whenever m exceeds k - f(lcm of moduli) with f
    the additive function valued p-1 on primes; smaller m is rejected.
    """
    if not system.is_unweighted():
        raise ValueError("witness search expects an unweighted system")
    N = system.lcm()
    bound = system.k - f_additive(N)
    if m <= bound:
        raise ValueError(f"hypothesis not met: need m > k - f(N) = {bound}, got m={m}")
    size = phi_sum_cardinality(system.moduli)
    verdict = _first_nonzero(system.seqs, [PeriodicValueTable.constant(m)], 0, size)
    if verdict.ok:
        raise AssertionError("no witness in the window; this contradicts the guarantee")
    return verdict.witness


# ---------------------------------------------------------------------------
# cover criteria for zero sets of exponential sums


@dataclass(frozen=True)
class ExpSumSequence:
    """Zero set X = {x : sum_t c_t * e^(2*pi*i*t*x/n) = 0} of an exponential
    sum with exact cyclotomic coefficients."""

    modulus: int
    terms: tuple[tuple[int, CyclotomicElement], ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def from_arith_sequence(cls, seq: WeightedSequence, multiplier: int = 1) -> ExpSumSequence:
        """Two-term instance whose zero set is exactly the residue class of
        ``seq``: coefficients 1 and -zeta_n^(-a*multiplier) at term indices 0
        and ``multiplier``.  Requires gcd(multiplier, modulus) = 1."""
        n = seq.modulus
        if math.gcd(multiplier, n) != 1:
            raise ValueError(f"multiplier {multiplier} not coprime to modulus {n}")
        c0 = CyclotomicElement.constant(1, 1)
        c1 = -root_power(n, -seq.residue * multiplier)
        return cls(n, ((0, c0), (multiplier % n, c1)))

    def term_fractions(self) -> FractionSet:
        return fraction_set(Fraction(t, self.modulus) for t, _ in self.terms)

    def membership_table(self) -> tuple[bool, ...]:
        """Zero-set indicator over one period (x enters only via x mod n)."""
        level = math.lcm(self.modulus, *(c.level for _, c in self.terms))
        step = level // self.modulus
        # each coefficient is lifted once; multiplying it by the root
        # zeta_level^(step*t*x) moves its entry at j to j + step*t*x
        lifted = [
            (step * t, [(j, v) for j, v in enumerate(c.lift(level).coeffs) if v])
            for t, c in self.terms
        ]
        out = []
        for x in range(self.modulus):
            coeffs = [Fraction(0)] * level
            for st, entries in lifted:
                for j, v in entries:
                    coeffs[(j + st * x) % level] += v
            out.append(CyclotomicElement(level, tuple(coeffs)).is_zero())
        return tuple(out)


def expsum_cover_check(exp_seqs: Sequence[ExpSumSequence], m: int, start: int = 0) -> Verdict:
    """Certify that the zero sets cover every integer at least m times.

    The window length is the largest sumset cardinality of the term-fraction
    sets over index subsets of size k-m+1; covering that many consecutive
    integers at least m times covers all of Z at least m times.  The window
    is one table-sum kernel call over the 0/1 zero-set indicators.
    """
    k = len(exp_seqs)
    if not 1 <= m <= k:
        raise ValueError(f"m must lie in [1, {k}], got {m}")
    W = window_bound([es.term_fractions() for es in exp_seqs], m)
    indicators = np.fromiter(
        chain.from_iterable(es.membership_table() for es in exp_seqs), np.int64
    )
    periods = [es.modulus for es in exp_seqs]
    offsets = list(accumulate([0] + periods[:-1]))
    short = _kernels.table_sums(indicators, offsets, periods, start, W) < m
    if short.any():
        return Verdict(False, start + int(short.argmax()))
    return Verdict(True)


# ---------------------------------------------------------------------------
# location of the covering-function minimum


def min_on_window(
    system: System,
    multipliers: Sequence[int],
    l: int,
    start: int = 0,
) -> tuple[int, int, int]:
    """(window length W_l, min of w on [start, start+W_l), global min of w).

    W_l is the largest number of distinct fractional parts of subset sums of
    m_s/n_s over index subsets of size k-l; the covering function attains
    its global minimum on every W_l consecutive integers, so the two minima
    returned are always equal.  Each multiplier must be coprime to its
    modulus, and l may not exceed the global minimum.
    """
    if not system.is_unweighted():
        raise ValueError("minimum-window search expects an unweighted system")
    if len(multipliers) != system.k:
        raise ValueError("need one multiplier per sequence")
    for ms, seq in zip(multipliers, system.seqs):
        if math.gcd(ms, seq.modulus) != 1:
            raise ValueError(f"multiplier {ms} not coprime to modulus {seq.modulus}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    global_min = int(_period_scan(system)[0].min())
    if l > global_min:
        raise ValueError(f"l={l} exceeds the minimum coverage {global_min}")
    if l == system.k:
        W_l = 1
    else:
        R_sets = [
            fraction_set([0, Fraction(ms, seq.modulus)])
            for ms, seq in zip(multipliers, system.seqs)
        ]
        W_l = window_bound(R_sets, l + 1)
    window_min = int(_scan(system.seqs, (), start, W_l)[0].min())
    assert window_min == global_min, "window missed the global minimum"
    return W_l, window_min, global_min


# ---------------------------------------------------------------------------
# least period and the coefficients that determine it


def _coefficient(system: System, q: int) -> CyclotomicElement:
    # c_{1/q} = sum over {s : q | n_s} of (weight/n_s) * zeta_q^(a_s), built
    # in one pass at level q
    coeffs = [Fraction(0)] * q
    for seq in system.seqs:
        if seq.modulus % q == 0:
            coeffs[seq.residue % q] += seq.weight / seq.modulus
    return CyclotomicElement(q, tuple(coeffs))


def least_period(system: System) -> int:
    """Smallest positive period of the weighted covering function.

    Equals the lcm of the denominators of the alphas in [0,1) whose
    coefficient c_alpha is nonzero (1 when none is).  For alpha = p/q in
    lowest terms, c_{p/q} is the image of c_{1/q} under the automorphism
    zeta_q -> zeta_q^p, which fixes the rational weights, so one exact zero
    test per denominator q decides all of them.  Denominators are visited
    in descending order and a q already dividing the running lcm is skipped,
    since it cannot change the answer.
    """
    result = 1
    for q in sorted(divisor_union_phis(system.moduli), reverse=True):
        if result % q and not _coefficient(system, q).is_zero():
            result = math.lcm(result, q)
    return result


def weighted_average_check(system: System) -> bool:
    """Verify the exact identity (1/N) * sum of w over a period = sum of
    weight/modulus.

    The scan of D * w over the period is summed as Python ints, so the
    total is exact on int64 arrays too (their points fit in int64, their
    sum over N points need not), and the mean is one Fraction."""
    arr, D = _period_scan(system)
    lhs = Fraction(sum(arr.tolist()), D * len(arr))
    rhs = sum((Fraction(s.weight, s.modulus) for s in system.seqs), Fraction(0))
    return lhs == rhs


def zero_system_coefficients(system: System) -> list[tuple[Fraction, CyclotomicElement]]:
    """All (alpha, c_alpha) pairs of a system whose covering function is
    identically zero.

    As in :func:`least_period`, c_{p/q} is the image of c_{1/q} under
    zeta_q -> zeta_q^p, so c_{1/q} is built and asserted to vanish once per
    denominator q, and c_{p/q} moves its coefficient at j to p*j mod q.
    """
    if _period_scan(system)[0].any():
        raise ValueError("covering function is not identically zero")
    units: dict[int, tuple] = {}
    out = []
    for alpha in multiples_set(system.moduli):
        q = alpha.denominator
        if q not in units:
            unit = _coefficient(system, q)
            assert unit.is_zero(), f"nonzero coefficient at alpha=1/{q} for a zero system"
            units[q] = unit.coeffs
        inverse = pow(alpha.numerator, -1, q)
        coeffs = tuple(units[q][inverse * e % q] for e in range(q))
        out.append((alpha, CyclotomicElement(q, coeffs)))
    return out


def equal_cover_superset_check(system: System) -> bool:
    """For a system covering all integers equally often, check that the
    subset sums of the reciprocals 1/n cover every fraction r/n (mod 1)."""
    if not system.is_unweighted():
        raise ValueError("superset check expects an unweighted system")
    arr = _period_scan(system)[0]
    if (arr != arr[0]).any():
        raise ValueError("system does not cover all integers equally often")
    sums = set(subset_sum_set([Fraction(1, n) for n in system.moduli]))
    return sums.issuperset(multiples_set(system.moduli))
