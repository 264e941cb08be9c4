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
  exact m-covers, zero systems and equal covers;
* cover-by-zero-sets criteria and minimum-location windows come from subset
  sumsets of the moduli reciprocals (:func:`expsum_cover_check`,
  :func:`min_on_window`);
* the least period of a weighted covering function is read off from which
  exact cyclotomic coefficients survive (:func:`least_period`).

Weights are exact rationals (not arbitrary complex numbers): every "is this
coefficient zero" verdict then stays inside Q(zeta_N) where it is decidable
exactly.  Only :func:`cover_table` and :func:`weighted_average_check` scan
a full period.  Every scan, windowed or full-period, is one evaluator: D times
the covering function minus the tables over the window, with weights and
table values put over one common denominator D by
:mod:`coverkit._kernels`, and then searched for its first nonzero point.
One plan there picks the path: the narrowest fixed integer width that the
scaled sums provably fit, or lists of exact Python ints for a window too
short for numpy to pay off or past the widest width, where a full-period
scan runs on numpy object arrays instead.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import _kernels
from .cyclotomic import CyclotomicElement, zero_set_table
from .fracsets import (
    FractionSet,
    divisor_union_phis,
    fraction_set,
    multiples_set,
    phi_sum_cardinality,
    subset_sum_set,
    window_bound,
)
from .numtheory import _is_prime, f_additive, lcm_all

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


def _rational(v) -> Fraction:
    """v as a Fraction of Python ints.  A Fraction made from a numpy
    integer keeps it as numerator, and fixed-width sums of those wrap."""
    f = v if type(v) is Fraction else Fraction(v)
    if type(f.numerator) is int and type(f.denominator) is int:
        return f
    return Fraction(int(f.numerator), int(f.denominator))


def _integer(v):
    """v as a Python int when it is an integer of any type, else unchanged."""
    return v if type(v) is int or not isinstance(v, numbers.Integral) else int(v)


def _integers(*values) -> list[int]:
    """Residues or moduli as Python ints; any value that is not an integer
    of some type (1.5, a Fraction, a string) is refused."""
    for v in values:
        if not isinstance(v, numbers.Integral):
            raise ValueError(f"residues and moduli must be integers, got {v!r}")
    return [int(v) for v in values]


def _exact(v):
    """v as a Python int when it is an integer, else a Fraction of Python ints."""
    v = _integer(v)
    return v if type(v) is int else _rational(v)


def _record(name: str, fields: str) -> type:
    """A named tuple base for a record that checks its fields in ``__new__``;
    its ``_make``, and so ``_replace``, build through that check too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class WeightedSequence(_record("WeightedSequence", "residue modulus weight")):
    """Residue class a(n) = {a + n*x} carrying an exact rational weight."""

    __slots__ = ()

    def __new__(cls, residue: int, modulus: int, weight: Fraction = Fraction(1)):
        residue, modulus = _integers(residue, modulus)
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        return super().__new__(cls, residue % modulus, modulus, _rational(weight))

    def contains(self, x: int) -> bool:
        return (x - self.residue) % self.modulus == 0

    def __str__(self) -> str:
        base = f"{self.residue}({self.modulus})"
        return base if self.weight == 1 else f"{base}*{self.weight}"


class System(_record("System", "seqs")):
    """Nonempty finite family of weighted arithmetic sequences."""

    __slots__ = ()

    def __new__(cls, seqs: Sequence[WeightedSequence]):
        seqs = tuple(seqs)
        if not seqs:
            raise ValueError("a system needs at least one sequence")
        return super().__new__(cls, seqs)

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


class PeriodicValueTable(_record("PeriodicValueTable", "period values char")):
    """Periodic map Z -> F given by one period of values.

    ``char`` 0 means F = Q (values are ints or Fractions, kept as Python
    ints and Fractions of them, so numpy integers become exact); a prime p
    means F = F_p (values are integers, or Fractions with denominator 1,
    reduced into [0, p) at construction; any other value is refused).
    """

    __slots__ = ()

    def __new__(cls, period: int, values: Sequence, char: int = 0):
        if period < 1:
            raise ValueError(f"period must be positive, got {period}")
        if len(values) != period:
            raise ValueError(f"need {period} values, got {len(values)}")
        values = tuple(values)
        if char:
            if not _is_prime(char):
                raise ValueError(f"characteristic must be 0 or prime, got {char}")
            if not {int}.issuperset(map(type, values)):
                for v in values:
                    if not isinstance(v, numbers.Rational) or v.denominator != 1:
                        raise ValueError(f"values over F_{char} must be integers, got {v!r}")
            values = tuple(int(v) % char for v in values)
        elif not {int}.issuperset(map(type, values)):
            values = tuple(map(_exact, values))
        return super().__new__(cls, period, values, char)

    @classmethod
    def constant(cls, value, period: int = 1, char: int = 0) -> PeriodicValueTable:
        return cls(period, (value,) * period, char)

    def value_at(self, x: int):
        return self.values[x % self.period]


class Verdict(NamedTuple):
    """Outcome of a check; ``witness`` locates the first failure when not
    ok: a point, or for periodicity mod a vector a pair (x, y) of points.
    ``points`` is the length of the scan that decided it, when one did; it
    says how the answer was reached, not what it is, so equality and the
    hash ignore it."""

    ok: bool
    witness: int | tuple | None = None
    points: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other) -> bool:
        return isinstance(other, Verdict) and self[:2] == other[:2]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])


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


# ---------------------------------------------------------------------------
# window criterion for vanishing sums of periodic maps


def _common_char(psis: Sequence[PeriodicValueTable]) -> int:
    chars = {t.char for t in psis}
    if len(chars) != 1:
        raise ValueError("tables must live over one common field")
    return chars.pop()


def _scan_input(
    seqs: Sequence[WeightedSequence], psis: Sequence[PeriodicValueTable], start: int, length: int
):
    """The kernel arguments (classes, tables, start, length, char) of
    w - sum_s psi_s over [start, start+length), where w is the covering
    function of ``seqs``.  A window past the oracle cap is refused before
    anything is allocated."""
    _oracle_points(length, "window")
    char = _common_char(psis) if psis else 0
    if char and seqs:
        raise ValueError("tables compared with weighted classes must be rational-valued")
    # integral weights travel as ints, so all-integer input skips the
    # per-value Python scaling in the kernels
    weights = [w.numerator if w.denominator == 1 else w for w in (s.weight for s in seqs)]
    classes = ([s.residue for s in seqs], [s.modulus for s in seqs], weights)
    return classes, [t.values for t in psis], start, length, char


def _scan(
    seqs: Sequence[WeightedSequence], psis: Sequence[PeriodicValueTable], start: int, length: int
):
    """(D * (w - sum_s psi_s) over [start, start+length), D), where D is
    the common denominator of the weights and table values.  Sums over F_p
    are reduced mod p first, so a point is zero exactly where the
    difference vanishes in the field."""
    return _kernels.scan(*_scan_input(seqs, psis, start, length))


def _first_nonzero(
    seqs: Sequence[WeightedSequence],
    psis: Sequence[PeriodicValueTable],
    start: int,
    length: int,
    full_period: bool = False,
) -> Verdict:
    """Scan [start, start+length) for the first x where w(x) - sum_s psi_s(x)
    is nonzero in the tables' field; the witness of a failed Verdict.  A
    window runs on the path the kernels' plan picks (lists of Python ints
    when it is short or its values pass the widest fixed width); a
    full-period scan always runs the numpy kernels, so the oracle is a
    second implementation."""
    find = _kernels.first_nonzero if full_period else _kernels.window_first_nonzero
    x = find(*_scan_input(seqs, psis, start, length))
    return Verdict(x is None, x, length)


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
    verdict = verify_covering_function(system, PeriodicValueTable.constant(m))
    if verdict.ok:
        raise AssertionError("no witness in the window; this contradicts the guarantee")
    return verdict.witness


# ---------------------------------------------------------------------------
# cover criteria for zero sets of exponential sums


class ExpSumSequence(_record("ExpSumSequence", "modulus terms")):
    """Zero set X = {x : sum_t c_t * e^(2*pi*i*t*x/n) = 0} of an exponential
    sum with exact cyclotomic coefficients."""

    __slots__ = ()

    def __new__(cls, modulus: int, terms: Sequence[tuple[int, CyclotomicElement]]):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        return super().__new__(cls, modulus, tuple(terms))

    @classmethod
    def from_arith_sequence(cls, seq: WeightedSequence, multiplier: int = 1) -> ExpSumSequence:
        """Two-term instance whose zero set is exactly the residue class of
        ``seq``: coefficients 1 and -zeta_n^(-a*multiplier) at term indices 0
        and ``multiplier``.  Requires gcd(multiplier, modulus) = 1."""
        n = seq.modulus
        if math.gcd(multiplier, n) != 1:
            raise ValueError(f"multiplier {multiplier} not coprime to modulus {n}")
        c0 = CyclotomicElement.constant(1, 1)
        c1 = CyclotomicElement.from_terms(n, ((-seq.residue * multiplier, Fraction(-1)),))
        return cls(n, ((0, c0), (multiplier % n, c1)))

    def term_fractions(self) -> FractionSet:
        return fraction_set(Fraction(t, self.modulus) for t, _ in self.terms)

    def membership_table(self) -> tuple[bool, ...]:
        """Zero-set indicator over one period (x enters only via x mod n)."""
        return zero_set_table(self.modulus, self.terms)


def expsum_cover_check(exp_seqs: Sequence[ExpSumSequence], m: int, start: int = 0) -> Verdict:
    """Certify that the zero sets cover every integer at least m times.

    The window length is the largest sumset cardinality of the term-fraction
    sets over index subsets of size k-m+1; covering that many consecutive
    integers at least m times covers all of Z at least m times.  The window
    is one kernel call over the 0/1 zero-set indicators; a window or tables
    past the oracle cap are refused before any table is built.
    """
    k = len(exp_seqs)
    if not 1 <= m <= k:
        raise ValueError(f"m must lie in [1, {k}], got {m}")
    W = _oracle_points(window_bound([es.term_fractions() for es in exp_seqs], m), "window")
    # a table is n zero tests at the lcm of n and its coefficient levels
    tables = sum(es.modulus * math.lcm(es.modulus, *(c.level for _, c in es.terms)) for es in exp_seqs)
    _oracle_points(tables, "zero-set table")
    indicators = [[int(v) for v in es.membership_table()] for es in exp_seqs]
    x = _kernels.first_below(indicators, m, start, W)
    return Verdict(True) if x is None else Verdict(False, x)


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
    m_s/n_s over index subsets of size k-l.  For l at most the global
    minimum, w attains it on every W_l consecutive integers; l = 0 always
    is, so both minima come from one scan of W_0 >= W_l points from
    ``start``.  Each multiplier must be coprime to its modulus, and l may
    not exceed the global minimum, which is k only when every modulus is 1.
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
    top = system.k - any(n > 1 for n in system.moduli)  # w <= k-1 off a class mod n > 1
    if l > top:
        raise ValueError(f"l={l} exceeds the minimum coverage, which is at most {top}")
    if l == system.k:  # every modulus is 1, so w = k everywhere: no window
        return 1, l, l
    R_sets = [fraction_set([0, Fraction(ms, s.modulus)]) for ms, s in zip(multipliers, system.seqs)]
    values = _scan(system.seqs, (), start, window_bound(R_sets, 1))[0]
    global_min = int(values.min())
    if l > global_min:
        raise ValueError(f"l={l} exceeds the minimum coverage {global_min}")
    W_l = window_bound(R_sets, l + 1) if l else len(values)
    return W_l, int(values[:W_l].min()), global_min


# ---------------------------------------------------------------------------
# least period and the coefficients that determine it


def _unit_terms(system: System, q: int) -> list[tuple[int, Fraction]]:
    # c_{1/q} = sum over {s : q | n_s} of (weight/n_s) * zeta_q^(a_s), as
    # its (a_s, weight/n_s) terms
    return [(s.residue, s.weight / s.modulus) for s in system.seqs if s.modulus % q == 0]


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
    # each test builds a dense element of level q, and the largest q is the
    # largest modulus
    _oracle_points(max(system.moduli), "cyclotomic level")
    result = 1
    for q in sorted(divisor_union_phis(system.moduli), reverse=True):
        if result % q and not CyclotomicElement.from_terms(q, _unit_terms(system, q)).is_zero():
            result = math.lcm(result, q)
    return result


def weighted_average_check(system: System) -> bool:
    """Verify the exact identity (1/N) * sum of w over a period = sum of
    weight/modulus.

    The scan of D * w over the period is summed exactly (its points fit
    the scan's width, their sum over N points need not), and the mean is
    one Fraction."""
    arr, D = _scan(system.seqs, (), 0, _oracle_points(system.lcm()))
    lhs = Fraction(_kernels.exact_sum(arr), D * len(arr))
    rhs = sum((Fraction(s.weight, s.modulus) for s in system.seqs), Fraction(0))
    return lhs == rhs


def zero_system_coefficients(system: System) -> list[tuple[Fraction, CyclotomicElement]]:
    """All (alpha, c_alpha) pairs of a system whose covering function is
    identically zero (decided on a window by :func:`verify_covering_function`).

    As in :func:`least_period`, c_{p/q} is the image of c_{1/q} under
    zeta_q -> zeta_q^p, so c_{1/q} is asserted to vanish once per
    denominator q, and c_{p/q} is built from its terms with exponents p*a_s.
    """
    if not verify_covering_function(system, PeriodicValueTable.constant(0)):
        raise ValueError("covering function is not identically zero")
    terms: dict[int, list] = {}
    out = []
    for alpha in multiples_set(system.moduli):
        q, p = alpha.denominator, alpha.numerator
        if q not in terms:
            terms[q] = _unit_terms(system, q)
            assert CyclotomicElement.from_terms(q, terms[q]).is_zero(), f"c_(1/{q}) != 0 in a zero system"
        out.append((alpha, CyclotomicElement.from_terms(q, ((p * a, w) for a, w in terms[q]))))
    return out


def equal_cover_superset_check(system: System) -> bool:
    """For a system covering all integers equally often (w = w(0) on the
    window of :func:`verify_covering_function`), check that the subset
    sums of the reciprocals 1/n cover every fraction r/n (mod 1).  The
    sums cost about k * min(2^k, N), so past the oracle cap they are refused."""
    if not system.is_unweighted():
        raise ValueError("superset check expects an unweighted system")
    if min(2**system.k, system.lcm()) > DEFAULT_ORACLE_CAP:
        raise ValueError(f"too many subset sums: min(2^k, N) exceeds cap {DEFAULT_ORACLE_CAP}")
    if not verify_covering_function(system, PeriodicValueTable.constant(cover_count(system, 0))):
        raise ValueError("system does not cover all integers equally often")
    sums = set(subset_sum_set([Fraction(1, n) for n in system.moduli]))
    return sums.issuperset(multiples_set(system.moduli))
