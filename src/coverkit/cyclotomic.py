"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a rational coefficient vector over the power basis
1, zeta, ..., zeta^(N-1) where zeta = exp(2*pi*i/N).  The representation is
redundant (the vector has length N, the field has degree phi(N)), so
equality goes through the exact zero test, which walks down the tower of
subfields of Q(zeta_N) on the nonzero terms; coefficient vectors are never
compared directly.

This module owns that layout: every element is built from exponent terms
(j, c), meaning c * zeta^j, by :meth:`CyclotomicElement.from_terms`, and
only code here (zero tests, exponential sums, zero-set tables) reads it.

Rational scalars only — verdicts that hinge on "!= 0" must stay exact, so
complex floating point is never used anywhere in this module.  Division is
not provided; nothing downstream needs it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .numtheory import factorize

__all__ = ["CyclotomicElement", "root_power", "indicator_sum_check", "exp_sum_eval", "zero_set_table"]

Rational = Fraction | int
_ZERO = Fraction(0)


class CyclotomicElement:
    """Element of Q(zeta_N), stored as N rational coefficients of zeta^j."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: tuple[Fraction, ...]):
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        if len(coeffs) != level:
            raise ValueError(f"need {level} coefficients, got {len(coeffs)}")
        self.level = level
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, level: int, terms: Iterable[tuple[int, Rational]]) -> CyclotomicElement:
        """Sum of c * zeta_level^j over the (j, c) pairs, exponents mod
        ``level``: the one builder of a coefficient vector.  Repeated
        exponents add; a c on an untouched entry is stored as given."""
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        coeffs = [_ZERO] * level
        for j, c in terms:
            j %= level
            old = coeffs[j]
            coeffs[j] = c if old is _ZERO else old + c
        return cls(level, tuple(coeffs))

    @classmethod
    def zero(cls, level: int) -> CyclotomicElement:
        return cls.from_terms(level, ())

    @classmethod
    def constant(cls, level: int, value: Rational) -> CyclotomicElement:
        return cls.from_terms(level, ((0, Fraction(value)),))

    def lift(self, M: int) -> CyclotomicElement:
        """Embed into Q(zeta_M); requires level | M (zeta_N = zeta_M^(M/N))."""
        if M % self.level != 0:
            raise ValueError(f"cannot lift level {self.level} into level {M}")
        if M == self.level:
            return self
        step = M // self.level
        return CyclotomicElement.from_terms(M, ((j * step, c) for j, c in enumerate(self.coeffs) if c))

    def _common(self, other: CyclotomicElement) -> tuple[CyclotomicElement, CyclotomicElement]:
        N = math.lcm(self.level, other.level)
        return self.lift(N), other.lift(N)

    def __add__(self, other: CyclotomicElement | Rational) -> CyclotomicElement:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicElement.constant(self.level, other)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        a, b = self._common(other)
        return CyclotomicElement(a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CyclotomicElement:
        return CyclotomicElement(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other: CyclotomicElement | Rational) -> CyclotomicElement:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicElement.constant(self.level, other)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Rational) -> CyclotomicElement:
        return (-self) + other

    def __mul__(self, other: CyclotomicElement | Rational) -> CyclotomicElement:
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(self.level, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        a, b = self._common(other)
        nonzero = [(j, cb) for j, cb in enumerate(b.coeffs) if cb]
        return CyclotomicElement.from_terms(
            a.level, ((i + j, ca * cb) for i, ca in enumerate(a.coeffs) if ca for j, cb in nonzero)
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """True iff the element is zero in Q(zeta_level).

        Denominators are cleared first, so the test runs on integers.
        """
        den = math.lcm(*(c.denominator for c in self.coeffs))
        terms = {j: v for j, c in enumerate(self.coeffs) if (v := int(c * den))}
        return _vanishes(self.level, _primes(self.level), terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicElement.constant(self.level, other)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CyclotomicElement is not hashable (equality is up to Phi_N)")

    def __repr__(self) -> str:
        terms = [f"{c}*z^{j}" for j, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} at level {self.level}>"


def _primes(level: int) -> list[int]:
    """The prime factors of ``level``, descending, repeated by multiplicity."""
    return [p for p, e in reversed(factorize(level)) for _ in range(e)]


def _vanishes(level: int, primes: list[int], terms: dict[int, int]) -> bool:
    """True iff sum c * zeta_level^j over the items (j, c) of ``terms`` is
    zero, for integers c and 0 <= j < level, with ``primes`` =
    ``_primes(level)``: the one exact zero test.

    It walks down the tower of subfields one prime p of q = level at a
    time, largest first (Lam and Leung, J. Algebra 224, 2000), at a cost that
    follows the terms, not q:
    - p^2 | q: 1, ..., zeta_q^(p-1) is a basis over Q(zeta_(q/p)), so for
      each i the terms with j = i mod p, at exponent j // p, must vanish;
    - p || q = p*m: the automorphism zeta_q -> zeta_q^(p+m) = zeta_p * zeta_m
      of Q(zeta_q) takes the sum to sum_i zeta_p^i * A_i, with A_i in
      Q(zeta_m) holding the terms with j = i mod p at exponent j mod m;
      1, ..., zeta_p^(p-2) is a basis over Q(zeta_m), so it vanishes iff
      all p groups A_i are equal.
    By induction on these steps, fewer nonzero terms than the least prime
    of q never vanish.
    """
    if level == 1 or len(terms) < primes[-1]:
        return not any(terms.values())
    p, rest = primes[0], primes[1:]
    m = level // p
    if m % p == 0:
        parts: dict[int, dict[int, int]] = {}
        for j, c in terms.items():
            parts.setdefault(j % p, {})[j // p] = c
        return all(_vanishes(m, rest, part) for part in parts.values())
    if m == 1:
        # the p groups are the scalars c_j, every j present
        return len(set(terms.values())) == 1
    groups: dict[int, dict[int, int]] = {}
    for j, c in terms.items():
        # j -> (j mod p, j mod m) is one-to-one, so no two terms meet
        groups.setdefault(j % p, {})[j % m] = c
    if len(groups) < p:
        return all(_vanishes(m, rest, g) for g in groups.values())
    ref = min(groups.values(), key=len)
    return all(
        _vanishes(m, rest, {k: d for k in g.keys() | ref.keys() if (d := g.get(k, 0) - ref.get(k, 0))})
        for g in groups.values()
    )


def _lifted_entries(
    elements: Sequence[CyclotomicElement], level: int
) -> tuple[int, list[list[tuple[int, int]]]]:
    """(den, entries): den the lcm of the elements' coefficient
    denominators, and each element lifted to ``level`` as its nonzero
    entries (j, den * coefficient of zeta_level^j), read off its own
    coefficients with no level-long vector."""
    den = math.lcm(*(v.denominator for c in elements for v in c.coeffs))
    if any(level % c.level for c in elements):
        raise ValueError(f"coefficient levels must divide {level}")
    return den, [
        [(j * (level // c.level), v.numerator * (den // v.denominator)) for j, v in enumerate(c.coeffs) if v]
        for c in elements
    ]


def _shifted_sum(level: int, shifted: Iterable[tuple[int, list[tuple[int, int]]]]) -> dict[int, int]:
    """Integer terms {j: c} of sum of zeta_level^shift * element over the
    (shift, entries) pairs, entries as :func:`_lifted_entries` gives them:
    multiplying by zeta_level^shift moves the entry at j to j + shift.
    A c may be zero where entries cancel."""
    terms: dict[int, int] = {}
    for shift, entries in shifted:
        for j, v in entries:
            k = (j + shift) % level
            terms[k] = terms.get(k, 0) + v
    return terms


def root_power(N: int, j: int) -> CyclotomicElement:
    """zeta_N^j (exponent taken mod N)."""
    return CyclotomicElement.from_terms(N, ((j, Fraction(1)),))


def indicator_sum_check(N: int, n: int, a: int) -> bool:
    """Check the geometric-series identity
    (1/n) * sum_{r=0}^{n-1} zeta_N^((N/n)*a*r)  ==  1 if n | a else 0.

    Requires n | N.  Returns the verdict of the exact comparison.
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be positive")
    if N % n != 0:
        raise ValueError(f"n={n} does not divide N={N}")
    # n times both sides, so the coefficients are integers
    step = N // n
    terms = Counter(step * a * r % N for r in range(n))
    if a % n == 0:
        terms[0] -= n
    return _vanishes(N, _primes(N), terms)


def exp_sum_eval(
    coeffs: list[CyclotomicElement],
    alphas: list[Fraction],
    x: int,
    N: int,
) -> CyclotomicElement:
    """Exact value at integer x of  sum_j c_j * z_j^x  with z_j = exp(-2*pi*i*alpha_j).

    All alphas must be distinct and have denominators dividing N; the result
    is reported at level N.  Multiplying c_j, lifted to level N, by the
    root z_j^x moves its entry at i to i - alpha_j*N*x, so the sum is built
    as integer terms over the coefficients' common denominator.
    """
    if len(coeffs) != len(alphas):
        raise ValueError("coeffs and alphas must have equal length")
    if len(set(alphas)) != len(alphas):
        raise ValueError("alphas must be distinct")
    shifts = []
    for alpha in alphas:
        aN = alpha * N
        if aN.denominator != 1:
            raise ValueError(f"denominator of {alpha} does not divide N={N}")
        shifts.append(-int(aN) * x)
    den, lifted = _lifted_entries(coeffs, N)
    terms = _shifted_sum(N, zip(shifts, lifted))
    return CyclotomicElement.from_terms(N, ((j, Fraction(v, den)) for j, v in terms.items() if v))


def zero_set_table(modulus: int, terms: Sequence[tuple[int, CyclotomicElement]]) -> tuple[bool, ...]:
    """Whether sum_t c_t * e^(2*pi*i*t*x/modulus) = 0 over the (t, c_t)
    pairs (t may repeat), for x in [0, modulus): one zero test per point at
    the lcm of the modulus and the coefficient levels."""
    level = math.lcm(modulus, *(c.level for _, c in terms))
    step = level // modulus
    _, lifted = _lifted_entries([c for _, c in terms], level)
    primes = _primes(level)
    return tuple(
        _vanishes(level, primes, _shifted_sum(level, zip((step * t * x for t, _ in terms), lifted)))
        for x in range(modulus)
    )
