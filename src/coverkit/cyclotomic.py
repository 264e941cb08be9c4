"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a rational coefficient vector over the power basis
1, zeta, ..., zeta^(N-1) where zeta = exp(2*pi*i/N).  The representation is
redundant (the vector has length N, the field has degree phi(N)), so
equality and the zero test always reduce modulo the N-th cyclotomic
polynomial; coefficient vectors are never compared directly.

This module owns that layout: every element is built from exponent terms
(j, c), meaning c * zeta^j, by :meth:`CyclotomicElement.from_terms`, and
only code here (zero tests, exponential sums, zero-set tables) reads it.

Rational scalars only — verdicts that hinge on "!= 0" must stay exact, so
complex floating point is never used anywhere in this module.  Division is
not provided; nothing downstream needs it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .numtheory import cyclotomic_poly

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
        """True iff the representing polynomial is divisible by Phi_level.

        Denominators are cleared first, so the test runs on integers.
        """
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return _vanishes(self.level, [int(c * den) for c in self.coeffs])

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


def _vanishes(level: int, ints: list[int]) -> bool:
    """True iff sum_j ints[j] * zeta_level^j = 0, where ``ints`` holds
    integer coefficients of zeta_level^0, ..., zeta_level^(level-1).

    This is the one exact zero test of the package: ``ints`` is reduced in
    place by long division by the monic integer polynomial Phi_level, and
    the sum vanishes iff the remainder does.
    """
    if not any(ints):
        return True
    phi = cyclotomic_poly(level)
    deg = len(phi) - 1
    # Phi_N(x) = Phi_rad(N)(x^(N/rad(N))), so most of its coefficients are
    # zero unless N is squarefree; only the nonzero ones subtract
    lower = [(j, p) for j, p in enumerate(phi[:deg]) if p]
    for i in range(len(ints) - 1, deg - 1, -1):
        c = ints[i]
        if c:
            ints[i] = 0
            off = i - deg
            for j, p in lower:
                ints[off + j] -= c * p
    return not any(ints[:deg])


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


def _shifted_sum(level: int, shifted: Iterable[tuple[int, list[tuple[int, int]]]]) -> list[int]:
    """Integer coefficients of sum of zeta_level^shift * element over the
    (shift, entries) pairs, entries as :func:`_lifted_entries` gives them:
    multiplying by zeta_level^shift moves the entry at j to j + shift."""
    ints = [0] * level
    for shift, entries in shifted:
        for j, v in entries:
            ints[(j + shift) % level] += v
    return ints


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
    ints = [0] * N
    for r in range(n):
        ints[(step * a * r) % N] += 1
    if a % n == 0:
        ints[0] -= n
    return _vanishes(N, ints)


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
    as one integer vector over the coefficients' common denominator.
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
    ints = _shifted_sum(N, zip(shifts, lifted))
    return CyclotomicElement.from_terms(N, ((j, Fraction(v, den)) for j, v in enumerate(ints) if v))


def zero_set_table(modulus: int, terms: Sequence[tuple[int, CyclotomicElement]]) -> tuple[bool, ...]:
    """Whether sum_t c_t * e^(2*pi*i*t*x/modulus) = 0 over the (t, c_t)
    pairs (t may repeat), for x in [0, modulus): one zero test per point at
    the lcm of the modulus and the coefficient levels."""
    level = math.lcm(modulus, *(c.level for _, c in terms))
    step = level // modulus
    _, lifted = _lifted_entries([c for _, c in terms], level)
    return tuple(
        _vanishes(level, _shifted_sum(level, zip((step * t * x for t, _ in terms), lifted)))
        for x in range(modulus)
    )
