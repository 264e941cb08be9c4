"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a rational coefficient vector over the power basis
1, zeta, ..., zeta^(N-1) where zeta = exp(2*pi*i/N).  The representation is
redundant (the vector has length N, the field has degree phi(N)), so
equality goes through the exact zero test, which walks down the tower of
subfields of Q(zeta_N) on the nonzero terms; coefficient vectors are never
compared directly.

This module owns that layout: every element is built from exponent terms
(j, c), meaning c * zeta^j, by :meth:`CyclotomicElement.from_terms`, and
read back as terms by ``_terms`` (ring operations, lifts, exponential sums,
zero-set tables).  Only ``is_zero`` still reads the vector itself.

A zero-set table comes in two steps: :func:`zero_set_input` reads an
exponential sum's coefficients once into integer entries at one level,
which a ``coverkit.covering.ExpSumSequence`` carries from construction,
and :func:`zero_set_from_input` factors the level and tests each point.

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

__all__ = [
    "CyclotomicElement",
    "root_power",
    "indicator_sum_check",
    "exp_sum_eval",
    "zero_set_input",
    "zero_set_from_input",
    "zero_set_table",
]

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
        return CyclotomicElement.from_terms(M, self._terms(M))

    def _terms(self, M: int) -> list[tuple[int, Fraction]]:
        """The nonzero terms (j * M/level, c) as exponents of zeta_M, for M
        a multiple of the level: the one reader of the stored vector.  An
        untouched entry is the shared zero, skipped without a Fraction
        truth test."""
        step = M // self.level
        return [(j * step, c) for j, c in enumerate(self.coeffs) if c is not _ZERO and c]

    def _operand(self, other: object) -> CyclotomicElement | None:
        """``other`` as an element: a rational is the constant at this
        level, and anything else that is not an element is None."""
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.constant(self.level, other)
        return other if isinstance(other, CyclotomicElement) else None

    def __add__(self, other: CyclotomicElement | Rational) -> CyclotomicElement:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        M = math.lcm(self.level, other.level)
        return CyclotomicElement.from_terms(M, self._terms(M) + other._terms(M))

    __radd__ = __add__

    def __neg__(self) -> CyclotomicElement:
        return CyclotomicElement.from_terms(self.level, ((j, -c) for j, c in self._terms(self.level)))

    def __sub__(self, other: CyclotomicElement | Rational) -> CyclotomicElement:
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other: Rational) -> CyclotomicElement:
        return (-self) + other

    def __mul__(self, other: CyclotomicElement | Rational) -> CyclotomicElement:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        M = math.lcm(self.level, other.level)
        b = other._terms(M)
        return CyclotomicElement.from_terms(M, ((i + j, ca * cb) for i, ca in self._terms(M) for j, cb in b))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """True iff the element is zero in Q(zeta_level).

        Denominators are cleared first, so the test runs on integers.
        """
        den = math.lcm(*(c.denominator for c in self.coeffs))
        terms = {j: v for j, c in enumerate(self.coeffs) if (v := int(c * den))}
        return _vanishes(self.level, _primes(self.level), terms)

    def __eq__(self, other: object) -> bool:
        other = self._operand(other)
        return NotImplemented if other is None else (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CyclotomicElement is not hashable (equality is the exact zero test)")

    def __repr__(self) -> str:
        terms = [f"{c}*z^{j}" for j, c in self._terms(self.level)]
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
    of q never vanish.  Two terms are answered directly: c * zeta^i +
    d * zeta^j with c, d nonzero and i != j vanishes exactly when
    zeta^(i-j) = -d/c, a rational root of unity other than 1, so -1: when
    c = d and i - j = level/2 mod level.
    """
    if level == 1 or len(terms) < primes[-1]:
        return not any(terms.values())
    if len(terms) == 2:
        (i, c), (j, d) = terms.items()
        if c and d:
            return c == d and 2 * ((i - j) % level) == level
        return not (c or d)
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


def _entries(level: int, pairs: Iterable[tuple[int, CyclotomicElement]]) -> tuple[int, list]:
    """(den, entries): den the lcm of the coefficients' denominators, and
    for each (step, coefficient) pair the coefficient lifted to ``level``
    as its nonzero entries (j, step, den * coefficient of zeta_level^j),
    read off its terms with no level-long vector."""
    lifted = []
    for step, c in pairs:
        if level % c.level:
            raise ValueError(f"coefficient levels must divide {level}")
        lifted.append((step, c._terms(level)))
    den = math.lcm(*[v.denominator for _, terms in lifted for _, v in terms])
    return den, [(j, step, v.numerator * (den // v.denominator)) for step, terms in lifted for j, v in terms]


def _shifted_sum(level: int, entries: list[tuple[int, int, int]], x: int) -> dict[int, int]:
    """Integer terms {j: c} of the sum at x of the (j, step, v) entries:
    each moves from j to j + step * x, where multiplying by
    zeta_level^(step * x) puts it.  A c may be zero where entries cancel."""
    terms: dict[int, int] = {}
    for j, step, v in entries:
        k = (j + step * x) % level
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
    steps = []
    for alpha in alphas:
        aN = alpha * N
        if aN.denominator != 1:
            raise ValueError(f"denominator of {alpha} does not divide N={N}")
        steps.append(-int(aN))
    den, entries = _entries(N, zip(steps, coeffs))
    terms = _shifted_sum(N, entries, x)
    return CyclotomicElement.from_terms(N, ((j, Fraction(v, den)) for j, v in terms.items() if v))


def zero_set_input(modulus: int, terms: Sequence[tuple[int, CyclotomicElement]]) -> tuple[int, list]:
    """(level, entries): the input of :func:`zero_set_from_input` for
    sum_t c_t * e^(2*pi*i*t*x/modulus) over the (t, c_t) pairs (t may
    repeat).  The level is the lcm of the modulus and the coefficient
    levels, and the entries are one flat list of ints (j, step, v), every
    coefficient's nonzero terms at that level over one common denominator,
    with the step level/modulus * t mod level by which its term moves per
    unit of x.  Nothing is factored and nothing level-long is built.  A
    coefficient that is not an element is refused, naming its term."""
    for t, c in terms:
        if not isinstance(c, CyclotomicElement):
            raise ValueError(f"coefficient of term {t} must be a CyclotomicElement, got {c!r}")
    level = math.lcm(modulus, *[c.level for _, c in terms])
    scale = level // modulus
    _, entries = _entries(level, [(scale * t % level, c) for t, c in terms])
    return level, entries


def zero_set_from_input(modulus: int, level: int, entries: list[tuple[int, int, int]]) -> tuple[bool, ...]:
    """The zero set over x in [0, modulus) of the exponential sum that
    :func:`zero_set_input` gave as (level, entries): one exact zero test
    per point at that level, on the entries shifted to x and added into
    one dict.  The level is factored here, once per table."""
    primes = _primes(level)
    out = []
    for x in range(modulus):
        # _shifted_sum inlined: a call per point costs about 5 % of a check
        terms: dict[int, int] = {}
        for j, step, v in entries:
            k = (j + step * x) % level
            terms[k] = terms.get(k, 0) + v
        out.append(_vanishes(level, primes, terms))
    return tuple(out)


def zero_set_table(modulus: int, terms: Sequence[tuple[int, CyclotomicElement]]) -> tuple[bool, ...]:
    """Whether sum_t c_t * e^(2*pi*i*t*x/modulus) = 0 over the (t, c_t)
    pairs (t may repeat), for x in [0, modulus): one zero test per point at
    the lcm of the modulus and the coefficient levels."""
    return zero_set_from_input(modulus, *zero_set_input(modulus, terms))
