"""Elementary exact number theory: totients, divisors, lcm, cyclotomic polynomials.

Everything here works with Python's arbitrary-precision integers; nothing
ever wraps.  Factorization is plain trial division, which is more than
enough for desk-scale moduli.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "euler_phi",
    "divisors_of",
    "divisor_phis",
    "lcm_all",
    "factorize",
    "cyclotomic_poly",
    "f_additive",
    "least_prime_factor",
]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    """phi(n) = #{0 <= c < n : gcd(c, n) = 1}."""
    if n < 1:
        raise ValueError(f"euler_phi expects n >= 1, got {n}")
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def divisor_phis(n: int) -> dict[int, int]:
    """Each positive divisor d of n mapped to phi(d), from one factorization
    of n (phi is multiplicative, so no divisor is factorized again)."""
    if n < 1:
        raise ValueError(f"divisor_phis expects n >= 1, got {n}")
    out = {1: 1}
    for p, e in factorize(n):
        powers = [(p**j, p ** (j - 1) * (p - 1)) for j in range(1, e + 1)]
        out.update({d * pj: f * fj for d, f in out.items() for pj, fj in powers})
    return out


def divisors_of(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors_of expects n >= 1, got {n}")
    return sorted(divisor_phis(n))


def lcm_all(ns: list[int]) -> int:
    """Least common multiple of a nonempty list of positive integers."""
    if not ns:
        raise ValueError("lcm_all expects a nonempty list")
    return math.lcm(*ns)


def f_additive(n: int) -> int:
    """Completely additive function with value p - 1 on each prime: f(1) = 0,
    f(p1*...*pr) = sum of (pi - 1) over the factorization with multiplicity."""
    if n < 1:
        raise ValueError(f"f_additive expects n >= 1, got {n}")
    return sum(e * (p - 1) for p, e in factorize(n))


def least_prime_factor(m: int) -> int:
    """Smallest prime dividing m; requires m > 1."""
    if m <= 1:
        raise ValueError(f"least_prime_factor expects m > 1, got {m}")
    if m % 2 == 0:
        return 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return d
        d += 2
    return m


# Cyclotomic polynomials, as integer coefficient tuples (index = power).
# Computed by exact division: Phi_N = (x^N - 1) / prod_{d | N, d < N} Phi_d.
# The divisor is monic, so the quotient stays over the integers.


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return tuple(out)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> tuple[int, ...]:
    # long division by a monic divisor; remainder must come out zero
    assert den[-1] == 1
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    rem = list(num)
    for i in range(dn, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, cd in enumerate(den):
                if cd:
                    rem[i - dd + j] -= c * cd
    assert all(x == 0 for x in rem), "non-exact cyclotomic division"
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial, constant term first.

    Memoized per process; lru_cache keeps concurrent readers safe.
    """
    if N < 1:
        raise ValueError(f"cyclotomic_poly expects N >= 1, got {N}")
    if N == 1:
        return (-1, 1)
    num = [0] * (N + 1)
    num[0], num[N] = -1, 1
    den: tuple[int, ...] = (1,)
    for d in divisors_of(N):
        if d < N:
            den = _poly_mul(den, cyclotomic_poly(d))
    return _poly_div_exact(num, den)
