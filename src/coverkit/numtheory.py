"""Elementary exact number theory: factorization, totients, divisors, lcm.

Everything here works with Python's arbitrary-precision integers; nothing
ever wraps.  Factorization is one routine: trial division by the primes
below 1000, then deterministic Miller-Rabin on the prime bases 2..41
(proven correct below FACTOR_BOUND by Sorenson and Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), then
Pollard-Brent rho (Brent, BIT 20, 1980) on composite cofactors.  A
cofactor at or past FACTOR_BOUND is refused with a ValueError, since no
fixed set of bases is proven there and rho may not finish.
"""

from __future__ import annotations

import math
from collections import Counter

__all__ = [
    "euler_phi",
    "divisors_of",
    "divisor_phis",
    "lcm_all",
    "factorize",
    "f_additive",
    "least_prime_factor",
    "FACTOR_BOUND",
]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    return _factorize(n)


# Miller-Rabin with these bases is exact below FACTOR_BOUND, the least
# strong pseudoprime to all of them
FACTOR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, v in enumerate(sieve) if v)


_SMALL_PRIMES = _primes_below(1000)
# an n > 1 with no prime factor below 1000 and n < 1009**2 is prime
_SMALL_PRIME_LIMIT = 1009**2


def _is_prime(n: int) -> bool:
    return n > 1 and _factorize(n) == [(n, 1)]


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..41, for odd n with no factor below 1000."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Pollard-Brent rho with
    x -> x^2 + c, products of differences batched between gcds)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"rho found no divisor of {n}")


def _factorize(n: int) -> list[tuple[int, int]]:
    """The factoring core: trial division by the primes below 1000, then
    Miller-Rabin and rho on the cofactor, refused at or past FACTOR_BOUND."""
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            out.append((p, e))
    if n == 1:
        return out
    if n < _SMALL_PRIME_LIMIT:
        return out + [(n, 1)]
    if n >= FACTOR_BOUND:
        raise ValueError(f"cofactor {n} is at or past the factoring bound {FACTOR_BOUND}")
    # no factor of n, nor of any divisor rho splits off, is below 1000
    big = []
    stack = [n]
    while stack:
        m = stack.pop()
        if m < _SMALL_PRIME_LIMIT or _strong_probable_prime(m):
            big.append(m)
        else:
            d = _rho(m)
            stack += [d, m // d]
    return out + sorted(Counter(big).items())


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
    return _factorize(m)[0][0]
