import math

import pytest

from coverkit.numtheory import (
    cyclotomic_poly,
    divisor_phis,
    divisors_of,
    euler_phi,
    f_additive,
    factorize,
    lcm_all,
    least_prime_factor,
)


def brute_phi(n: int) -> int:
    return sum(1 for c in range(n) if math.gcd(c, n) == 1)


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (6, 2)])
def test_euler_phi_examples(n, expected):
    assert expected == brute_phi(n)
    assert euler_phi(n) == expected


def test_euler_phi_matches_brute_count():
    for n in range(1, 300):
        assert euler_phi(n) == brute_phi(n)


def test_phi_divisor_sum_identity():
    for n in range(1, 1001):
        assert sum(euler_phi(d) for d in divisors_of(n)) == n


@pytest.mark.parametrize("n,expected", [(1, [1]), (4, [1, 2, 4]), (6, [1, 2, 3, 6])])
def test_divisors_examples(n, expected):
    assert expected == brute_divisors(n)
    assert divisors_of(n) == expected


def test_divisors_sorted_and_complete():
    for n in range(1, 200):
        assert divisors_of(n) == brute_divisors(n)


def test_divisor_phis_matches_brute():
    for n in range(1, 400):
        assert divisor_phis(n) == {d: brute_phi(d) for d in brute_divisors(n)}


def test_divisor_phis_large_modulus():
    # P is prime, so every divisor and its phi come from 6P = 2 * 3 * P
    P = 100000000003
    assert divisor_phis(6 * P) == {
        1: 1, 2: 1, 3: 2, 6: 2, P: P - 1, 2 * P: P - 1, 3 * P: 2 * (P - 1), 6 * P: 2 * (P - 1)
    }  # fmt: skip
    assert divisors_of(6 * P) == [1, 2, 3, 6, P, 2 * P, 3 * P, 6 * P]
    with pytest.raises(ValueError):
        divisor_phis(0)


@pytest.mark.parametrize(
    "ns,expected", [([2, 4, 6], 12), ([5], 5), ([2, 3, 5, 7, 11, 13], 30030)]
)
def test_lcm_examples(ns, expected):
    assert lcm_all(ns) == expected


def test_lcm_does_not_wrap():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert lcm_all(primes) == math.prod(primes)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(30030) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]


@pytest.mark.parametrize(
    "N,expected",
    [(1, (-1, 1)), (4, (1, 0, 1)), (6, (1, -1, 1))],
)
def test_cyclotomic_small(N, expected):
    assert cyclotomic_poly(N) == expected


def test_cyclotomic_degree_is_phi():
    for N in range(1, 201):
        assert len(cyclotomic_poly(N)) - 1 == euler_phi(N)


def test_cyclotomic_product_identity():
    for N in range(1, 101):
        prod = [1]
        for d in divisors_of(N):
            prod = poly_mul(prod, cyclotomic_poly(d))
        expected = [0] * (N + 1)
        expected[0], expected[N] = -1, 1
        assert prod == expected


@pytest.mark.parametrize("N", [27720, 55440])
def test_cyclotomic_large_highly_composite(N):
    # Phi_N(x) = Phi_rad(N)(x^(N/rad N)), rad N the product of the primes of N
    rad = math.prod(p for p, _ in factorize(N))
    phi = cyclotomic_poly(N)
    assert len(phi) - 1 == euler_phi(N)
    spread = [0] * len(phi)
    for j, c in enumerate(cyclotomic_poly(rad)):
        spread[j * (N // rad)] = c
    assert list(phi) == spread


def test_f_additive_examples():
    assert f_additive(1) == 0
    for p in (2, 3, 5, 7, 11, 13):
        assert f_additive(p) == p - 1
    assert f_additive(12) == 4


def test_f_additive_is_completely_additive():
    for m in range(1, 101):
        for n in range(1, 101):
            assert f_additive(m * n) == f_additive(m) + f_additive(n)


@pytest.mark.parametrize("m,expected", [(2, 2), (35, 5), (30030, 2), (49, 7), (97, 97)])
def test_least_prime_factor(m, expected):
    assert least_prime_factor(m) == expected


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        divisors_of(0)
    with pytest.raises(ValueError):
        lcm_all([])
    with pytest.raises(ValueError):
        f_additive(0)
    with pytest.raises(ValueError):
        least_prime_factor(1)
    with pytest.raises(ValueError):
        cyclotomic_poly(0)
