import math
import random
from fractions import Fraction

import pytest

from coverkit import System, cover_count, multiples_set
from coverkit.cyclotomic import (
    CyclotomicElement,
    exp_sum_eval,
    indicator_sum_check,
    root_power,
)

F = Fraction


def random_element(rng, level):
    coeffs = tuple(
        F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.5 else F(0)
        for _ in range(level)
    )
    return CyclotomicElement(level, coeffs)


def test_root_power_examples():
    assert root_power(1, 5) == 1
    assert root_power(2, 1) == -1
    assert root_power(4, 6) == -1


def test_ring_ops_examples():
    a = random_element(random.Random(3), 6)
    assert (a + CyclotomicElement.zero(6)) == a
    assert root_power(3, 1) * root_power(3, 2) == 1
    z4 = root_power(4, 1)
    assert (1 + z4) * (1 - z4) == 2


@pytest.mark.parametrize(
    "level,terms",
    [
        (1, []),
        (1, [(5, F(2)), (-3, F(-1, 2))]),
        (6, [(0, F(1))]),
        (6, [(-1, F(1, 2)), (-7, F(1, 3))]),  # negative, and the same entry twice
        (6, [(2, F(3)), (2, F(-3)), (8, F(1))]),  # repeats cancel, 8 = 2 mod 6
        (6, [(6, F(5)), (12, F(0)), (1, F(0))]),  # exponents past the level, zero coefficients
        (7, [(j * 3 - 10, F(j - 2, j + 1)) for j in range(15)]),
        (12, [(0, 1), (11, -2), (-13, 3)]),  # int coefficients
    ],
)
def test_from_terms_equals_the_dense_sum(level, terms):
    built = CyclotomicElement.from_terms(level, terms)
    dense = CyclotomicElement.zero(level)
    for j, c in terms:
        dense = dense + root_power(level, j) * c
    assert built == dense
    assert built.level == level and built.coeffs == dense.coeffs


def test_from_terms_rejects_a_nonpositive_level():
    for level in (0, -3):
        with pytest.raises(ValueError, match="level must be positive"):
            CyclotomicElement.from_terms(level, [(1, F(1))])


def test_level_lifting():
    # zeta_2 = zeta_4^2 = zeta_12^6
    assert root_power(2, 1) == root_power(4, 2)
    assert root_power(2, 1) == root_power(12, 6)
    assert root_power(2, 1) + root_power(3, 1) == root_power(6, 3) + root_power(6, 2)
    with pytest.raises(ValueError):
        root_power(2, 1).lift(3)


def test_is_zero_examples():
    assert (1 + root_power(2, 1)).is_zero()
    assert (1 + root_power(3, 1) + root_power(3, 2)).is_zero()
    assert not (1 + root_power(3, 1)).is_zero()


def test_is_zero_full_residue_sums():
    # sum of all N-th roots of unity vanishes for N > 1
    for N in range(2, 30):
        total = CyclotomicElement.zero(N)
        for j in range(N):
            total = total + root_power(N, j)
        assert total.is_zero()


def test_ring_properties_random():
    rng = random.Random(1812)
    for _ in range(30):
        level = rng.randint(1, 10)
        a, b, c = (random_element(rng, level) for _ in range(3))
        assert (a * (b + c)) == (a * b + a * c)
        assert (a - a).is_zero()
        assert (a * b) == (b * a)


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(root_power(3, 1))


def test_indicator_sum_exhaustive():
    for N in range(1, 61):
        for n in range(1, N + 1):
            if N % n:
                continue
            for a in range(-2 * N, 2 * N + 1):
                assert indicator_sum_check(N, n, a)


def test_indicator_sum_rejects_non_divisor():
    with pytest.raises(ValueError):
        indicator_sum_check(12, 5, 1)


def test_exp_sum_eval_examples():
    zero = [CyclotomicElement.zero(1)]
    assert exp_sum_eval(zero, [F(1, 2)], 7, 2).is_zero()
    v = exp_sum_eval([CyclotomicElement.constant(1, 1)], [F(1, 2)], 3, 2)
    assert v == -1


def test_exp_sum_eval_preconditions():
    one = CyclotomicElement.constant(1, 1)
    with pytest.raises(ValueError):
        exp_sum_eval([one, one], [F(1, 2), F(1, 2)], 0, 2)
    with pytest.raises(ValueError):
        exp_sum_eval([one], [F(1, 3)], 0, 2)


def test_exp_sum_reproduces_covering_function():
    # the coefficient expansion of a weighted system evaluates back to w(x)
    rng = random.Random(404)
    for _ in range(10):
        k = rng.randint(1, 4)
        system = System.of(
            *(
                (rng.randrange(6), rng.randint(1, 6), rng.choice((F(1), F(-1), F(1, 2))))
                for _ in range(k)
            )
        )
        alphas = list(multiples_set(system.moduli))
        N = math.lcm(*(a.denominator for a in alphas))
        coeffs = []
        for alpha in alphas:
            c = CyclotomicElement.zero(N)
            for s in system.seqs:
                if (alpha * s.modulus).denominator == 1:
                    c = c + root_power(N, int(alpha * N) * s.residue) * F(
                        s.weight, s.modulus
                    )
            coeffs.append(c)
        for x in range(N):
            assert exp_sum_eval(coeffs, alphas, x, N) == cover_count(system, x)


def pick_alphas(rng, n_terms, lcm_cap):
    while True:
        alphas = set()
        while len(alphas) < n_terms:
            q = rng.randint(1, 12)
            alphas.add(F(rng.randrange(q), q))
        alphas = sorted(alphas)
        N = math.lcm(*(a.denominator for a in alphas))
        if N <= lcm_cap:
            return alphas, N


def test_vanishing_on_window_iff_everywhere():
    # n distinct exponentials vanishing on n consecutive integers vanish
    # identically; exercised both ways (lcm of denominators kept small so
    # the exhaustive sweep stays exact and fast)
    rng = random.Random(777)
    for trial in range(30):
        n_terms = rng.randint(1, 6)
        if trial % 2 == 0:
            alphas, N = pick_alphas(rng, n_terms, 360)
            coeffs = [CyclotomicElement.zero(1) for _ in alphas]
            h = rng.randint(-20, 20)
            window = [exp_sum_eval(coeffs, alphas, x, N) for x in range(h, h + n_terms)]
            assert all(v.is_zero() for v in window)
            assert all(exp_sum_eval(coeffs, alphas, x, N).is_zero() for x in range(N))
        else:
            alphas, N = pick_alphas(rng, n_terms, 120)
            coeffs = [
                CyclotomicElement.constant(1, rng.choice((1, -1, F(1, 2), 2)))
                for _ in alphas
            ]
            full = [exp_sum_eval(coeffs, alphas, x, N) for x in range(N)]
            assert not all(v.is_zero() for v in full)
            h = rng.randint(-20, 20)
            window = [exp_sum_eval(coeffs, alphas, x, N) for x in range(h, h + n_terms)]
            assert not all(v.is_zero() for v in window)
