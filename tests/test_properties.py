"""Property tests: the factorizer against trial division and a sieve, the
file parsers against round trips and fuzzed text, the integer sumsets and
exp-sum membership tables against Fraction arithmetic, window lengths from
gcds against the factored divisor union and closed forms, the Q(zeta) zero
test against long division by the cyclotomic polynomial, window verdicts
against the full-period oracle at every kernel width, on exact ints and on
lists, periodicity mod a vector against the box oracle, and fuzzed CLI
checks against the oracle and their own witnesses.

Every test runs derandomized (the examples are a function of the test
code) and without a deadline, so a run is reproducible and a slow machine
fails nothing.
"""

import contextlib
import copy
import io
import math
import operator
import pickle
import random
import sys
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coverkit import _kernels
from coverkit import (
    CyclotomicElement,
    ExpSumSequence,
    MultiSequence,
    PeriodicValueTable,
    System,
    Verdict,
    WeightedSequence,
    cover_count,
    cover_table,
    cover_values,
    decide_periodic_by_divisibility,
    equal_cover_superset_check,
    exp_sum_eval,
    fraction_set,
    is_periodic_mod_vec,
    least_prime_factor,
    min_on_window,
    multidim_value,
    multiples_set,
    phi_sum_cardinality,
    root_power,
    subset_sum_set,
    sumset_mod1,
    verify_covering_function,
    weighted_average_check,
    window_bound,
    window_zero_check,
    zero_system_coefficients,
)
from coverkit.cyclotomic import _primes, _vanishes, zero_set_table
from coverkit.fracsets import divisor_union_phis
from coverkit.cli import ParseError, SystemFile, parse_coefficient_file, parse_system, run_command
from coverkit.numtheory import FACTOR_BOUND, _is_prime, divisors_of, factorize
from coverkit.oracle import (
    brute_cover_verdict,
    brute_least_period,
    brute_periodic_mod_vec,
    brute_tables_zero_verdict,
)

from helpers import (
    SCAN_SETTINGS,
    column_values,
    columns_reference,
    digit_values,
    first_nonzero_reference,
    indexed_values,
    kernel_widths,
    plan_reference,
    prime_sieve,
    record_columns,
    rolled_periodicity,
    sequence_table,
    subset_sum_set_reference,
    sumset_reference,
    trial_division_factorize,
    vanishes_reference,
    window_bound_reference,
)

PROPERTY = settings(derandomize=True, deadline=None, database=None)
BOUND_TEXT = str(FACTOR_BOUND)


def prime_at_most(n: int) -> int:
    """The largest prime p <= n, for n >= 2."""
    while trial_division_factorize(n) != [(n, 1)]:
        n -= 1
    return n


# --- factorizer ---------------------------------------------------------------


@PROPERTY
@given(st.integers(1, 10**12 - 1))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division_factorize(n)


@PROPERTY
@given(st.integers(2, 10**7 - 1).map(prime_at_most), st.integers(2, 10**7 - 1).map(prime_at_most))
def test_factorize_products_of_two_primes(p, q):
    expected = [(p, 2)] if p == q else sorted([(p, 1), (q, 1)])
    assert factorize(p * q) == expected


def test_primality_matches_sieve_below_1e5():
    sieve = prime_sieve(10**5)
    assert [n for n in range(10**5) if _is_prime(n)] == [n for n in range(10**5) if sieve[n]]


@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051, 318665857834031151167461])
def test_strong_pseudoprimes_are_composite(n):
    """Each is the least strong pseudoprime to the first 1, 4, 9 and 12
    prime bases; the 13 bases 2..41 expose all of them."""
    assert not _is_prime(n)
    factors = factorize(n)
    assert len(factors) > 1 and all(_is_prime(p) for p, _ in factors)
    product = 1
    for p, e in factors:
        product *= p**e
    assert product == n


def test_large_numbers_factor():
    assert factorize(2**100 * 3**5) == [(2, 100), (3, 5)]
    assert factorize(720720**5) == [(2, 20), (3, 10), (5, 5), (7, 5), (11, 5), (13, 5)]
    assert factorize(10**16 + 61) == [(10**16 + 61, 1)]
    # powers of primes past the trial-division table go through rho
    assert factorize(1009**3 * 1013) == [(1009, 3), (1013, 1)]
    assert factorize(7 * (2**31 - 1) ** 2) == [(7, 1), (2**31 - 1, 2)]


def test_cofactor_past_the_bound_is_refused():
    # FACTOR_BOUND itself is the least strong pseudoprime to every base
    # 2..41, so the primality test may not claim it
    for call in (
        lambda: factorize(2**89 - 1),
        lambda: factorize(FACTOR_BOUND),
        lambda: _is_prime(FACTOR_BOUND),
        lambda: PeriodicValueTable(3, (0, 1, 2), char=2**89 - 1),
    ):
        with pytest.raises(ValueError, match=BOUND_TEXT):
            call()
    # trial division leaves no cofactor of 2**100, so it still factors;
    # 2 * (2**89 - 1) leaves one past the bound, even for its least prime
    assert not _is_prime(2**100)
    with pytest.raises(ValueError, match=BOUND_TEXT):
        least_prime_factor(2 * (2**89 - 1))


# --- fraction sets on one denominator -------------------------------------------

# mixed denominators, values outside [0, 1) before reduction, and sets of
# zero, one or a few elements
fractions = st.fractions(-2, 2, max_denominator=30)
fraction_sets = st.lists(fractions, max_size=4).map(fraction_set)


@PROPERTY
@given(st.lists(fraction_sets, min_size=1, max_size=6), st.data())
def test_window_bound_matches_fraction_reference(R_sets, data):
    m = data.draw(st.integers(1, len(R_sets)))
    assert window_bound(R_sets, m) == window_bound_reference(R_sets, m)


@PROPERTY
@given(st.lists(fractions, max_size=8), fraction_sets, fraction_sets)
def test_subset_sums_and_sumsets_match_fraction_reference(terms, A, B):
    assert subset_sum_set(terms) == subset_sum_set_reference(terms)
    assert sumset_mod1(A, B) == sumset_reference(A, B)


# --- window lengths from gcds against the divisor union ---------------------------


def maximal_moduli(moduli):
    return [n for n in moduli if not any(m != n and m % n == 0 for m in moduli)]


DIVISORS_720720 = divisors_of(720720)
window_moduli = st.one_of(
    st.lists(st.integers(1, 10**9), min_size=1, max_size=8),
    st.lists(st.integers(1, 10**4), min_size=1, max_size=4).flatmap(
        lambda ms: st.lists(st.sampled_from(ms), min_size=1, max_size=12)
    ),
    st.lists(st.sampled_from(DIVISORS_720720), min_size=1, max_size=12),
    st.lists(st.sampled_from(DIVISORS_720720), min_size=1, max_size=16).map(maximal_moduli),
)


@PROPERTY
@given(window_moduli)
def test_window_length_matches_the_divisor_union(moduli):
    assert phi_sum_cardinality(moduli) == sum(divisor_union_phis(moduli).values())


@PROPERTY
@given(st.integers(FACTOR_BOUND, 2**200), st.integers(1, 2**200))
@example(2**89 - 1, 2**127 - 1 - (2**89 - 1))
def test_window_length_of_coprime_moduli_past_the_factoring_bound(n1, step):
    n2 = n1 + step
    assume(math.gcd(n1, n2) == 1)
    assert phi_sum_cardinality([n1, n2]) == n1 + n2 - 1


@PROPERTY
@given(st.integers(0, 300), st.integers(0, 300))
def test_window_length_of_a_prime_power_pair(a, b):
    # (1/n1)Z/Z and (1/n2)Z/Z meet in (1/2^min(a,b))Z/Z
    assert phi_sum_cardinality([3 * 2**a, 5 * 2**b]) == 3 * 2**a + 5 * 2**b - 2 ** min(a, b)


# --- exp-sum membership tables ------------------------------------------------

# mostly zero, so coefficients are sparse; non-unit rationals throughout
rationals = st.sampled_from([0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(-5, 6)])


def alphas_of(es: ExpSumSequence) -> list[Fraction]:
    """exp_sum_eval's z^x is exp(-2 pi i alpha x), so e(t x / n) has alpha = -t/n."""
    return [Fraction(-t, es.modulus) % 1 for t, _ in es.terms]


@st.composite
def exp_sum_sequences(draw) -> ExpSumSequence:
    """Up to three terms whose coefficients are random rational vectors;
    half the time the last coefficient cancels the others at some x0, so
    the zero set is not empty."""
    n, level = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    ts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    vector = st.lists(rationals.map(Fraction), min_size=level, max_size=level).map(tuple)
    coeffs = [CyclotomicElement(level, draw(vector)) for _ in ts]
    es = ExpSumSequence(n, tuple(zip(ts, coeffs)))
    if len(ts) > 1 and draw(st.booleans()):
        x0, N = draw(st.integers(0, n - 1)), math.lcm(n, level)
        rest = exp_sum_eval(coeffs[:-1], alphas_of(es)[:-1], x0, N)
        coeffs[-1] = -rest * root_power(N, -ts[-1] * x0 * (N // n))
        es = ExpSumSequence(n, tuple(zip(ts, coeffs)))
    return es


# (1/2*z^3 - 1/3) + 5/6 e(x/4) at level 6 is -5/6 + 5/6 e(x/4), zero only at x = 0 mod 4
HALF_Z3_MINUS_THIRD = ExpSumSequence(
    4,
    (
        (0, CyclotomicElement(6, (Fraction(-1, 3), 0, 0, Fraction(1, 2), 0, 0))),
        (1, CyclotomicElement.constant(1, Fraction(5, 6))),
    ),
)


@PROPERTY
@example(HALF_Z3_MINUS_THIRD)
@given(exp_sum_sequences())
def test_membership_table_matches_exp_sum_eval(es):
    N = math.lcm(es.modulus, *(c.level for _, c in es.terms))
    coeffs, alphas = [c for _, c in es.terms], alphas_of(es)
    expected = tuple(exp_sum_eval(coeffs, alphas, x, N).is_zero() for x in range(es.modulus))
    assert es.membership_table() == expected


def test_membership_table_with_non_unit_rationals():
    assert HALF_Z3_MINUS_THIRD.membership_table() == (True, False, False, False)


# --- the Q(zeta) zero test against long division by Phi ---------------------------


def radical(n: int) -> int:
    return math.prod(p for p, _ in trial_division_factorize(n))


# levels with repeated primes, with distinct primes, and prime levels,
# drawn a third of the time each; the bounds keep the dense reference fast
LEVELS = st.one_of(
    st.sampled_from([d for d in divisors_of(720720) if d <= 5040 and radical(d) <= 2310]),
    st.sampled_from([d for d in divisors_of(30030) if d <= 2310]),
    st.sampled_from([2, 3, 5, 7, 11, 13, 97, 997, 10007]),
)


@st.composite
def cyclotomic_terms(draw):
    """(level, {j: c}) with integer c, 0 included where terms cancel, a
    quarter each: random terms; a sum of planted cosets
    c * sum_u zeta^(j0 + u*level/d), each of which vanishes; the same with
    one exponent dropped; the same under random terms.  At a prime level a
    coset with d = level has full support."""
    level = draw(LEVELS)
    terms: dict[int, int] = {}

    def add(j, c):
        terms[j % level] = terms.get(j % level, 0) + c

    orders = [d for d in divisors_of(level) if d > 1]
    kind = draw(st.sampled_from(["random", "planted", "dropped", "covered"] if orders else ["random"]))
    if kind != "random":
        for _ in range(draw(st.integers(1, 3))):
            d, j0 = draw(st.sampled_from(orders)), draw(st.integers(0, level - 1))
            c = draw(st.integers(-3, 3).filter(bool))
            for u in range(d):
                add(j0 + u * (level // d), c)
    if kind == "dropped":
        del terms[draw(st.sampled_from(sorted(terms)))]
    if kind in ("random", "covered"):
        pairs = st.tuples(st.integers(0, level - 1), st.integers(-3, 3))
        for j, c in draw(st.lists(pairs, min_size=1, max_size=6)):
            add(j, c)
    return level, terms


FULL_PRIME = {j: 2 for j in range(10007)}


@settings(PROPERTY, max_examples=400)
@example((10007, FULL_PRIME))
@example((10007, {**FULL_PRIME, 5: 3}))
@example((720, {0: 2, 360: 1, 240: 1, 480: 1}))  # (1 + zeta_2) + (1 + zeta_3 + zeta_3^2) = 0
@example((15, {0: 1, 6: 1, 12: 1, 3: 1}))  # four of the five groups mod 5 equal, one empty
# two terms: c * zeta^i + d * zeta^j vanishes iff c = d and i - j = level/2
@example((8, {0: 3, 4: 3}))
@example((8, {0: 3, 4: -3}))
@example((8, {1: 2, 5: 3}))
@example((8, {2: 0, 6: 3}))  # a zero coefficient: one term left, which does not vanish
@example((8, {2: 0, 6: 0}))
@example((9, {1: 2, 5: 2}))  # odd level: no exponent is level/2
@example((12, {1: -2, 7: -2}))
@given(cyclotomic_terms())
def test_zero_test_matches_division_by_phi(case):
    level, terms = case
    expected = vanishes_reference(level, terms)
    assert _vanishes(level, _primes(level), terms) == expected
    assert CyclotomicElement.from_terms(level, terms.items()).is_zero() == expected


# --- stored vectors of ring results against a dense reference ----------------------


def dense_vector(level: int, terms) -> list[Fraction]:
    v = [Fraction(0)] * level
    for j, c in terms:
        v[j % level] += c
    return v


def dense_lift(v: list[Fraction], M: int) -> list[Fraction]:
    return dense_vector(M, ((j * (M // len(v)), c) for j, c in enumerate(v)))


elements = st.tuples(
    st.sampled_from(divisors_of(360)),
    st.lists(st.tuples(st.integers(-720, 720), st.fractions(-3, 3, max_denominator=6)), max_size=8),
)


@PROPERTY
@example((12, [(1, Fraction(1)), (13, Fraction(-1))]), (8, [(3, Fraction(1, 2))]), 5)  # a cancelling repeat
@given(elements, st.one_of(elements, st.fractions(-3, 3, max_denominator=6)), st.integers(1, 12))
def test_ring_results_store_the_dense_vector(a_case, b_case, k):
    """The stored coefficient vector of a + b, a * b, -a and a lifted to a
    multiple of its level, entry by entry against plain lists of Fractions
    (a rational b is the constant at level 1).  Equality in Q(zeta) would
    accept any vector with the same value."""
    a = CyclotomicElement.from_terms(*a_case)
    u = dense_vector(*a_case)
    if isinstance(b_case, Fraction):
        b, w = b_case, [b_case]
    else:
        b, w = CyclotomicElement.from_terms(*b_case), dense_vector(*b_case)
    M = math.lcm(len(u), len(w))
    U, W = dense_lift(u, M), dense_lift(w, M)
    product = dense_vector(M, ((i + j, x * y) for i, x in enumerate(U) if x for j, y in enumerate(W) if y))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(U, W))
    assert (a * b).coeffs == tuple(product)
    assert (-a).coeffs == tuple(-x for x in u)
    assert a.lift(a.level * k).coeffs == tuple(dense_lift(u, a.level * k))


# --- window verdicts against the oracle -----------------------------------------

# small weights, and weights whose scaled sums pass the int64 guard
weights_or_huge = st.one_of(
    st.fractions(-6, 6, max_denominator=6),
    st.sampled_from([Fraction(2**61), Fraction(-(2**62)), Fraction(2**62, 3)]),
)
weighted_systems = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(1, 12), weights_or_huge), min_size=1, max_size=6
).map(lambda entries: System.of(*entries))


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
@PROPERTY
@given(weighted_systems, st.sampled_from(["own", "changed", "constant"]), st.integers(-50, 50), st.data())
def test_window_verdicts_match_oracle(setting, system, kind, start, data):
    """verify_covering_function and window_zero_check, as shipped, in
    int64 only, on exact Python ints in numpy (guard 1), with every window
    on lists of Python ints, or with none, against full-period scans on
    exact Python ints, for the covering function on its least period
    (true), that table changed at one point (false), or a constant."""
    full = cover_table(system)
    n0 = brute_least_period(full)
    target = PeriodicValueTable(n0, full.values[:n0])
    if kind == "changed":
        values = list(target.values)
        values[data.draw(st.integers(0, n0 - 1))] += data.draw(fractions.filter(bool))
        target = PeriodicValueTable(n0, tuple(values))
    elif kind == "constant":
        target = PeriodicValueTable.constant(data.draw(fractions))
    negated = PeriodicValueTable(target.period, tuple(-v for v in target.values))
    tables = [sequence_table(s.residue, s.modulus, weight=s.weight) for s in system.seqs] + [negated]
    with kernel_widths("guard-1"):
        oracle = brute_cover_verdict(system, target).ok
        assert brute_tables_zero_verdict(tables).ok == oracle
    with kernel_widths(setting):
        verdict = verify_covering_function(system, target, start)
        assert verdict.ok == oracle
        assert window_zero_check(tables, start).ok == oracle
    if kind != "constant":
        assert verdict.ok == (kind == "own")
    if not verdict.ok:
        x = verdict.witness
        assert x >= start and cover_count(system, x) != target.value_at(x)


# --- hypothesis checks on windows against full-period scans ---------------------


@st.composite
def unweighted_cases(draw):
    """(system, k0, equal, mults, splits): a random unweighted system of k0
    classes with moduli up to 12 (lcm at most 27720), a unit multiplier
    and a split count in 1..3 for each of them.  When its lcm is at most 60
    it is completed to an equal cover (equal true) half the time, by
    adding x(N) as often as w(x) falls short of the maximum of w."""
    entries = draw(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), min_size=1, max_size=6))
    units = [[u for u in range(1, n + 1) if math.gcd(u, n) == 1] for _, n in entries]
    mults = [draw(st.sampled_from(us)) for us in units]
    splits = [draw(st.integers(1, 3)) for _ in entries]
    system = System.of(*entries)
    N = system.lcm()
    equal = N <= 60 and draw(st.booleans())
    if equal:
        counts = cover_values(system, 0, N)
        top = max(counts)
        system = System.of(*entries, *((x, N) for x, c in enumerate(counts) for _ in range(top - c)))
    return system, len(entries), equal, mults, splits


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
@settings(PROPERTY, max_examples=60)
# l = k with every modulus 1: answered with no window
@example((System.of((0, 1), (3, 1)), 2, False, [1, 1], [1, 2]), 2, 2**70, True)
@given(unweighted_cases(), st.integers(0, 7), st.one_of(st.integers(-50, 50), st.just(2**70)), st.booleans())
def test_hypothesis_checks_match_full_period_scans(setting, case, l, start, drop):
    """min_on_window, zero_system_coefficients and
    equal_cover_superset_check decide their hypotheses on windows, under
    every scan setting, as full-period scans on exact Python ints do.  Both
    minima are the full-period minimum whenever l is at most it, and l is
    refused otherwise.  w vanishes for the system less a refinement of
    itself (each class a(n) split into r classes mod r*n), and not when
    one class of that refinement is left out (``drop``).  The equal-cover
    hypothesis holds exactly where w = w(0) on the full period."""
    system, k0, equal, mults, splits = case
    base = System(system.seqs[:k0])
    refined = [(s.residue + j * s.modulus, r * s.modulus, -1) for s, r in zip(base.seqs, splits) for j in range(r)]
    candidate = System(base.seqs + tuple(WeightedSequence(*e) for e in refined[: len(refined) - drop]))
    zero = PeriodicValueTable.constant(0)
    with kernel_widths("guard-1"):
        full_min = min(_kernels.exact_values(base._classes, 0, base.lcm())[0])
        is_zero = brute_cover_verdict(candidate, zero).ok
        is_equal = brute_cover_verdict(system, PeriodicValueTable.constant(cover_count(system, 0))).ok
    assert is_zero != drop and is_equal >= equal and not brute_cover_verdict(base, zero).ok
    with kernel_widths(setting):
        if l <= full_min:
            W_l, window_min, global_min = min_on_window(base, mults, l, start)
            assert W_l >= 1 and window_min == global_min == full_min
        else:
            with pytest.raises(ValueError, match="exceeds the minimum coverage"):
                min_on_window(base, mults, l, start)
        with pytest.raises(ValueError, match="not identically zero"):
            zero_system_coefficients(base)
        if is_zero:
            pairs = zero_system_coefficients(candidate)
            assert [a for a, _ in pairs] == list(multiples_set(candidate.moduli))
        else:
            with pytest.raises(ValueError, match="not identically zero"):
                zero_system_coefficients(candidate)
        if is_equal:
            equal_cover_superset_check(system)
        else:
            with pytest.raises(ValueError, match="equally often"):
                equal_cover_superset_check(system)


# --- periodicity mod a vector against the box oracle ---------------------------

# components whose lcm is at most 24, so most period boxes stay small
COMPONENTS = [1, 2, 3, 4, 6, 8, 12]


@st.composite
def periodicity_cases(draw):
    """(seqs, n0) in dimension 1 to 3.  Some classes, whose modulus is the
    lcm of the others' doubled on some axes, come with a copy of opposite
    weight: they cancel from w but not from the moduli's lcm N.  Half the time n0
    is a multiple of the lcm of the other classes, so w is periodic mod n0
    although n0 need not be a multiple of N; otherwise n0_t is a small
    integer or a divisor of that lcm, times 1 to 3, so that many shifts do
    not divide N_t.  Boxes past 20000 points are discarded."""
    l = draw(st.integers(1, 3))
    residues = st.tuples(*[st.integers(-20, 20)] * l)
    components = st.tuples(*[st.sampled_from(COMPONENTS)] * l)
    kept = draw(st.lists(st.tuples(residues, components, weights_or_huge), min_size=1, max_size=4))
    lcms = [math.lcm(*col) for col in zip(*(n for _, n, _ in kept))]
    doubled = st.tuples(*[st.sampled_from([1, 2])] * l).map(lambda m: tuple(map(operator.mul, lcms, m)))
    cancelled = draw(st.lists(st.tuples(residues, doubled, weights_or_huge), max_size=2))
    seqs = [MultiSequence(*e) for e in kept + cancelled] + [MultiSequence(a, n, -w) for a, n, w in cancelled]
    periodic = draw(st.booleans())
    n0 = tuple(
        draw(
            st.builds(
                operator.mul,
                st.just(N) if periodic else st.one_of(st.integers(1, 30), st.sampled_from(divisors_of(N))),
                st.integers(1, 3),
            )
        )
        for N in lcms
    )
    assume(math.prod(math.lcm(c, *col) for c, col in zip(n0, zip(*(s.modulus for s in seqs)))) <= 20000)
    return seqs, n0


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
@settings(PROPERTY, max_examples=30)
# w = 1 on 3, 4 and 11 mod 12, shifted by 8: the pairs that stay in the box
# agree, and the first that differs, 4 against 12 = 0 mod 12, wraps round it
@example(([MultiSequence((a, 0), (12, 1)) for a in (3, 4, 11)], (8, 1)))
# n0 a multiple of the moduli on every axis: no axis needs a check
@example(([MultiSequence((0, 1), (2, 3)), MultiSequence((1, 0), (4, 1), Fraction(1, 2))], (8, 6)))
# the classes mod (3, 1) cancel: periodic, though axis 0 is scanned
@example(([MultiSequence((0, 0), (2, 1)), MultiSequence((1, 0), (3, 1)), MultiSequence((1, 0), (3, 1), -1)], (2, 1)))
@given(periodicity_cases())
def test_periodicity_matches_box_oracle(setting, case):
    """is_periodic_mod_vec on its window, under every scan setting, gives
    the verdict and the witness (the first mismatch in C order) of the full
    box scan; decide_periodic_by_divisibility agrees wherever its
    hypotheses hold."""
    seqs, n0 = case
    oracle = brute_periodic_mod_vec(seqs, n0)
    with kernel_widths(setting):
        verdict = is_periodic_mod_vec(seqs, n0)
        try:
            decision = decide_periodic_by_divisibility(seqs, n0)
        except ValueError:  # a zero weight or a duplicated maximal modulus
            decision = oracle.ok
    assert verdict == oracle and decision == oracle.ok
    if not verdict.ok:
        x, y = verdict.witness
        steps = [(t, yt - xt) for t, (xt, yt) in enumerate(zip(x, y)) if xt != yt]
        assert len(steps) == 1 and steps[0][1] == n0[steps[0][0]]
        assert multidim_value(seqs, x) != multidim_value(seqs, y)


# --- chunk edges of the full-period first-nonzero scan ------------------------


def chunk_edges() -> list[int]:
    """Offsets from the start at which a chunked full-period scan moves to
    its next chunk, up to the second chunk of the largest size."""
    sizes = [min(_kernels._CHUNK << i, _kernels._CHUNK_MAX) for i in range(7)]
    return list(accumulate(sizes))[:-1]


@settings(PROPERTY, max_examples=4)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 5, 2**31 - 1]),
    st.booleans(),
    st.one_of(st.integers(-(10**6), -1), st.integers(-(10**6), 10**6).map(lambda d: 2**70 + d)),
)
def test_chunked_scan_finds_witnesses_at_chunk_edges(seed, char, huge, start):
    """A full-period first-nonzero scan longer than one chunk, under every
    scan setting, returns the first nonzero point that a pointwise
    evaluation finds, for a witness planted at offset 0 and 1 and at each
    chunk edge and one point either side of it, and None for the vanishing
    input without one.  Classes with moduli 2**13 to 2**14 (over Q) or
    tables of those periods (over F_p) cancel against tables at 1 to 3
    times their period, and over Q a class of a modulus past the length
    cancels against its split into two classes.  The witness is a class
    (over Q) or a table entry (over F_p) of a period past its offset, so
    the planted point is the first nonzero one; past the last edges that
    period, and so its row, is longer than 2**17.  ``huge`` scales the
    values past the int64 guard."""
    rng = random.Random(seed)
    scale, dtype = (2**62 + 1, object) if huge and not char else (1, "int64")
    edges = chunk_edges()
    classes, tables = ([], [], []), []
    for _ in range(rng.randint(1, 2)):
        n, c = rng.randint(2**13, 2**14), rng.randint(1, 3)
        if char:
            row = [rng.randrange(char) for _ in range(n)]
            tables += [row, [-row[x % n] % char for x in range(c * n)]]
        else:
            a, w = rng.randrange(n), rng.choice((1, -1, 2, -3)) * scale
            for part, v in zip(classes, (a, n, w)):
                part.append(v)
            tables.append([w if x % n == a else 0 for x in range(c * n)])
    length = rng.randint(edges[-1] + 2**13 + 1, edges[-1] + 2**14)
    if not char:
        # a class of a modulus n past the length, which hits the scan at
        # most once, against its split into two classes mod 2n; like every
        # class, all three fold, into one row of period 2n
        n = rng.randint(length + 1, 2 * length)
        a, w = rng.randrange(n), rng.choice((1, -1)) * scale
        for part, v in zip(classes, ((a, a, a + n), (n, 2 * n, 2 * n), (w, -w, -w))):
            part.extend(v)
    base = indexed_values(classes, tables, start, length, dtype)
    assert first_nonzero_reference(base, start, char) is None
    for offset in (None, 0, 1, *(e + d for e in edges for d in (-1, 0, 1))):
        witness = ([], [], []), []
        if offset is not None:
            # no earlier point of the witness's period is in the scan, so
            # the planted point, a class over Q or a table entry over F_p, is
            # the first nonzero one
            period = rng.randint(offset + 1, offset + 2**13)
            if char:
                planted = [0] * period
                planted[(start + offset) % period] = rng.randrange(1, char)
                witness = ([], [], []), [planted]
            else:
                witness = ([(start + offset) % period], [period], [rng.choice((1, -1)) * scale]), []
        expected = first_nonzero_reference(base + indexed_values(*witness, start, length, dtype), start, char)
        assert expected == (None if offset is None else start + offset)
        scan = [part + extra for part, extra in zip(classes, witness[0])], tables + witness[1]
        for setting in SCAN_SETTINGS:
            with kernel_widths(setting):
                assert _kernels.first_nonzero(*scan, start, length, char) == expected, (setting, offset)


# --- full-period scans past the int64 guard, on digits -------------------------

# weights on the base-2**32 digit edges, Fractions whose scaled numerators
# pass 2**62, and small weights
digit_weights = st.one_of(
    st.sampled_from([2**32 - 1, -(2**32 - 1), 2**32, -(2**32), 2**63, -(2**63), -(2**95)]),
    st.builds(lambda sign, c: sign * (2**62 + c), st.sampled_from([1, -1]), st.integers(-3, 3)),
    st.builds(lambda c, d: Fraction(2**62 + c, d), st.integers(-3, 3), st.sampled_from([3, 5])),
    st.integers(-3, 3),
)


@st.composite
def digit_cases(draw):
    """(system, c, cancels, seqs, n0): the n classes mod n (n in 1..6) at
    weight c, an exact cover of Z, with 1 to 4 more classes of moduli up to
    8, which are also added negated when ``cancels``, so that w = c
    exactly then; and a 2-D instance (seqs, n0) of periodicity mod n0 in
    boxes of at most 12 by 12 points.  Every weight is a digit_weights
    value."""
    c, n = draw(digit_weights), draw(st.integers(1, 6))
    classes = st.tuples(st.integers(0, 7), st.integers(1, 8), digit_weights)
    extra = draw(st.lists(classes, min_size=1, max_size=4))
    cancels = draw(st.booleans())
    negated = [(a, m, -w) for a, m, w in extra] if cancels else []
    system = System.of(*((a, n, c) for a in range(n)), *extra, *negated)
    components = st.sampled_from([1, 2, 3, 4, 6])
    pairs = st.tuples(st.integers(0, 11), st.integers(0, 11))
    entries = st.tuples(pairs, st.tuples(components, components), digit_weights)
    seqs = [MultiSequence(*e) for e in draw(st.lists(entries, min_size=1, max_size=4))]
    return system, c, cancels, seqs, draw(st.tuples(components, components))


def _scaled_peaks(groups) -> list:
    """Each group's largest magnitude times D, the common denominator of
    all the values of ``groups``."""
    D = math.lcm(*(Fraction(v).denominator for g in groups for v in g))
    return [D * max(abs(Fraction(v)) for v in g) for g in groups]


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
@settings(PROPERTY, max_examples=40)
# w = c fails at x = 1 on three digits, and holds on three
@example(
    (
        System.of((0, 2, 2**63), (1, 2, 2**63), (1, 4, -(2**95))),
        2**63,
        False,
        [MultiSequence((0, 0), (2, 3), -(2**95))],
        (1, 3),
    )
)
@example(
    (
        System.of((0, 1, 2**63), (3, 8, -(2**95)), (3, 8, 2**95)),
        2**63,
        True,
        [MultiSequence((1, 0), (2, 1), 2**63)],
        (2, 2),
    )
)
@given(digit_cases())
def test_scans_past_the_guard_match_pointwise(setting, case):
    """cover_table, weighted_average_check, brute_cover_verdict (against
    the constant c and against w's own table) and brute_periodic_mod_vec,
    under every scan setting, give what exact pointwise evaluation gives
    (cover_count and multidim_value).  cover_table reads on the window
    route; of the full-period plans, one of lone values (class
    weights, and a constant) splits into fixed-width digits exactly when
    their scaled magnitudes sum past the guard, unless the guard is 1; a
    periodic table past the guard keeps its scan on an object array."""
    system, c, cancels, seqs, n0 = case
    N = system.lcm()
    values = tuple(cover_count(system, x) for x in range(N))
    witness = next((x for x, v in enumerate(values) if v != c), None)
    assert witness is None or not cancels
    plans = []
    plan = _kernels._plan

    def recording(weights, tables, work, char=0):
        nums, D = plan(weights, tables, work, char)
        plans.append(([*zip(column_values(weights)), *map(column_values, tables)], work, nums))
        return nums, D

    with kernel_widths(setting), mock.patch.object(_kernels, "_plan", recording):
        assert cover_table(system).values == values
        assert weighted_average_check(system)
        constant = brute_cover_verdict(system, PeriodicValueTable.constant(c))
        assert constant == Verdict(witness is None, witness)
        assert brute_cover_verdict(system, PeriodicValueTable(N, values)).ok
        verdict = brute_periodic_mod_vec(seqs, n0)
    assert (verdict.ok, verdict.witness) == rolled_periodicity(seqs, n0)
    # cover_table's read first, on the window route: a list, or one
    # fixed-width array; then the four full-period plans
    assert [work is None for _, work, _ in plans] == [False, True, True, True, True]
    (_, _, nums), *plans = plans
    assert type(nums) is list or (len(nums) == 1 and nums[0].dtype.kind == "i")
    for groups, _, nums in plans:
        peaks = _scaled_peaks(groups)
        assert type(nums) is tuple
        if all(len(g) == 1 for g in groups):
            split = setting != "guard-1" and sum(peaks) >= 2**62
            assert (len(nums) > 1) == split
            assert not split or {d.dtype.kind for d in nums} == {"i"}
        elif peaks[-1] >= 2**62:
            assert [d.dtype for d in nums] == [object]


@st.composite
def cli_systems(draw, m: int) -> System:
    """Small weighted systems with moduli dividing 12; about half are
    completed to w = m everywhere by classes mod 12."""
    entries = draw(
        st.lists(
            st.tuples(st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 12]), weights_or_huge),
            min_size=1,
            max_size=6,
        )
    )
    if draw(st.booleans()):
        values = cover_values(System.of(*entries), 0, 12)
        entries += [(r, 12, m - v) for r, v in enumerate(values) if v != m]
    return System.of(*entries)


@PROPERTY
@given(st.sampled_from(["exact-cover", "verify"]), st.integers(-2, 3), st.integers(-50, 50), st.data())
def test_fuzzed_cli_check_exits_1_only_with_a_witness(cmd, m, start, data):
    """CLI exact-cover and verify on small weighted systems: exit 1 only
    with a witness x where w(x) != m, exit 0 only where the full-period
    oracle agrees, and never an unexpected failure (exit 3)."""
    m = max(m, 1) if cmd == "exact-cover" else m
    system = data.draw(cli_systems(m))
    text = "".join(f"{s.residue} {s.modulus} {s.weight}\n" for s in system.seqs)
    flag = "--m" if cmd == "exact-cover" else "--target-const"
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = run_command([cmd, flag, str(m), "--start", str(start), "-"])
    witness = out.getvalue().splitlines()[-1].rsplit("witness=", 1)[1]
    assert code in (0, 1)
    if code == 1:
        x = int(witness)
        assert x >= start and cover_count(system, x) != m
    else:
        assert witness == "none" and brute_cover_verdict(system, PeriodicValueTable.constant(m)).ok


# --- columns that records carry -------------------------------------------------

# ints, Fractions, numpy ints, and values past 2**63
past_int64 = st.builds(lambda sign, c: sign * (2**63 + c), st.sampled_from([1, -1]), st.integers(-1, 9))
column_entries = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(np.int64, st.integers(-(2**62), 2**62)),
    past_int64,
    st.builds(lambda c, d: Fraction(2**64 + c, d), st.integers(-3, 3), st.sampled_from([3, 7])),
)


@st.composite
def column_cases(draw):
    """(system entries, Q table values, p, F_p table values): weights and Q
    values of every kind above, residues that may be bools, and F_p values
    up to 2**90 in magnitude, which construction reduces mod p."""
    residue = st.one_of(st.integers(-30, 30), st.booleans())
    entries = draw(st.lists(st.tuples(residue, st.integers(1, 12), column_entries), min_size=1, max_size=6))
    groups = st.lists(column_entries, min_size=1, max_size=6)
    p = draw(st.sampled_from([2, 5, 2**61 - 1, 2**64 - 59]))
    fp_values = st.lists(st.integers(-(2**90), 2**90), min_size=1, max_size=6)
    return entries, draw(st.lists(groups, max_size=3)), p, draw(st.lists(fp_values, min_size=1, max_size=3))


@pytest.mark.parametrize("setting", SCAN_SETTINGS)
@settings(PROPERTY, max_examples=30)
@given(column_cases())
def test_record_columns_follow_the_fields(setting, case):
    """Every System and PeriodicValueTable carries the columns its public
    fields define, in Python ints: residues, moduli, and its weights or
    values over their common denominator, packed when they fit.  So does
    each one made from it by _make, _replace, a deep copy or a pickle round
    trip.  A plan of a system's and its tables' columns stands for every
    value over the lcm of all their denominators, on every path."""
    entries, q_values, p, fp_values = case
    system = System.of(*entries)
    q_tables = [PeriodicValueTable(len(v), v) for v in q_values]
    fp_tables = [PeriodicValueTable(len(v), v, p) for v in fp_values]
    extra = WeightedSequence(1, 2, Fraction(1, 3))
    for record in (system, *q_tables, *fp_tables):
        if isinstance(record, System):
            replaced = record._replace(seqs=record.seqs + (extra,))
        else:
            replaced = record._replace(period=record.period + 1, values=record.values + (1,))
        copies = (type(record)._make(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)))
        assert all(r == record for r in copies) and replaced != record
        for r in (record, replaced, *copies):
            got = record_columns(r)
            assert got == columns_reference(r)
            ints = [*got[0], *got[1], *got[2][0]] if isinstance(r, System) else got[0]
            assert {type(v) for v in ints} <= {int}
    with kernel_widths(setting):
        for weights, tables, char in ((system._classes[2], q_tables, 0), (_kernels.column(()), fp_tables, p)):
            expected = plan_reference([column_values(weights)] + [t.values for t in tables])
            for work in (None, 1, 10**6):
                nums, D = _kernels._plan(weights, [t._column for t in tables], work, char)
                assert (nums if type(nums) is list else digit_values(nums), D) == expected, work


unweighted_entries = st.one_of(
    st.just(1),
    st.just(Fraction(2, 2)),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    past_int64,
)


@settings(PROPERTY, max_examples=60)
@given(st.lists(unweighted_entries, min_size=1, max_size=6), st.sampled_from([1, 2, 3]))
def test_is_unweighted_reads_the_weights(weights, d):
    """is_unweighted, which reads the weight column, says whether every
    weight is 1, for int, Fraction, 2/2, negative and past-2**63 weights,
    also when every weight is 1/d: all over D = d, so each numerator is 1."""
    for ws in (weights, [Fraction(1, d)] * len(weights)):
        system = System.of(*((j, j + 1, w) for j, w in enumerate(ws)))
        assert system.is_unweighted() == all(s.weight == 1 for s in system.seqs)


@st.composite
def expsum_column_cases(draw) -> ExpSumSequence:
    """Exponential sums whose term indices may be negative, past the
    modulus or repeated mod it, with dense coefficient vectors (their zeros
    are Fractions made afresh) or sparse ones built from terms."""
    n = draw(st.integers(1, 8))
    ts = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
    if draw(st.booleans()):
        ts.append(ts[0] + n * draw(st.integers(-2, 2)))
    terms = []
    for t in ts:
        level = draw(st.integers(1, 12))
        if draw(st.booleans()):
            vector = draw(st.lists(rationals.map(Fraction), min_size=level, max_size=level))
            coeff = CyclotomicElement(level, tuple(vector))
        else:
            coeff = CyclotomicElement.from_terms(level, draw(st.lists(st.tuples(st.integers(-30, 30), rationals))))
        terms.append((t, coeff))
    return ExpSumSequence(n, terms)


@settings(PROPERTY, max_examples=80)
@example(
    ExpSumSequence(
        4, ((-1, root_power(6, 1)), (7, CyclotomicElement.constant(2, Fraction(-1, 3))), (-5, root_power(1, 0)))
    )
)
@given(expsum_column_cases())
def test_expsum_columns_follow_the_fields(es):
    """An ExpSumSequence carries the term fractions and the zero-set input
    its fields define, and so does each one made from it by _make,
    _replace, a deep copy or a pickle round trip.  Its membership table is
    exp_sum_eval's zero test at every x, the coefficients of the indices
    that agree mod n added into one, and so is zero_set_table's."""
    one = CyclotomicElement.constant(1, 1)
    replaced = (es._replace(modulus=es.modulus + 1), es._replace(terms=es.terms + ((es.modulus + 1, one),)))
    copies = (ExpSumSequence._make(es), copy.deepcopy(es), pickle.loads(pickle.dumps(es)))
    assert all(r == es for r in copies)
    for r in (es, *replaced, *copies):
        got = record_columns(r)
        assert got == columns_reference(r)
        assert {type(v) for entry in got[1][1] for v in entry} <= {int}
    n = es.modulus
    merged: dict[int, CyclotomicElement] = {}
    for t, c in es.terms:
        merged[t % n] = merged[t % n] + c if t % n in merged else c
    N = math.lcm(n, *(c.level for c in merged.values()))
    alphas = [Fraction(-r, n) % 1 for r in merged]
    expected = tuple(exp_sum_eval(list(merged.values()), alphas, x, N).is_zero() for x in range(n))
    assert es.membership_table() == expected == zero_set_table(n, es.terms)


# --- parsers ------------------------------------------------------------------

small = st.integers(-50, 50)
weights = st.one_of(st.just(Fraction(1)), st.fractions(-(10**6), 10**6, max_denominator=12))


@st.composite
def system_files(draw) -> SystemFile:
    dim = draw(st.integers(1, 3))
    entry = st.builds(
        MultiSequence,
        st.tuples(*[small] * dim),
        st.tuples(*[st.integers(1, 60)] * dim),
        weights,
    )
    entries = tuple(draw(st.lists(entry, min_size=1, max_size=8)))
    return SystemFile(entries, dim, "")


@PROPERTY
@given(system_files())
def test_parse_system_roundtrips_serialize(sf):
    back = parse_system(sf.serialize())
    assert (back.entries, back.dim) == (sf.entries, sf.dim)


# fuzzed files are lines built from well-formed and broken fields, or any
# text at all; a number is short or far past every limit, so no file asks
# for a large but admissible dense coefficient vector
NUMBERS = ["0", "1", "2", "3", "4", "6", "12", "-1", "-5", "007", "1/2", "-3/4", "1/0", "2/-3",
           "1,2", "3,,4", "10" * 20, "9" * 5000, "1e3", "nan", "", "x"]  # fmt: skip
TERMS = ["1", "1/2", "z^1", "z^-3", "2/3*z^2", "*", "+", "-", " ", "z", "^", "/0", "z^x"]
number = st.sampled_from(NUMBERS)


def fuzzed_files(*line_kinds, header=st.just("")):
    junk = st.lists(st.sampled_from(NUMBERS + TERMS + ["#", "\t"]), max_size=8).map("".join)
    # each kind of well-formed line is drawn three times as often as junk
    body = st.lists(st.one_of(*line_kinds * 3, junk), max_size=10).map("\n".join)
    return st.one_of(st.tuples(header, body).map("".join), st.text(max_size=60))


system_line = st.lists(number, min_size=2, max_size=3).map(" ".join)
coefficient = st.lists(st.sampled_from(TERMS), min_size=1, max_size=6).map("".join)
coefficient_line = st.one_of(
    number.map("level {}".format),
    number.map("modulus {}".format),
    st.tuples(number, coefficient).map(" ".join),
)


@settings(PROPERTY, max_examples=300)
@given(fuzzed_files(system_line))
def test_fuzzed_system_text_raises_only_parse_error(text):
    try:
        parse_system(text)
    except ParseError:
        pass


@settings(PROPERTY, max_examples=300)
@given(fuzzed_files(coefficient_line, header=st.sampled_from(["", "level 4\n", "level 12\nmodulus 6\n"])))
def test_fuzzed_coefficient_text_raises_only_parse_error(text):
    try:
        parse_coefficient_file(text)
    except ParseError:
        pass
