"""Property tests: the factorizer against trial division and a sieve, and
the file parsers against round trips and fuzzed text.

Every test runs derandomized (the examples are a function of the test
code) and without a deadline, so a run is reproducible and a slow machine
fails nothing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverkit import MultiSequence, PeriodicValueTable, least_prime_factor
from coverkit.cli import ParseError, SystemFile, parse_coefficient_file, parse_system
from coverkit.numtheory import FACTOR_BOUND, _is_prime, factorize

from helpers import prime_sieve, trial_division_factorize

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
