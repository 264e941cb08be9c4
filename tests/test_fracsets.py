import random
from fractions import Fraction

import pytest

import coverkit.fracsets
import coverkit.numtheory
from coverkit import MultiSequence, PeriodicValueTable, System, is_periodic_mod_vec, verify_covering_function
from coverkit.cli import run_command
from coverkit.covering import window_zero_check
from coverkit.fracsets import (
    frac_mod1,
    fraction_set,
    multiples_set,
    phi_sum_cardinality,
    subset_sum_set,
    sumset_mod1,
    window_bound,
)

from helpers import sequence_table, sumset_reference, window_bound_reference

F = Fraction


def test_frac_mod1():
    assert frac_mod1(F(7, 3)) == F(1, 3)
    assert frac_mod1(F(-1, 4)) == F(3, 4)
    assert frac_mod1(5) == 0


def test_multiples_set_examples():
    assert len(multiples_set([2, 4, 6])) == 8
    assert multiples_set([1]) == (F(0),)
    assert multiples_set([2, 3]) == (F(0), F(1, 3), F(1, 2), F(2, 3))


def test_multiples_set_sorted_reduced():
    s = multiples_set([4, 6, 9])
    assert list(s) == sorted(set(s))
    for x in s:
        assert 0 <= x < 1


@pytest.mark.parametrize("moduli,expected", [([2, 4, 6], 8), ([1], 1), ([2, 3], 4)])
def test_phi_sum_examples(moduli, expected):
    assert phi_sum_cardinality(moduli) == expected


def test_phi_sum_of_moduli_holding_their_lcm_needs_no_factoring(monkeypatch, tmp_path, capsys):
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(coverkit.numtheory, "divisor_phis", refuse)
    monkeypatch.setattr(coverkit.fracsets, "divisor_phis", refuse)
    assert phi_sum_cardinality([4, 2, 12, 6]) == 12
    assert phi_sum_cardinality((1, 10**16 + 61)) == 10**16 + 61
    system = System.of((0, 2), (1, 4), (3, 4))
    assert verify_covering_function(system, PeriodicValueTable.constant(1)).points == 4
    assert window_zero_check([sequence_table(0, 2), sequence_table(1, 2), PeriodicValueTable.constant(-1)])
    assert is_periodic_mod_vec([MultiSequence((0, 1), (2, 3)), MultiSequence((1, 0), (4, 1))], (8, 3))
    (tmp_path / "s").write_text("0 6\n1 3\n2 2\n")
    assert run_command(["window-size", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().out.startswith("6\n")
    # an lcm that is no modulus comes from gcds, and bad moduli are
    # refused even where their lcm is one of them
    assert phi_sum_cardinality([4, 6]) == 8
    assert phi_sum_cardinality([2, 2**89 - 1]) == 2**89
    for moduli in ([0, 2], [2, -2]):
        with pytest.raises(ValueError, match="moduli must be positive"):
            phi_sum_cardinality(moduli)


def test_phi_sum_equals_set_cardinality_random():
    rng = random.Random(20040)
    for _ in range(100):
        moduli = [rng.randint(1, 30) for _ in range(rng.randint(1, 6))]
        assert phi_sum_cardinality(moduli) == len(multiples_set(moduli))


def test_phi_sum_repeated_and_dividing_moduli():
    # only the moduli dividing no other are factorized; the union is unchanged
    for moduli in ([4, 2, 4, 1, 12, 6, 6], [7] * 12, [30, 15, 10, 6, 5, 3, 2], [9, 27, 2]):
        assert phi_sum_cardinality(moduli) == len(multiples_set(moduli))
    with pytest.raises(ValueError):
        phi_sum_cardinality([4, -2])
    with pytest.raises(ValueError):
        phi_sum_cardinality([])


def test_sumset_examples():
    B = fraction_set([F(1, 7), F(2, 5)])
    assert sumset_mod1((F(0),), B) == B
    half = fraction_set([0, F(1, 2)])
    assert sumset_mod1(half, half) == half
    got = sumset_mod1(fraction_set([0, F(1, 3)]), fraction_set([0, F(1, 5)]))
    assert got == (F(0), F(1, 5), F(1, 3), F(8, 15))


def test_sumset_commutative_associative():
    rng = random.Random(5150)
    for _ in range(50):
        sets = [
            fraction_set(F(rng.randrange(12), rng.randint(1, 12)) for _ in range(3))
            for _ in range(3)
        ]
        a, b, c = sets
        assert sumset_mod1(a, b) == sumset_mod1(b, a)
        assert sumset_mod1(sumset_mod1(a, b), c) == sumset_mod1(a, sumset_mod1(b, c))


def test_subset_sum_set_examples():
    assert subset_sum_set([]) == (F(0),)
    assert len(subset_sum_set([F(1, 3), F(1, 5), F(1, 15)])) == 8
    assert len(subset_sum_set([F(1, 3), F(1, 5), F(2, 15)])) == 7


def test_subset_sum_bounds():
    rng = random.Random(99)
    for _ in range(50):
        terms = [F(rng.randrange(10), rng.randint(1, 10)) for _ in range(rng.randint(0, 6))]
        s = subset_sum_set(terms)
        assert len(s) <= 2 ** len(terms)
        import math

        lcm = math.lcm(*(t.denominator for t in terms)) if terms else 1
        assert len(s) <= lcm


def test_window_bound_examples():
    assert window_bound([fraction_set([0, F(1, 2)])], 1) == 2
    # two-term sets {0, m/n} for n=(3,5,15): m=1 keeps the single full subset
    sets112 = [fraction_set([0, t]) for t in (F(1, 3), F(1, 5), F(2, 15))]
    sets111 = [fraction_set([0, t]) for t in (F(1, 3), F(1, 5), F(1, 15))]
    assert window_bound(sets112, 1) == 7
    assert window_bound(sets111, 1) == 8


def sevens_and_elevens(k: int) -> list:
    """k sets {0, a/7, b/11}, with a and b running through their nonzero
    residues at different rates; every sum lies in (1/77)Z/Z."""
    return [fraction_set([0, F(1 + s % 6, 7), F(1 + 3 * s % 10, 11)]) for s in range(k)]


def counted_sumsets(monkeypatch) -> list:
    """Wrap coverkit.fracsets._sumset so each call appends to the returned list."""
    calls = []
    sumset = coverkit.fracsets._sumset
    monkeypatch.setattr(coverkit.fracsets, "_sumset", lambda *a: calls.append(1) or sumset(*a))
    return calls


def test_window_bound_saturated_worst_case(monkeypatch):
    """On {0, a/7, b/11} the first subset walked, the k - m + 1 largest
    sets, already reaches all D = 77 sums, so the walk stops there: k - m + 1
    sumsets, against C(k, k - m + 1) * (k - m + 1) when every subset is
    rebuilt (102960 at k = 16, m = 8, 1847560 at k = 20, m = 10)."""
    small = sevens_and_elevens(10)
    assert window_bound(small, 5) == window_bound_reference(small, 5) == 77
    # no set of sums in (1/77)Z/Z has more than 77 elements, and the Fraction
    # reference reaches 77 on the first 9 sets alone, so 77 is the answer
    sets = sevens_and_elevens(16)
    acc = (F(0),)
    for R in sets[:9]:
        acc = sumset_reference(acc, R)
    assert len(acc) == 77
    calls = counted_sumsets(monkeypatch)
    assert window_bound(sets, 8) == 77
    assert len(calls) == 9
    calls.clear()
    assert window_bound(sevens_and_elevens(20), 10) == 77
    assert len(calls) == 11


def test_window_bound_tries_equal_sets_once(monkeypatch):
    """Twenty copies of {0, 1/7, 1/11} have one subset of each size up to
    order, so the walk takes one sumset per depth; the answer is the
    Fraction sumset of 11 copies."""
    R = fraction_set([0, F(1, 7), F(1, 11)])
    acc = (F(0),)
    for _ in range(11):
        acc = sumset_reference(acc, R)
    calls = counted_sumsets(monkeypatch)
    assert window_bound([R] * 20, 10) == len(acc) == 62
    assert len(calls) == 11


def test_window_bound_prunes_an_unsaturated_family(monkeypatch):
    """{0, s/1009}, s = 1..k, never reaches D = 1009: the walk visits every
    branch its bound cannot cut, still far fewer than every subset.  The
    answers were computed by enumerating every subset."""
    def family(k):
        return [fraction_set([0, F(s, 1009)]) for s in range(1, k + 1)]

    assert window_bound(family(8), 4) == window_bound_reference(family(8), 4) == 25
    calls = counted_sumsets(monkeypatch)
    assert window_bound(family(16), 8) == 95
    assert len(calls) == 24309  # 102960 sumsets when every subset is rebuilt


def test_window_bound_m_range():
    sets = [fraction_set([0, F(1, 2)]), fraction_set([0, F(1, 3)])]
    with pytest.raises(ValueError):
        window_bound(sets, 0)
    with pytest.raises(ValueError):
        window_bound(sets, 3)


def test_window_bound_subset_cap():
    sets = [fraction_set([0])] * 21
    with pytest.raises(ValueError, match="too many subsets"):
        window_bound(sets, 1)
