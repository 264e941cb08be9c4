import random
from fractions import Fraction
from math import lcm

import pytest

from coverkit import (
    MultiSequence,
    System,
    cover_count,
    decide_periodic_by_divisibility,
    divisibility_chain_report,
    is_periodic_mod_vec,
    least_period,
    multidim_value,
    vec_divides,
)
from coverkit.multidim import PeriodicityVerdict
from coverkit.oracle import brute_periodic_mod_vec
from helpers import (
    WEIGHT_POOL,
    full_residue_group,
    random_chain_instance,
    random_distinct_moduli_instance,
    random_weighted_system,
    rolled_periodicity,
)

F = Fraction


def test_vec_divides():
    assert vec_divides((1, 1, 1), (9, -4, 0))
    assert vec_divides((2, 3), (4, 9))
    assert not vec_divides((2, 3), (4, 8))
    with pytest.raises(ValueError):
        vec_divides((2,), (4, 8))


def test_multiseq_canonicalization():
    s = MultiSequence((-1, 7), (2, 3))
    assert s.residue == (1, 1)
    assert s.contains((3, 4)) and not s.contains((0, 4))
    with pytest.raises(ValueError):
        MultiSequence((0,), (0,))
    with pytest.raises(ValueError):
        MultiSequence((0, 0), (2,))
    for residue, modulus in (((0.5, 0), (2, 2)), ((0, 0), (2, 2.0)), ((0, F(1, 2)), (2, 2))):
        with pytest.raises(ValueError, match="must be integers"):
            MultiSequence(residue, modulus)


def test_multidim_value_examples():
    s = MultiSequence((1, 2), (3, 4), F(2, 3))
    assert multidim_value([s], (1, 2)) == F(2, 3)
    assert multidim_value([s], (4, 6)) == F(2, 3)
    assert multidim_value([s], (2, 2)) == 0
    cancel = [
        MultiSequence((0, 1), (2, 3), F(1, 2)),
        MultiSequence((0, 1), (2, 3), F(-1, 2)),
    ]
    for x in ((0, 0), (5, -2), (0, 1)):
        assert multidim_value(cancel, x) == 0


def test_dimension_one_matches_covering_module():
    rng = random.Random(123)
    for _ in range(200):
        system = random_weighted_system(rng, k_max=4, n_max=8)
        seqs = [MultiSequence((s.residue,), (s.modulus,), s.weight) for s in system.seqs]
        for x in (rng.randint(-30, 30) for _ in range(5)):
            assert multidim_value(seqs, (x,)) == cover_count(system, x)
        n = rng.randint(1, 10)
        assert is_periodic_mod_vec(seqs, (n,)).ok == (n % least_period(system) == 0)


def test_is_periodic_examples():
    s = MultiSequence((1, 0), (2, 3))
    assert is_periodic_mod_vec([s], (2, 3)).ok
    assert is_periodic_mod_vec([s], (4, 6)).ok
    v = is_periodic_mod_vec([MultiSequence((0, 0), (2, 2))], (1, 1))
    assert not v.ok
    x, y = v.witness
    assert multidim_value([MultiSequence((0, 0), (2, 2))], x) != multidim_value(
        [MultiSequence((0, 0), (2, 2))], y
    )


def test_is_periodic_full_group_is_constant():
    group = full_residue_group((2, 3), F(1, 2))
    assert is_periodic_mod_vec(group, (1, 1)).ok


def test_box_cap():
    s = MultiSequence((0, 0, 0), (101, 101, 101))
    with pytest.raises(ValueError, match="box too large"):
        is_periodic_mod_vec([s], (1, 1, 1))


def test_period_past_the_box_cap():
    """A period vector reduced mod the moduli's lcm needs a scan only
    along its nonzero axes, so a period box far past the cap is decided:
    with no scan when n0 is a multiple of every modulus, else on a small
    window.  The box oracle refuses both."""
    seqs = [MultiSequence((0, 1), (2, 3)), MultiSequence((1, 0), (2, 1), F(-1, 2))]
    n0 = (2 * 10**9, 3 * 10**9)
    assert is_periodic_mod_vec(seqs, n0).ok and decide_periodic_by_divisibility(seqs, n0)
    odd = (2 * 10**9 + 1, 3 * 10**9)
    v = is_periodic_mod_vec(seqs, odd)
    assert v == PeriodicityVerdict(False, ((0, 0), (2 * 10**9 + 1, 0)))
    assert multidim_value(seqs, v.witness[0]) != multidim_value(seqs, v.witness[1])
    for period in (n0, odd):
        with pytest.raises(ValueError, match="box too large"):
            brute_periodic_mod_vec(seqs, period)


def test_window_past_the_old_box_cap():
    """Each axis is a vanishing check on the window prod_u [0, L_u), here
    2021 * 4 points, so a shift of 500000 along axis 0 adds nothing to the
    scan; comparing x with x + h*e_t in one filled box once needed a box of
    (2021 + 500000) * 4 = 2008084 points and was refused.  The full box
    scan of the oracle still is."""
    seqs = [MultiSequence((0, 0), (1009, 2)), MultiSequence((0, 1), (1013, 3), F(-1, 2))]
    n0 = (500000, 6)
    v = is_periodic_mod_vec(seqs, n0)
    assert v == PeriodicityVerdict(False, ((0, 0), (500000, 0)))
    assert multidim_value(seqs, v.witness[0]) != multidim_value(seqs, v.witness[1])
    with pytest.raises(ValueError, match="box too large"):
        brute_periodic_mod_vec(seqs, n0)


def test_chain_hand_instance():
    # base class mod (2,2) + a constant full group mod (4,4) + a cancelling
    # constant mod (2,4): w is periodic mod (2,2), and d=(4,4) applies
    seqs = [MultiSequence((0, 0), (2, 2))]
    seqs += full_residue_group((4, 4), F(1))
    seqs += full_residue_group((2, 4), F(-1, 2))
    report = divisibility_chain_report(seqs, (2, 2), (4, 4))
    assert report.applicable and report.verified
    assert report.chain == (16, 4, 2, 2)
    assert report.coefficient_sum == 1


def test_chain_not_applicable_when_d_divides_n0():
    seqs = [MultiSequence((0, 0), (2, 2))]
    report = divisibility_chain_report(seqs, (2, 2), (2, 2))
    assert not report.applicable and report.chain is None


def test_chain_rejects_non_periodic_input():
    seqs = [MultiSequence((0, 0), (2, 2))]
    with pytest.raises(ValueError, match="not periodic"):
        divisibility_chain_report(seqs, (1, 1), (2, 2))


def test_chain_random_instances():
    rng = random.Random(1999)
    applicable = 0
    for _ in range(60):
        l = rng.randint(1, 3)
        seqs, n0, d = random_chain_instance(rng, l)
        report = divisibility_chain_report(seqs, n0, d)
        if report.applicable:
            applicable += 1
            ni, nt, bound, lp = report.chain
            assert ni >= nt >= bound >= lp
    assert applicable >= 20


def test_cor14_examples():
    seqs = [MultiSequence((0, 1), (2, 3)), MultiSequence((1, 0), (2, 1))]
    assert decide_periodic_by_divisibility(seqs, (2, 3))
    assert decide_periodic_by_divisibility(seqs, (4, 3))
    assert not decide_periodic_by_divisibility(seqs, (2, 1))

    single = [MultiSequence((0, 0), (2, 4))]
    assert not decide_periodic_by_divisibility(single, (2, 2))


def test_cor14_rejections():
    with pytest.raises(ValueError, match="nonzero"):
        decide_periodic_by_divisibility([MultiSequence((0,), (2,), F(0))], (2,))
    dup = [MultiSequence((0, 0), (2, 2)), MultiSequence((1, 1), (2, 2))]
    with pytest.raises(ValueError, match="hypothesis not met"):
        decide_periodic_by_divisibility(dup, (2, 2))


def test_cor14_matches_oracle_random():
    rng = random.Random(40320)
    for _ in range(40):
        l = rng.randint(1, 3)
        seqs, n0 = random_distinct_moduli_instance(rng, l)
        decision = decide_periodic_by_divisibility(seqs, n0)
        assert decision == is_periodic_mod_vec(seqs, n0).ok


def test_box_array_weight_fallback():
    # weights too wide for int64 scaling take the exact per-point path
    huge = F(2**70, 3)
    seqs = [MultiSequence((0, 0), (2, 2), huge), MultiSequence((0, 0), (2, 2), -huge)]
    assert is_periodic_mod_vec(seqs, (1, 1)).ok
    seqs = [MultiSequence((0, 0), (2, 2), huge)]
    assert not is_periodic_mod_vec(seqs, (1, 1)).ok


def test_is_periodic_matches_rolled_reference():
    """Slice comparison gives the verdict and witness of the roll-based
    scan, also when axis 0 is periodic and the first mismatch lies along a
    later axis."""
    rng = random.Random(343)
    later_axis = 0
    for _ in range(60):
        l = rng.randint(1, 3)
        seqs, n0 = random_distinct_moduli_instance(rng, l)
        if l > 1 and rng.random() < 0.7:
            n0 = (lcm(*(s.modulus[0] for s in seqs)),) + n0[1:]
        v = is_periodic_mod_vec(seqs, n0)
        assert (v.ok, v.witness) == rolled_periodicity(seqs, n0)
        if not v.ok:
            x, y = v.witness
            later_axis += next(t for t in range(l) if x[t] != y[t]) > 0
    assert later_axis >= 10
