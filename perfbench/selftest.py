"""Checks that the benchmark's generators build what they claim.

Run with:  python3 -m pytest perfbench/selftest.py -q
(The file name keeps it out of the repository's own test collection.)
"""

from __future__ import annotations

import random
from pathlib import Path

import checkout

checkout.use_checkout_source()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from coverkit import PeriodicValueTable, System, cover_table, phi_sum_cardinality  # noqa: E402
from coverkit.oracle import brute_cover_verdict, brute_least_period, brute_tables_zero_verdict  # noqa: E402

SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_refined_systems_are_exact_covers_and_twins_are_not(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    seqs = W.refined_cover(rng, m, (2, 3, 5), lambda n: n <= 60, 14, 4)
    target = PeriodicValueTable.constant(m)
    assert brute_cover_verdict(System.of(*seqs), target).ok
    assert not brute_cover_verdict(System.of(*W.perturbed(rng, seqs)), target).ok


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_splits_vanish_identically(seed):
    rng = random.Random(seed)
    n, p = rng.choice([(2, 3), (4, 5), (6, 7), (10, 2), (12, 3)])
    split = W.planted_split(rng, n, p, rng.choice(W.LP_WEIGHTS))
    assert brute_cover_verdict(System.of(*split), PeriodicValueTable.constant(0)).ok


@pytest.mark.parametrize("seed", SEEDS)
def test_least_period_check_matches_oracle(seed):
    rng = random.Random(seed)
    seqs = W.least_period_system(rng, 360, seed % 2 == 0, 4 + seed % 5)
    arr, _ = W.cover_array(seqs, W.lcm_of(s[1] for s in seqs))
    assert W.least_period_of(arr) == brute_least_period(cover_table(System.of(*seqs)))


@pytest.mark.parametrize("seed", SEEDS)
def test_inclusion_exclusion_window_size(seed):
    rng = random.Random(seed)
    moduli = [rng.randint(1, 400) for _ in range(rng.randint(1, 5))]
    want = phi_sum_cardinality(moduli)
    assert W.union_size_by_gcds(moduli) == want
    assert W.window_length(moduli) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("char", [0, 7])
def test_cancelling_tables_vanish_and_broken_ones_do_not(seed, char):
    rng = random.Random(seed)
    pairs = [(rng.randint(2, 40), rng.choice((1, 2, 3))) for _ in range(3)]
    tables = W.cancelling_tables(rng, pairs, char)
    assert brute_tables_zero_verdict(W.to_tables(tables, char)).ok
    bad = W.broken(rng, tables, char)
    assert not brute_tables_zero_verdict(W.to_tables(bad, char)).ok


def test_rotation_and_table_sum_agree_with_library():
    rng = random.Random(5)
    tables = W.broken(rng, W.cancelling_tables(rng, [(6, 2), (10, 3)], 0), 0)
    rot = W.rotated(tables, 17)
    psis = W.to_tables(rot, 0)
    for x in range(60):
        assert W.table_sum_at(rot, x, 0) == sum(t.value_at(x) for t in psis)
        assert W.table_sum_at(rot, x, 0) == W.table_sum_at(tables, x + 17, 0)


@pytest.mark.parametrize("bases", [W.window_bases, W.full_scan_bases, W.least_period_bases])
def test_operations_pass_their_checks(bases):
    rng = random.Random(3)
    stream = W.op_stream(bases(rng), rng)
    for _ in range(12):
        op = next(stream)
        assert op.check(op.call()) is None, op.kind


def test_cli_requests_pass_their_checks(tmp_path: Path):
    rng = random.Random(4)
    ops = W.cli_bases(W.cli_requests(rng), W.run_in_process, tmp_path)
    for make in ops:
        op = make(rng)
        assert op.check(op.call()) is None, op.kind


def test_tracer_counts_repeat_and_wrappers_come_off(tmp_path):
    import coverkit.covering as covering

    original = covering.phi_sum_cardinality

    def traced_counts(spans_path):
        rng = random.Random(9)
        stream = W.op_stream(W.window_bases(rng), rng)
        ops = [next(stream) for _ in range(40)]
        tracer = tracing.Tracer(spans_path)
        tracer.install([W])
        try:
            for i, op in enumerate(ops):
                tracer.run_op(i, op.kind, op.call)
                tracer.flush()
        finally:
            tracer.uninstall()
            tracer.close()
        return dict(tracer.counts), tracer.calls, dict(tracer.entries), tracer.spans_written

    first = traced_counts(tmp_path / "a.jsonl")
    assert first == traced_counts(tmp_path / "b.jsonl")
    assert first[0]["fracsets.window_points"] > 0
    lines = (tmp_path / "a.jsonl").read_text().splitlines()
    assert len(lines) == 1 + first[3] == 1 + sum(first[1])
    assert covering.phi_sum_cardinality is original
    assert not hasattr(W.verify_covering_function, "__wrapped__")


def test_cover_array_matches_library_cover_table():
    rng = random.Random(2)
    seqs = W.least_period_system(rng, 120, True, 7)
    arr, D = W.cover_array(seqs, W.lcm_of(s[1] for s in seqs))
    table = cover_table(System.of(*seqs))
    assert np.array_equal(arr, [int(v * D) for v in table.values])
