"""Each refusal below is a raise that no other test reaches: every input is
refused with its own message, or, at the CLI, with exit 2."""

import sys
from fractions import Fraction

import pytest

from coverkit import (
    CyclotomicElement,
    ExpSumSequence,
    MultiSequence,
    PeriodicValueTable,
    System,
    WeightedSequence,
    brute_periodic_mod_vec,
    divisibility_chain_report,
    equal_cover_superset_check,
    exp_sum_eval,
    expsum_cover_check,
    indicator_sum_check,
    is_periodic_mod_vec,
    min_on_window,
    multiples_set,
    non_exact_witness,
    root_power,
    window_zero_check,
)
from coverkit.cli import run_command
from coverkit.numtheory import factorize

WEIGHTED = System.of((0, 2, 2), (1, 2))
PLANE = [MultiSequence((0, 0), (2, 2)), MultiSequence((1, 1), (2, 2))]


def target_file_of_comments(tmp_path):
    """The CLI's main on a target file that holds only comments."""
    target = tmp_path / "target.txt"
    target.write_text("# no values\n\n# none here either\n")
    system = tmp_path / "B.txt"
    system.write_text("1 2\n2 4\n0 4\n")
    sys.exit(run_command(["verify", "--target-file", str(target), str(system)]))


REFUSALS = {
    "table-period-0": (lambda _: PeriodicValueTable(0, ()), ValueError, "period must be positive, got 0"),
    "window-zero-no-maps": (lambda _: window_zero_check([]), ValueError, "need at least one periodic map"),
    "witness-weighted": (
        lambda _: non_exact_witness(WEIGHTED, 2),
        ValueError,
        "witness search expects an unweighted system",
    ),
    "min-window-weighted": (
        lambda _: min_on_window(WEIGHTED, [1, 1], 0),
        ValueError,
        "minimum-window search expects an unweighted system",
    ),
    "superset-weighted": (
        lambda _: equal_cover_superset_check(WEIGHTED),
        ValueError,
        "superset check expects an unweighted system",
    ),
    "min-window-negative-l": (
        lambda _: min_on_window(System.of((0, 2), (1, 2)), [1, 1], -1),
        ValueError,
        "l must be nonnegative, got -1",
    ),
    "expsum-modulus-0": (lambda _: ExpSumSequence(0, ()), ValueError, "modulus must be positive, got 0"),
    "expsum-m-0": (
        lambda _: expsum_cover_check([ExpSumSequence.from_arith_sequence(WeightedSequence(0, 2))], 0),
        ValueError,
        "m must lie in [1, 1], got 0",
    ),
    "element-level-0": (lambda _: CyclotomicElement(0, ()), ValueError, "level must be positive, got 0"),
    "element-short": (
        lambda _: CyclotomicElement(3, (Fraction(1),)),
        ValueError,
        "need 3 coefficients, got 1",
    ),
    "eval-level-not-dividing": (
        lambda _: exp_sum_eval([root_power(3, 1)], [Fraction(1, 2)], 0, 4),
        ValueError,
        "coefficient levels must divide 4",
    ),
    "eval-unequal-lengths": (
        lambda _: exp_sum_eval([root_power(2, 1)], [], 0, 2),
        ValueError,
        "coeffs and alphas must have equal length",
    ),
    "indicator-N-0": (lambda _: indicator_sum_check(0, 1, 0), ValueError, "N and n must be positive"),
    "element-plus-str": (lambda _: root_power(3, 1) + "x", TypeError, "unsupported operand type(s) for +"),
    "multiples-empty": (lambda _: multiples_set([]), ValueError, "multiples_set expects a nonempty list"),
    "multiples-modulus-0": (lambda _: multiples_set([0]), ValueError, "modulus must be positive, got 0"),
    "periodic-no-sequences": (lambda _: is_periodic_mod_vec([], (2,)), ValueError, "need at least one sequence"),
    "periodic-mixed-dimensions": (
        lambda _: is_periodic_mod_vec([MultiSequence((0,), (2,)), *PLANE], (2, 2)),
        ValueError,
        "sequences must share one dimension",
    ),
    "periodic-short-n0": (
        lambda _: is_periodic_mod_vec(PLANE, (2,)),
        ValueError,
        "vector (2,) does not match dimension 2",
    ),
    "periodic-n0-zero": (
        lambda _: is_periodic_mod_vec(PLANE, (0, 2)),
        ValueError,
        "period components must be positive, got (0, 2)",
    ),
    "brute-periodic-n0-zero": (
        lambda _: brute_periodic_mod_vec(PLANE, (0, 2)),
        ValueError,
        "period components must be positive, got (0, 2)",
    ),
    "chain-d-zero": (
        lambda _: divisibility_chain_report(PLANE, (2, 2), (0, 1)),
        ValueError,
        "divisor components must be positive, got (0, 1)",
    ),
    "factorize-0": (lambda _: factorize(0), ValueError, "factorize expects n >= 1, got 0"),
    "cli-target-of-comments": (target_file_of_comments, SystemExit, "error: target file holds no values"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_and_its_message(call, error, message, tmp_path, capsys):
    with pytest.raises(error) as caught:
        call(tmp_path)
    if error is SystemExit:
        assert caught.value.code == 2
        text = capsys.readouterr().out
    else:
        text = str(caught.value)
    assert message in text
