"""Mutation checks: each mutant is one small edit of the package that the
tests it names must catch.

Run from anywhere, with pytest and the test dependencies installed:

    python tests/mutants.py

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, so pytest imports the package from the copy.  It
first runs every named test once on the unchanged copy, and they must
pass.  Then, for each entry of ``MUTANTS`` (file, exact old text, new
text, pytest node ids), it replaces the old text, which must occur in the
file exactly once, runs the named tests on the copy, and restores the
file.  A mutant under which every named test passes survives.  The
script prints one line per mutant and exits 1 when the baseline fails, an
old text is missing or ambiguous, or a mutant survives.  It uses only the
standard library; its name has no ``test_`` prefix, so pytest does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNELS = "src/coverkit/_kernels.py"
CYCLOTOMIC = "src/coverkit/cyclotomic.py"
FRACSETS = "src/coverkit/fracsets.py"
COVERING = "src/coverkit/covering.py"

ZERO_TEST = ("tests/test_properties.py::test_zero_test_matches_division_by_phi",)
COLUMNS = ("tests/test_properties.py::test_record_columns_follow_the_fields",)
EXPSUM_COLUMNS = ("tests/test_properties.py::test_expsum_columns_follow_the_fields",)
EQUAL_SETS = ("tests/test_fracsets.py::test_window_bound_tries_equal_sets_once",)
WINDOW_BOUND = (
    "tests/test_fracsets.py::test_window_bound_examples",
    "tests/test_fracsets.py::test_window_bound_saturated_worst_case",
    *EQUAL_SETS,
    "tests/test_fracsets.py::test_window_bound_prunes_an_unsaturated_family",
    "tests/test_properties.py::test_window_bound_matches_fraction_reference",
)

# (file, exact old text, new text, pytest node ids)
MUTANTS = [
    # the two-term rule of the exact zero test
    (
        CYCLOTOMIC,
        "return c == d and 2 * ((i - j) % level) == level",
        "return c == d",
        ZERO_TEST,
    ),
    (
        CYCLOTOMIC,
        "return c == d and 2 * ((i - j) % level) == level",
        "return 2 * ((i - j) % level) == level",
        ZERO_TEST,
    ),
    (CYCLOTOMIC, "return not (c or d)", "return False", ZERO_TEST),
    # window_bound's branch and bound
    (
        FRACSETS,
        "math.prod(sizes[j : j + need])) <= best",
        "math.prod(sizes[j : j + need])) < best",
        WINDOW_BOUND,
    ),
    (FRACSETS, "math.prod(sizes[j : j + need])", "math.prod(sizes[j + 1 : j + need])", WINDOW_BOUND),
    (FRACSETS, "key=len, reverse=True)", "key=len)", WINDOW_BOUND),
    (FRACSETS, "if j == i or sets[j] != sets[j - 1]:", "if True:", EQUAL_SETS),
    (FRACSETS, "if not need or i + need == k:", "if not need:", WINDOW_BOUND),
    # the kernels
    (
        KERNELS,
        "total = sum(mags[:k].tolist()) + sum(",
        "total = 0 + sum(",
        ("tests/test_kernels.py::test_plan_packing_contract",),
    ),
    (
        KERNELS,
        "{n: -row for n, row in rows.items()}",
        "{n: row for n, row in rows.items()}",
        ("tests/test_kernels.py::test_in_place_subtraction_exact_at_width_edges",),
    ),
    (
        KERNELS,
        "return start + i if bad[i] else None",
        "return start + i",
        ("tests/test_kernels.py::test_list_boundary_keeps_answers",),
    ),
    (
        KERNELS,
        "            out += row[0]\n",
        "            out[1:] += row[0]\n",
        ("tests/test_kernels.py::test_table_sums_blocks_match_pointwise_definition",),
    ),
    (
        KERNELS,
        "return Column(values, 1, packed)",
        "return Column(values, 1, packed or _pack(values))",
        ("tests/test_kernels.py::test_plan_packs_ints_past_int64_once",),
    ),
    (
        KERNELS,
        "carry = t >> 32",
        "carry = 0",
        ("tests/test_kernels.py::test_digit_carries_cancel_across_digits",),
    ),
    (
        KERNELS,
        "_sum(s) << 32 * i for i, s in enumerate(sums)",
        "_sum(s) for i, s in enumerate(sums)",
        ("tests/test_kernels.py::test_exact_sum_native_only_where_exact",),
    ),
    # the list work: warm once numpy is loaded, cold until then
    (
        KERNELS,
        "(_WARM_LIST_WORK if _numpy_loaded() else _LIST_WORK)",
        "_LIST_WORK",
        ("tests/test_kernels.py::test_list_boundary_keeps_answers",),
    ),
    (
        KERNELS,
        "(_WARM_LIST_WORK if _numpy_loaded() else _LIST_WORK)",
        "_WARM_LIST_WORK",
        (
            "tests/test_kernels.py::test_list_boundary_keeps_answers",
            "tests/test_cli.py::test_numpy_loads_only_for_a_scan",
        ),
    ),
    # the columns records carry: built from their fields, over the lcm of
    # every denominator, and rebuilt by _replace
    (
        COVERING,
        "residues, moduli, weights = zip(*seqs)",
        "residues, moduli, weights = zip(*((a + n, n, w) for a, n, w in seqs))",
        COLUMNS,
    ),
    (
        KERNELS,
        "D = math.lcm(*{v.denominator for v in values})",
        "D = values[0].denominator",
        (*COLUMNS, "tests/test_kernels.py::test_cover_values_is_pointwise_cover_count"),
    ),
    (
        COVERING,
        'object.__setattr__(self, "_column", _kernels.column(values, ints))',
        'object.__setattr__(self, "_column", _kernels.column(values, True))',
        COLUMNS,
    ),
    (
        COVERING,
        "    def __reduce__(self):\n",
        "    def _replace(self, **fields):\n"
        "        new = super()._replace(**fields)\n"
        "        new.__dict__.update(self.__dict__)\n"
        "        return new\n\n"
        "    def __reduce__(self):\n",
        (*COLUMNS, *EXPSUM_COLUMNS),
    ),
    (
        COVERING,
        "return weights.D == 1 and {1}.issuperset(weights.nums)",
        "return {1}.issuperset(weights.nums)",
        ("tests/test_properties.py::test_is_unweighted_reads_the_weights",),
    ),
    # the columns an exponential sum carries: term fractions of the
    # residues mod n, steps mod the level, and no entry for a zero
    (COVERING, "sorted({t % modulus for t in indices})", "sorted(set(indices))", EXPSUM_COLUMNS),
    (CYCLOTOMIC, "[(scale * t % level, c) for t, c in terms]", "[(scale * t, c) for t, c in terms]", EXPSUM_COLUMNS),
    (CYCLOTOMIC, "if c is not _ZERO and c]", "if c is not _ZERO]", EXPSUM_COLUMNS),
    # an exponential sum's refusals: coefficients at construction, tables
    # priced before any is built
    (
        CYCLOTOMIC,
        "if not isinstance(c, CyclotomicElement):",
        "if False:",
        ("tests/test_refusals.py::test_refusal_and_its_message[expsum-int-coefficient]",),
    ),
    (
        COVERING,
        '    _oracle_points(sum(es.modulus * es._zero_set[0] for es in exp_seqs), "zero-set table")\n'
        "    indicators = [list(map(int, zero_set_from_input(es.modulus, *es._zero_set))) for es in exp_seqs]\n",
        "    indicators = [list(map(int, zero_set_from_input(es.modulus, *es._zero_set))) for es in exp_seqs]\n"
        '    _oracle_points(sum(es.modulus * es._zero_set[0] for es in exp_seqs), "zero-set table")\n',
        ("tests/test_covering.py::test_expsum_cover_refuses_zero_set_tables_past_the_cap",),
    ),
    # the mean identity, and scan sizes
    (
        COVERING,
        "return total == sum(",
        "return True or total == sum(",
        ("tests/test_kernels.py::test_weighted_average_integer_identity",),
    ),
    (
        COVERING,
        "    if points < 0:\n",
        "    if False:\n",
        ("tests/test_refusals.py::test_refusal_and_its_message[cover-values-negative-length]",),
    ),
]


def run_tests(copy: Path, nodes) -> bool:
    """Whether the pytest node ids ``nodes`` all pass on the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="coverkit-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        nodes = sorted({node for *_, named in MUTANTS for node in named})
        if not run_tests(copy, nodes):
            print("baseline: the named tests fail on the unchanged source")
            return 1
        bad = 0
        for path, old, new, named in MUTANTS:
            target = copy / path
            source = target.read_text()
            label = f"{path}: {old.strip()!r} -> {new.strip()!r}"
            if source.count(old) != 1:
                print(f"MISSING  {label}: old text found {source.count(old)} times")
                bad += 1
                continue
            target.write_text(source.replace(old, new))
            try:
                killed = not run_tests(copy, named)
            finally:
                target.write_text(source)
            print(f"{'killed ' if killed else 'SURVIVED'} {label}")
            bad += not killed
    print(f"{len(MUTANTS)} mutants, {bad} not killed, {time.perf_counter() - began:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
