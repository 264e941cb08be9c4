"""Each representation has one home in the package: only `cyclotomic`
reads or builds the Q(zeta) coefficient vector, only `_kernels` imports
numpy, names an integer width or reads a dtype, and only
`cli.run_command` prints a report.  No module memoizes,
so every zero test and count is computed afresh."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coverkit"


def modules() -> dict[str, ast.Module]:
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC.glob("*.py")}
    assert {"cyclotomic.py", "covering.py", "cli.py", "_kernels.py"} <= set(trees)
    return trees


def users(found) -> set[str]:
    """Names of the modules in which ``found(node)`` holds for some node."""
    return {name for name, tree in modules().items() if any(found(node) for node in ast.walk(tree))}


def reads_coeffs(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "coeffs"


def builds_element(node) -> bool:
    # CyclotomicElement(level, coeffs) with a vector laid out by the caller
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "CyclotomicElement") or (
        isinstance(f, ast.Attribute) and f.attr == "CyclotomicElement"
    )


def imports_private_cyclotomic(node) -> bool:
    if not isinstance(node, ast.ImportFrom) or node.module not in ("cyclotomic", "coverkit.cyclotomic"):
        return False
    return any(alias.name.startswith("_") for alias in node.names)


def imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


WIDTHS = {"int8", "int16", "int32", "int64"}


def names_width(node) -> bool:
    # np.int64, a bare int64, the string "int64", or a read of .dtype
    if isinstance(node, ast.Attribute):
        return node.attr in WIDTHS | {"dtype"}
    if isinstance(node, ast.Name):
        return node.id in WIDTHS
    return isinstance(node, ast.Constant) and node.value in WIDTHS


MEMOS = {"lru_cache", "cache"}


def uses_functools_cache(node) -> bool:
    # from functools import lru_cache, or functools.cache
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in MEMOS | {"*"} for alias in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr in MEMOS
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def test_only_cyclotomic_touches_the_coefficient_layout():
    assert users(reads_coeffs) == {"cyclotomic.py"}
    assert users(builds_element) <= {"cyclotomic.py"}
    assert users(imports_private_cyclotomic) == set()


def test_only_kernels_imports_numpy():
    assert users(imports_numpy) == {"_kernels.py"}


def test_only_kernels_names_an_integer_width():
    assert users(names_width) == {"_kernels.py"}


def test_no_module_memoizes():
    assert users(uses_functools_cache) == set()


def calls_print(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"


def test_one_renderer_prints_the_cli_report():
    """Subcommands return a Report; `run_command` alone prints, and it
    formats the result line in one place."""
    tree = modules()["cli.py"]
    doc = tree.body[0].value  # the module docstring, which documents the line
    formats = [
        node
        for node in ast.walk(tree)
        if node is not doc and isinstance(node, ast.Constant) and "result|cmd=" in str(node.value)
    ]
    assert len(formats) == 1
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "_run" in {f.name for f in functions}
    assert {f.name for f in functions if any(calls_print(node) for node in ast.walk(f))} == {"run_command"}
