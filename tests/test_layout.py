"""Each representation has one home in the package: only `cyclotomic`
reads or builds the Q(zeta) coefficient vector, only `_kernels` imports
numpy, names an integer width or reads a dtype, and only
`cli.run_command` prints a report.  Each scan has one route: only `oracle`
calls the full-period search `_kernels.first_nonzero` and the full-period
compares, so `covering` searches windows alone, and no other module names
a private `_kernels` attribute.  No module memoizes, so every zero test
and count is computed afresh, and no module checks with an `assert`
statement, which `python -O` strips."""

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
    assert users(builds_element) == set()
    assert users(imports_private_cyclotomic) == set()


def test_one_reader_of_the_stored_vector():
    """Inside `cyclotomic`, the constructor stores the vector, `_terms`
    reads it as exponent terms for everything else, and only the zero test
    reads it directly."""
    tree = modules()["cyclotomic.py"]
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    readers = {f.name for f in functions if any(reads_coeffs(node) for node in ast.walk(f))}
    assert readers == {"__init__", "_terms", "is_zero"}
    # and no read sits outside a function
    inside = sum(reads_coeffs(node) for f in functions for node in ast.walk(f))
    assert inside == sum(reads_coeffs(node) for node in ast.walk(tree))


def test_only_kernels_imports_numpy():
    assert users(imports_numpy) == {"_kernels.py"}


def test_only_kernels_names_an_integer_width():
    assert users(names_width) == {"_kernels.py"}


def test_no_module_memoizes():
    assert users(uses_functools_cache) == set()


def names_kernel(node, found) -> bool:
    # _kernels.<name> with found(name), or from ._kernels import <name>
    if isinstance(node, ast.ImportFrom) and node.module == "_kernels":
        return any(found(alias.name) for alias in node.names)
    return (
        isinstance(node, ast.Attribute)
        and found(node.attr)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_kernels"
    )


FULL_PERIOD_SCANS = {"first_nonzero", "first_period", "box_first_mismatch"}


def test_only_the_oracle_searches_full_periods():
    for name in FULL_PERIOD_SCANS:
        assert users(lambda node: names_kernel(node, name.__eq__)) == {"oracle.py"}, name


def test_only_kernels_names_its_private_attributes():
    private = users(lambda node: names_kernel(node, lambda name: name.startswith("_")))
    assert private <= {"_kernels.py"}


def test_no_module_asserts():
    assert users(lambda node: isinstance(node, ast.Assert)) == set()


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


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by an import in ``tree`` (bar ``from __future__``) that
    no name, attribute base or ``__all__`` entry of the module reads."""
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant)
    }
    return imported - read - exported


def test_no_module_imports_a_name_it_never_uses():
    """Every CLI request compiles each module it imports, so a dead import
    costs start-up time as well as a reader's."""
    assert {name: unused for name, tree in modules().items() if (unused := unused_imports(tree))} == {}
