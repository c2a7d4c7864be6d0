"""The package takes every float sum in one order: declared event order, left to right.

Sums are plain ``+=`` folds, as ``model.fold_sum`` takes them (or
``np.add.accumulate(x)[-1]`` for a 1-D total in the oracles). The reductions
rejected here pick their own order: builtin ``sum()`` and ``math.fsum``
compensate rounding, while ``@``, ``dot``, ``np.sum`` and ``np.prod`` follow
numpy's pairwise summation or the BLAS kernel chosen at run time, so their
bits can change with the numpy version or the machine. Only ``sim.py``, home
of the payment oracles, imports numpy, so no other stage can come to depend
on its version, and it imports numpy only inside the functions that use it.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "uxcharge"

REORDERING_CALLS = {
    "sum",
    "fsum",
    "nansum",
    "prod",
    "nanprod",
    "mean",
    "average",
    "dot",
    "vdot",
    "inner",
    "matmul",
    "tensordot",
    "einsum",
    "reduce",
}


def reorderings(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each ``@`` and each call whose name is a reordering reduction."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in REORDERING_CALLS:
                found.append((node.lineno, f"{name}()"))
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_reduction_escapes_the_declared_order(path):
    assert reorderings(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_every_form():
    source = "a @ b\na @= b\nsum(x)\nmath.fsum(x)\nnp.sum(x)\nx.sum()\nnp.dot(a, b)\nx.dot(b)\nnp.prod(x)\n"
    assert [what for _, what in reorderings(ast.parse(source))] == [
        "@", "@", "sum()", "fsum()", "sum()", "sum()", "dot()", "dot()", "prod()"
    ]


NUMPY_MODULES = {"sim.py"}


def numpy_imports(tree: ast.AST) -> list[int]:
    """The line of each ``import numpy...`` and ``from numpy... import``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_oracles_import_numpy(path):
    imports = numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert bool(imports) == (path.name in NUMPY_MODULES), imports


def numpy_importers(tree: ast.AST) -> list[str]:
    """The name of the innermost function around each numpy import, "<module>" for one outside any function."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and numpy_imports(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_numpy_is_imported_only_where_the_oracles_run():
    # So importing the package, and running the adjust and auction paths, loads
    # no numpy; run_scenario imports it before its pool of oracle threads starts.
    importers = numpy_importers(ast.parse((SOURCE / "sim.py").read_text(encoding="utf-8")))
    assert sorted(importers) == [
        "_moments", "_substream_rng", "enumerate_expected_payment", "monte_carlo_payment", "run_scenario"
    ]


def test_the_numpy_importer_guard_sees_every_scope():
    source = "import numpy\ndef f():\n    import numpy as np\n    def g():\n        from numpy import ndarray\nclass C:\n    import numpy\n"
    assert numpy_importers(ast.parse(source)) == ["<module>", "f", "g", "<module>"]


def test_the_numpy_guard_sees_every_form():
    source = "import numpy as np\nimport os, numpy.random\nfrom numpy import ndarray\nfrom numpy.random import Philox\nimport numpyish\nfrom . import numpy\n"
    assert numpy_imports(ast.parse(source)) == [1, 2, 3, 4]
