"""The package takes every float sum in one order: declared event order, left to right.

Sums go through ``model.fold_sum`` / ``auction.fold_columns`` (or
``np.add.accumulate(x)[-1]`` for a 1-D total). The reductions rejected here
pick their own order: builtin ``sum()`` and ``math.fsum`` compensate
rounding, while ``@``, ``dot``, ``np.sum`` and ``np.prod`` follow numpy's
pairwise summation or the BLAS kernel chosen at run time, so their bits can
change with the numpy version or the machine.
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
