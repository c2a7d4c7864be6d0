"""Every module of the package uses every name it imports.

A name a module imports and never reads is dead code that a reader must
still account for. ``__init__.py`` is exempt, since it imports to re-export;
so is an import whose statement is marked ``# noqa: F401``: ``sim`` keeps the
per-offer chain importable from itself, where a traced run wraps it.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "uxcharge"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from x import (\n    a,\n    b as c,\n)\n"
        "from y import d  # noqa: F401\n"
        "from z import (  # noqa: F401\n    e,\n)\n"
        "def f(v: a) -> None:\n    return os.path.join(v)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "np"), (5, "c")]
