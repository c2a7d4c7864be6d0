"""Input is rejected one way: a ScenarioError raised where each rule is checked.

``cli.main`` turns exactly ``ScenarioError`` and ``json.JSONDecodeError``
into exit 1 and ``OSError`` into exit 2; anything else is a bug and keeps its
traceback. So no handler in the package may be bare or catch ``Exception``,
``BaseException``, ``KeyError`` or ``TypeError``: each would report a program
bug as an input problem.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "uxcharge"

TOO_BROAD = {"Exception", "BaseException", "KeyError", "TypeError"}


def caught(tree: ast.Module, handler: ast.ExceptHandler) -> list[str]:
    """The exception types ``handler`` names, in order, through module-level tuple aliases."""
    if handler.type is None:
        return ["<bare>"]
    aliases = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    names, pending = [], [handler.type]
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Tuple):
            pending[:0] = node.elts
        elif isinstance(node, ast.Name) and node.id in aliases:
            pending.insert(0, aliases[node.id])
        else:
            names.append(ast.unparse(node))
    return names


def too_broad(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each bare handler and each that catches a program bug."""
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        for name in caught(tree, node)
        if name == "<bare>" or name.rsplit(".", 1)[-1] in TOO_BROAD
    ]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_handler_turns_a_bug_into_a_diagnostic(path):
    assert too_broad(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_cli_main_handles_exactly_input_and_io_errors():
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [
        name for node in ast.walk(main) if isinstance(node, ast.ExceptHandler) for name in caught(tree, node)
    ]
    assert handlers == ["ScenarioError", "json.JSONDecodeError", "OSError"]


def test_the_guard_sees_every_form():
    source = (
        "BAD = (KeyError, ValueError)\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept BAD:\n    pass\n"
        "try:\n    pass\nexcept (builtins.TypeError, OSError):\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert [name for _, name in too_broad(ast.parse(source))] == [
        "<bare>", "KeyError", "builtins.TypeError", "Exception"
    ]
