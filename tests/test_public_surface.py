"""The public surface: the package's ``__all__`` and README's library example.

Both tests import whichever ``uxcharge`` is on the path, so they also run
against an installed package: ``python -m pytest tests/test_public_surface.py``
from outside the checkout, without ``src`` on ``PYTHONPATH``.
"""

import re
from pathlib import Path

import pytest

import uxcharge as ux

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_sorted_unique_and_every_name_resolves():
    assert ux.__all__ == sorted(set(ux.__all__))
    assert [name for name in ux.__all__ if not hasattr(ux, name)] == []


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    example = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(example, "README.md, Library example", "exec"), namespace)
    assert namespace["paid"] == pytest.approx(0.05)
    assert namespace["bill"].total == pytest.approx(0.5)
