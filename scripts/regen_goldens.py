#!/usr/bin/env python3
"""Regenerate the frozen goldens under tests/golden/.

It writes the simulate reports (``<name>.report.json``) and the adjust and
auction documents (``<name>.adjust.json`` and ``<name>.auction.json``) of each
scenario ``<name>.json``.

Only run this after an intentional, documented output change; the golden
tests exist to catch accidental drift. The runs come from GOLDEN_RUNS in
tests/test_acceptance.py and from CLI_GOLDEN_RUNS in
tests/test_cli_goldens.py, so the tests and this script share one table.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from test_acceptance import GOLDEN_RUNS  # noqa: E402
from test_cli_goldens import CLI_GOLDEN_RUNS  # noqa: E402

from uxcharge.cli import main  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"


def _write(golden: str, argv: list[str]) -> None:
    target = GOLDEN / golden
    code = main([*argv, "-o", str(target)])
    if code != 0:
        raise SystemExit(f"{argv[0]} failed for {golden} with exit code {code}")
    print(f"wrote {target}")


def regenerate() -> None:
    for name, flags in GOLDEN_RUNS:
        _write(f"{name}.report.json", ["simulate", str(GOLDEN / f"{name}.json"), *flags])
    for golden, argv in CLI_GOLDEN_RUNS:
        _write(golden, argv)


if __name__ == "__main__":
    regenerate()
