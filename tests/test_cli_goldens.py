"""adjust and auction documents reproduce frozen goldens byte for byte.

These outputs involve no Monte Carlo, so unlike the simulate reports of
acceptance criterion 6 they do not depend on numpy's reductions. The table
below derives every run from GOLDEN_RUNS; scripts/regen_goldens.py writes the
goldens from the same table.
"""

from pathlib import Path

import pytest

from test_acceptance import GOLDEN_RUNS
from uxcharge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

def _strategy(flags: list[str]) -> list[str]:
    return ["--strategy", flags[flags.index("--strategy") + 1]]


def cli_golden_runs() -> list[tuple[str, list[str]]]:
    """(golden file name, CLI arguments) for each adjust/auction golden."""
    runs = []
    for name, flags in GOLDEN_RUNS:
        scenario = str(GOLDEN / f"{name}.json")
        runs.append((f"{name}.adjust.json", ["adjust", scenario, *_strategy(flags)]))
        runs.append(
            (
                f"{name}.auction.json",
                ["auction", scenario, *_strategy(flags), "--pricing", "second"],
            )
        )
    return runs


CLI_GOLDEN_RUNS = cli_golden_runs()


@pytest.mark.parametrize("golden, argv", CLI_GOLDEN_RUNS, ids=[g for g, _ in CLI_GOLDEN_RUNS])
def test_cli_document_matches_golden(golden, argv, tmp_path, capsys):
    out_path = tmp_path / golden
    assert main([*argv, "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == (GOLDEN / golden).read_bytes()
