"""Smoke test of the benchmark harness itself, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest bench``. It checks
that a seed fixes the inputs, that the correctness gate passes clean output
and counts corrupted output as failed, and that the metrics each pass prints
are exactly the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

import run
import spans
import workloads as wl

TINY = {
    "bulk-simulate": dict(offers=40, slots=3, trials=200),
    "oracle-heavy": dict(offers=8, slots=2, custom_events=3, trials=500),
    "auction-stream": dict(offers=6, slots=2, requests=20),
}


def tiny(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], **TINY[name])


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A scratch directory that also receives the harness's output files."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_inputs(name):
    w = tiny(name)
    make = wl.scenario if w.kind == "simulate" else wl.requests
    first = json.dumps(make(w, 7))
    assert json.dumps(make(w, 7)) == first
    assert json.dumps(make(w, 8)) != first


def test_generators_do_not_import_the_program():
    code = (
        "import dataclasses, sys, workloads as wl\n"
        "for w in wl.WORKLOADS.values():\n"
        "    w = dataclasses.replace(w, offers=4, requests=2)\n"
        "    (wl.scenario if w.kind == 'simulate' else wl.requests)(w, 1)\n"
        "assert not any(m.split('.')[0] == 'uxcharge' for m in sys.modules)\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR, check=True, timeout=60)


def _runner(name: str, workdir) -> run.Runner:
    ux, inputs = run.set_up(tiny(name), 3, workdir)
    return run.Runner(ux, tiny(name), inputs)


@pytest.mark.parametrize("name", sorted(TINY))
def test_clean_output_passes_the_gate(name, workdir):
    runner = _runner(name, workdir)
    for i in range(2 * len(runner)):
        runner.run(i)
    assert runner.ledger.attempted == 2 * len(runner)
    assert runner.ledger.failed == 0, runner.ledger.problems


def _bump_first_mc_mean(text: str) -> str:
    doc = json.loads(text)
    winner = next(r for r in doc["ads"] if r["slot"] is not None)
    winner["mc_mean"] += 1.0
    return json.dumps(doc)


@pytest.mark.parametrize("name", ["bulk-simulate", "oracle-heavy"])
def test_corrupted_report_is_counted_failed(name, workdir, monkeypatch):
    runner = _runner(name, workdir)
    clean = runner.ux.cli.dumps_canonical
    monkeypatch.setattr(runner.ux.cli, "dumps_canonical", lambda doc: _bump_first_mc_mean(clean(doc)))
    runner.run(0)
    assert runner.ledger.failed == 1


def test_nondeterministic_report_is_counted_failed(workdir, monkeypatch):
    runner = _runner("oracle-heavy", workdir)
    calls = iter(range(100))
    clean = runner.ux.cli.dumps_canonical
    monkeypatch.setattr(runner.ux.cli, "dumps_canonical", lambda doc: clean(doc) + " " * next(calls))
    runner.run(0)
    runner.run(1)
    assert (runner.ledger.attempted, runner.ledger.failed) == (2, 1)


def test_mispriced_auction_is_counted_failed(workdir, monkeypatch):
    runner = _runner("auction-stream", workdir)
    ux = runner.ux
    clean = ux.run_second_price

    def overcharge(offers, slots, reserve):
        outcome = clean(offers, slots, reserve)
        award = outcome.winners[0]
        prices = {eid: 1.01 * p for eid, p in award.prices.items()}
        bumped = ux.SlotAward(award.ad_id, award.slot, prices, award.value, award.price_factor)
        return ux.AuctionOutcome(outcome.pricing_rule, outcome.ranking, (bumped, *outcome.winners[1:]))

    monkeypatch.setattr(ux, "run_second_price", overcharge)
    for i in range(len(runner)):
        runner.run(i)
    assert runner.ledger.failed == len(runner)


@pytest.mark.parametrize("name", sorted(TINY))
def test_both_passes_print_the_declared_metrics(name, workdir, monkeypatch):
    monkeypatch.setattr(run, "run_probe_process", run.probe)
    metrics, _, runner, _ = run.end_to_end(tiny(name), 5, 0.05, workdir)
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert runner.ledger.failed == 0, runner.ledger.problems

    metrics, _, runner, _ = run.traced(tiny(name), 5, 0.05, workdir)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert runner.ledger.failed == 0, runner.ledger.problems
    assert (metrics["settle.settlements"][0] > 0) == (name == "auction-stream")


def test_self_time_subtracts_direct_children():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    inclusive, own = spans.layer_times(recorded)
    assert inclusive == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}
