"""CLI behavior: documents, determinism, diagnostics, and exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import assert_reads_like_reference
from uxcharge import cli
from uxcharge.cli import main
from uxcharge.sim import OutcomeModel

exact = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)


def write_scenario(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def cpc_scenario(**overrides):
    doc = {
        "format_version": 1,
        "events": [
            {"id": "view", "kind": "view", "prob": 1.0},
            {"id": "click", "kind": "click", "prob": 0.1},
        ],
        "offers": [
            {"ad_id": "x", "price_type": "cpc", "bids": {"click": 2.0}},
            {"ad_id": "y", "price_type": "cpm", "bids": {"view": 0.15}},
        ],
        "charges": {"view": 0.05},
    }
    doc.update(overrides)
    return doc


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_adjust_emits_adjusted_bids(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    code, out, _ = run_cli(["adjust", path, "--strategy", "single:click"], capsys)
    assert code == 0
    doc = json.loads(out)
    record = doc["adjusted"][0]
    assert record["ad_id"] == "x"
    assert record["adjusted_bids"]["click"] == exact(1.5)
    assert record["expected_adjusted_value"] == exact(0.15)
    assert doc["excluded"] == []


def test_adjust_lists_infeasible_ads_under_excluded(tmp_path, capsys):
    doc = cpc_scenario(charges={"view": 0.18})
    path = write_scenario(tmp_path / "s.json", doc)
    code, out, _ = run_cli(["adjust", path, "--strategy", "single:click"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert [r["ad_id"] for r in parsed["adjusted"]] == ["x"]
    assert parsed["excluded"][0]["ad_id"] == "y"
    assert "exceeds expected offer value" in parsed["excluded"][0]["reason"]


def test_adjust_empty_offers_is_not_an_error(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario(offers=[]))
    code, out, _ = run_cli(["adjust", path], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["adjusted"] == [] and parsed["excluded"] == []


def test_auction_second_price_two_cpm_ads(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "events": [{"id": "view", "kind": "view", "prob": 1.0}],
        "offers": [
            {"ad_id": "a", "price_type": "cpm", "bids": {"view": 0.5}},
            {"ad_id": "b", "price_type": "cpm", "bids": {"view": 0.3}},
        ],
        "charges": {},
    }
    path = write_scenario(tmp_path / "s.json", doc)
    code, out, _ = run_cli(["auction", path, "--pricing", "second"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["winners"][0]["ad_id"] == "a"
    assert parsed["winners"][0]["prices"]["view"] == exact(0.3)


def test_auction_first_price_pays_adjusted_bids(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    code, out, _ = run_cli(
        ["auction", path, "--pricing", "first", "--strategy", "single:click"], capsys
    )
    assert code == 0
    parsed = json.loads(out)
    winner = parsed["winners"][0]
    assert winner["ad_id"] == "x"
    assert winner["prices"]["click"] == exact(1.5)
    assert winner["price_factor"] == 1.0


def test_auction_underfilled_slots(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "events": [{"id": "view", "kind": "view", "prob": 1.0}],
        "offers": [{"ad_id": "solo", "price_type": "cpm", "bids": {"view": 0.4}}],
        "charges": {},
    }
    path = write_scenario(tmp_path / "s.json", doc)
    code, out, _ = run_cli(["auction", path, "--slots", "2"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert [w["slot"] for w in parsed["winners"]] == [1]


def test_auction_on_reordered_bids_writes_the_same_bytes(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden" / "hybrid_three_event.json"
    doc = json.loads(golden.read_text(encoding="utf-8"))
    for offer in doc["offers"]:
        offer["bids"] = dict(reversed(offer["bids"].items()))
    reordered = write_scenario(tmp_path / "reordered.json", doc)
    outputs = []
    for path in (str(golden), reordered):
        code, out, _ = run_cli(["auction", path, "--strategy", "proportional", "--slots", "2"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_simulate_is_byte_identical_across_runs(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["simulate", path, "--strategy", "single:click", "--trials", "4000", "--seed", "42"]
    assert main(args + ["-o", str(out_a)]) == 0
    assert main(args + ["-o", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_stdout_matches_file_output(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    out_file = tmp_path / "r.json"
    args = ["simulate", path, "--trials", "500", "--seed", "1"]
    assert main(args + ["-o", str(out_file)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == out_file.read_text(encoding="utf-8")


@pytest.mark.parametrize("flag, value", [("--seed", "1.5"), ("--seed", "true"), ("--trials", "2.5"), ("--model", "chain")])
def test_simulate_refuses_a_mistyped_run_flag_at_the_command_line(flag, value, tmp_path, capsys):
    # argparse types the run flags, so validate_scenario's type checks never see the CLI's input
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    detail = _one_diagnostic(*run_cli(["simulate", path, flag, value], capsys))
    assert detail.startswith(f"argument {flag}: invalid ")


def test_simulate_csv_summary(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    csv_path = tmp_path / "summary.csv"
    code, _, _ = run_cli(
        [
            "simulate", path, "--strategy", "single:click",
            "--trials", "1000", "--seed", "2", "--csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "ad_id,expected_adjusted_value,slot,expected_payment,mc_mean,mc_stderr"
    assert lines[1].startswith("x,")
    assert lines[2].startswith("y,")
    assert lines[2].split(",")[3] == ""  # losers carry no expected payment


def test_the_csv_writes_each_float_as_the_report_does(tmp_path, capsys, monkeypatch):
    """Each float cell is the report writer's text for the same record field."""
    documents = []
    write = cli.dumps_canonical
    monkeypatch.setattr(cli, "dumps_canonical", lambda doc: documents.append(doc) or write(doc))
    scenario = str(Path(__file__).resolve().parent / "golden" / "hybrid_three_event.json")
    csv_path = tmp_path / "summary.csv"
    code, _, _ = run_cli(
        ["simulate", scenario, "--strategy", "proportional", "--trials", "2000", "--seed", "11", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    with open(csv_path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    records = documents[0]["ads"]
    assert len(rows) == len(records)
    cells = [(cell, record[column]) for row, record in zip(rows, records) for column, cell in zip(header, row)]
    floats = [(cell, v) for cell, v in cells if type(v) is float]
    assert floats and all(cell == write([v]).split("\n")[1].strip() for cell, v in floats)
    assert len(floats) >= 2 * len(records)


@pytest.mark.parametrize("x", [0.0, -0.0, 1.0, 0.1, -2.5, 1 / 3, 1e300, 5e-324, math.nan, math.inf])
def test_the_csv_float_text_is_the_report_writers(x):
    """The zeros and the non-finite values, which no golden CSV cell holds, too."""
    try:
        expected = cli.dumps_canonical([x]).split("\n")[1].strip()
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            cli._float_text(x)
        assert str(info.value) == str(exc)
        return
    assert cli._float_text(x) == expected


def test_simulate_writes_the_report_before_the_csv(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    absent = tmp_path / "absent"
    report, csv_path = tmp_path / "report.json", tmp_path / "summary.csv"
    for output, summary in ((absent / "report.json", csv_path), (report, absent / "summary.csv")):
        code, _, err = run_cli(["simulate", path, "--trials", "100", "-o", str(output), "--csv", str(summary)], capsys)
        assert (code, json.loads(err)["error"]) == (2, "io")
    assert not csv_path.exists()  # a failed -o write stops before the CSV
    assert json.loads(report.read_text(encoding="utf-8"))["format_version"] == 1


def test_simulate_rejects_zero_trials(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    code, _, err = run_cli(["simulate", path, "--trials", "0"], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "validation"
    assert any("trials must be >= 1" in issue for issue in record["detail"])


def test_missing_input_file_is_io_failure(tmp_path, capsys):
    code, _, err = run_cli(["simulate", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "io"


def test_malformed_json_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["simulate", str(path)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "validation"


def test_invalid_offer_diagnostics_are_itemized(tmp_path, capsys):
    doc = cpc_scenario()
    doc["offers"][0]["bids"] = {"click": -2.0}
    doc["events"][1]["prob"] = 1.7
    path = write_scenario(tmp_path / "s.json", doc)
    code, _, err = run_cli(["simulate", str(path)], capsys)
    assert code == 1
    record = json.loads(err)
    text = "\n".join(record["detail"])
    assert "negative bid" in text
    assert "probability out of range" in text


def test_unknown_format_version_is_rejected(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario(format_version=99))
    code, _, err = run_cli(["simulate", str(path)], capsys)
    assert code == 1
    assert "format_version" in "\n".join(json.loads(err)["detail"])


def test_module_entrypoint_runs_as_subprocess(tmp_path):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    proc = subprocess.run(
        [sys.executable, "-m", "uxcharge", "adjust", path, "--strategy", "single:click"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["adjusted"][0]["ad_id"] == "x"


def test_help_is_available_per_subcommand(capsys):
    for sub in ("adjust", "auction", "simulate"):
        with pytest.raises(SystemExit) as excinfo:
            main([sub, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_main_leaves_the_root_logger_as_found(tmp_path):
    # A fresh interpreter: pytest's own root handlers would hide a handler added by main.
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    script = (
        "import logging, sys\n"
        "from uxcharge.cli import main\n"
        "root = logging.getLogger()\n"
        "found = (list(root.handlers), root.level)\n"
        "for _ in range(2):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "assert (list(root.handlers), root.level) == found, (root.handlers, root.level)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "simulate", path, "--trials", "100", "-o", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


NO_NUMPY_SCRIPT = """
import sys
import uxcharge as ux, uxcharge.cli
from uxcharge import cli, sim

scenario, flags, report = sys.argv[1], sys.argv[2:-1], sys.argv[-1]
events = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0), ux.EventSpec("click", ux.EventKind.CLICK, 0.1))
charges = ux.ChargeSchedule({"view": 0.05, "click": 0.0})
offers = [
    ux.Offer("x", ux.PriceType.CPC, events, {"view": 0.0, "click": 2.0}),
    ux.Offer("y", ux.PriceType.CPM, events, {"view": 0.15, "click": 0.0}),
]
plans = {o.ad_id: ux.build_plan("single:click", o, charges) for o in offers if ux.is_feasible(o, charges)}
adjusted = [ux.adjust_general(o, plans[o.ad_id]) for o in offers if o.ad_id in plans]
award = ux.run_second_price(adjusted, ux.SlotModel(1, {"x": (0.2,)})).winners[0]
ux.settle_general(award.prices, plans[award.ad_id], {"view": 1, "click": 1}, award.ad_id)
strategy = flags[:2]
assert cli.main(["adjust", scenario, *strategy]) == 0
assert cli.main(["auction", scenario, *strategy, "--pricing", "second"]) == 0
assert "numpy" not in sys.modules, "the auction path loaded numpy"

sim._WORKERS = 2  # the winners' oracles on a two-thread pool, whatever the CPU count
assert cli.main(["simulate", scenario, *flags, "-o", report]) == 0
assert "numpy" in sys.modules
"""


def test_the_auction_path_never_loads_numpy(tmp_path):
    # A fresh interpreter: pytest and the other tests have numpy loaded already.
    from test_acceptance import GOLDEN_RUNS

    golden = Path(__file__).resolve().parent / "golden"
    scenario, report = golden / "hybrid_three_event.json", tmp_path / "report.json"
    flags = dict(GOLDEN_RUNS)["hybrid_three_event"]
    assert flags[0] == "--strategy"
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, str(scenario), *flags, str(report)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert report.read_bytes() == (golden / "hybrid_three_event.report.json").read_bytes()


def test_per_offer_event_override(tmp_path, capsys):
    doc = cpc_scenario()
    doc["offers"][0]["events"] = [
        {"id": "view", "kind": "view", "prob": 1.0},
        {"id": "click", "kind": "click", "prob": 0.5},
    ]
    path = write_scenario(tmp_path / "s.json", doc)
    code, out, _ = run_cli(["adjust", path, "--strategy", "single:click"], capsys)
    assert code == 0
    record = json.loads(out)["adjusted"][0]
    assert record["shift_plan"]["click"] == exact(0.1)  # 0.05 / 0.5
    assert record["expected_adjusted_value"] == exact(2.0 * 0.5 - 0.05)


def _reserve_argv(path):
    """Arguments for each subcommand that takes a reserve."""
    return {"simulate": ["simulate", path, "--trials", "100"], "auction": ["auction", path]}


@pytest.mark.parametrize("reserve", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "auction"])
def test_bad_reserve_is_one_validation_diagnostic(command, reserve, tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    argv = _reserve_argv(path)[command]
    code, out, err = run_cli([*argv, "--reserve", reserve], capsys)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    assert any("reserve" in issue for issue in record["detail"])


@pytest.mark.parametrize("command", ["adjust", "auction", "simulate"])
def test_bad_reserve_in_the_scenario_is_one_validation_diagnostic(command, tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario(reserve=-1))
    extra = ["--trials", "100"] if command == "simulate" else []
    detail = _one_diagnostic(*run_cli([command, path, *extra], capsys))
    assert detail == "reserve must be a finite number >= 0, got -1.0"


@pytest.mark.parametrize(
    "command, flags",
    [("simulate", ["--trials", "0"]), ("auction", ["--strategy", "bogus"])],
    ids=["simulate", "auction"],
)
def test_bad_reserve_is_itemized_with_other_scenario_issues(command, flags, tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    argv = [*_reserve_argv(path)[command], *flags]
    _one_diagnostic(*run_cli(argv, capsys))  # the other issue alone
    code, out, err = run_cli([*argv, "--reserve", "-1"], capsys)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    detail = json.loads(lines[0])["detail"]
    assert len(detail) == 2
    assert "reserve must be a finite number >= 0, got -1.0" in detail


def test_tolerance_band_ad_is_excluded_by_every_subcommand(tmp_path, capsys):
    # Feasible within VALIDATION_TOL, yet its adjusted value is -5e-10.
    doc = {
        "format_version": 1,
        "events": [{"id": "view", "kind": "view", "prob": 1.0}],
        "offers": [
            {"ad_id": "edge", "price_type": "cpm", "bids": {"view": 0.1}},
            {"ad_id": "rival", "price_type": "cpm", "bids": {"view": 0.3}},
        ],
        "charges": {"view": 0.1000000005},
    }
    path = write_scenario(tmp_path / "s.json", doc)
    reason = "expected adjusted value is negative"
    expected = [{"ad_id": "edge", "reason": reason}]

    code, out, _ = run_cli(["adjust", path], capsys)
    assert code == 0
    adjusted = json.loads(out)
    assert [r["ad_id"] for r in adjusted["adjusted"]] == ["rival"]
    assert adjusted["excluded"] == expected

    code, out, _ = run_cli(["auction", path], capsys)
    assert code == 0
    auction = json.loads(out)
    assert [ad_id for ad_id, _ in auction["ranking"]] == ["rival"]
    assert auction["excluded"] == expected

    code, out, _ = run_cli(["simulate", path, "--trials", "100"], capsys)
    assert code == 0
    edge = json.loads(out)["ads"][0]
    assert edge["ad_id"] == "edge"
    assert edge["feasible"] is True
    assert edge["excluded"] is True
    assert edge["exclusion_reason"] == reason


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # a JSON integer literal no float can hold

# Scenario probes: (id, document, a word the diagnostic must contain).
SCENARIO_PROBES = [
    ("nan-bid", cpc_scenario(offers=[{"ad_id": "x", "price_type": "cpc", "bids": {"click": NAN}}]), "bid"),
    ("inf-bid", cpc_scenario(offers=[{"ad_id": "x", "price_type": "hybrid", "bids": {"view": INF}}]), "bid"),
    ("nan-charge", cpc_scenario(charges={"view": NAN}), "charge"),
    ("inf-charge", cpc_scenario(charges={"click": INF}), "charge"),
    ("charges-array", cpc_scenario(charges=[1]), "charges"),
    ("ctr-matrix-array", cpc_scenario(slots={"k": 1, "ctr_matrix": [1]}), "ctr_matrix"),
    ("events-number", cpc_scenario(events=5), "events"),
    ("huge-int-bid", cpc_scenario(offers=[{"ad_id": "x", "price_type": "cpc", "bids": {"click": HUGE}}]), "offers[0]"),
    ("huge-int-charge", cpc_scenario(charges={"view": HUGE}), "charges"),
    ("huge-int-prob", cpc_scenario(events=[{"id": "view", "kind": "view", "prob": HUGE}]), "events[0]"),
    ("huge-int-reserve", cpc_scenario(reserve=HUGE), "reserve"),
    ("huge-int-ctr", cpc_scenario(slots={"k": 1, "ctr_matrix": {"x": [HUGE]}}), "slots"),
    ("k-overflows", cpc_scenario(slots={"k": INF}), "'k'"),
    ("k-fraction", cpc_scenario(slots={"k": 2.7}), "'k'"),
    ("k-bool", cpc_scenario(slots={"k": True}), "'k'"),
    ("bool-bid", cpc_scenario(offers=[{"ad_id": "x", "price_type": "cpc", "bids": {"click": True}}]), "bid on 'click'"),
    ("string-prob", cpc_scenario(events=[{"id": "view", "kind": "view", "prob": 1.0}, {"id": "click", "kind": "click", "prob": "0.1"}]), "'prob' of 'click'"),
    ("nan-prob", cpc_scenario(events=[{"id": "view", "kind": "view", "prob": 1.0}, {"id": "click", "kind": "click", "prob": NAN}]), "'prob' of 'click'"),
    ("null-charge", cpc_scenario(charges={"view": None}), "charge on 'view'"),
    ("bool-reserve", cpc_scenario(reserve=False), "'reserve'"),
    ("string-ctr", cpc_scenario(slots={"k": 1, "ctr_matrix": {"x": ["0.1"]}}), "ctr entry for 'x'"),
    ("nan-ctr", cpc_scenario(slots={"k": 1, "ctr_matrix": {"x": [NAN]}}), "ctr out of range for 'x'"),
    ("null-ad-id", cpc_scenario(offers=[{"ad_id": None, "price_type": "cpc", "bids": {"click": 2.0}}]), "'ad_id'"),
    ("number-event-id", cpc_scenario(events=cpc_scenario()["events"] + [{"id": 5, "kind": "custom", "prob": 0.5}]), "event 'id'"),
    ("version-true", cpc_scenario(format_version=True), "format_version"),
    ("version-float", cpc_scenario(format_version=1.0), "format_version"),
    ("slots-number", cpc_scenario(slots=5), "'slots' must be an object"),
    ("ctr-row-number", cpc_scenario(slots={"k": 1, "ctr_matrix": {"x": 5}}), "ctr row for 'x'"),
    ("ctr-row-string", cpc_scenario(slots={"k": 2, "ctr_matrix": {"x": "ab"}}), "ctr row for 'x'"),
    ("ctr-undeclared-ad", cpc_scenario(slots={"k": 1, "ctr_matrix": {"z": [0.1]}}), "ad 'z' declared by no offer"),
    ("event-number", cpc_scenario(events=[5, *cpc_scenario()["events"]]), "events[0]: must be an object, got 5"),
    ("event-missing-prob", cpc_scenario(events=[{"id": "view", "kind": "view"}]), "events[0]: missing field 'prob'"),
    ("offer-number", cpc_scenario(offers=[5]), "offers[0]: must be an object, got 5"),
    ("offer-missing-ad-id", cpc_scenario(offers=[{"price_type": "cpm"}]), "offers[0]: missing field 'ad_id'"),
    ("offer-events-number", cpc_scenario(offers=[{"ad_id": "x", "price_type": "cpm", "events": 5}]), "offers[0]: 'events' must be an array"),
    ("offer-event-missing-kind", cpc_scenario(offers=[{"ad_id": "x", "price_type": "cpm", "events": [{"id": "view", "prob": 1.0}]}]), "offers[0]: events[0]: missing field 'kind'"),
    ("lone-surrogate-ad-id", cpc_scenario(offers=[{"ad_id": "\ud800", "price_type": "cpm", "bids": {"view": 1.0}}]), "offers[0]: 'ad_id'"),
    ("long-kind", cpc_scenario(events=[{"id": "view", "kind": "x" * 300, "prob": 1.0}]), "events[0]: 'kind' must be one of view, click"),
    ("object-price-type", cpc_scenario(offers=[{"ad_id": "x", "price_type": {"cpc": 1}, "bids": {}}]), "offers[0]: 'price_type' must be one of cpm, cpc, hybrid"),
    ("stray-top-level-key", cpc_scenario(reserv=0.1), "unknown field 'reserv'"),
]

# Finite documents whose numbers overflow float range inside the pipeline.
VIEW, SURE = {"id": "view", "kind": "view", "prob": 1.0}, {"id": "sure", "kind": "custom", "prob": 1.0}
VALUE_OVERFLOW = cpc_scenario(  # two bids of 1e308 that both pay
    events=[VIEW, SURE],
    offers=[{"ad_id": "x", "price_type": "hybrid", "bids": {"view": 1e308, "sure": 1e308}}],
    charges={},
)
CHARGE_OVERFLOW = cpc_scenario(
    events=[VIEW, SURE],
    offers=[{"ad_id": "x", "price_type": "hybrid", "bids": {"view": 1.0}}],
    charges={"view": 1e308, "sure": 1e308},
)
TINY_CLICK = cpc_scenario(  # under single:click, y's 0.05 view charge / 1e-310
    events=[VIEW, {"id": "click", "kind": "click", "prob": 1e-310}]
)
SLOT_OVERFLOW = cpc_scenario(  # finite at the declared 0.01, not at the ctr's 1.0
    events=[VIEW, {"id": "click", "kind": "click", "prob": 0.01}],
    offers=[{"ad_id": "x", "price_type": "hybrid", "bids": {"view": 1e308, "click": 1e308}}],
    charges={},
    slots={"k": 1, "ctr_matrix": {"x": [1.0]}},
)
TWINS = [{"ad_id": ad, "price_type": "hybrid", "bids": {"view": 1.5e308, "sure": 1.5e308}} for ad in "xy"]
PAYMENT_OVERFLOW = cpc_scenario(events=[VIEW, SURE], offers=TWINS, charges={"view": 1.5e308})
PAYMENT_OVERFLOW_8 = cpc_scenario(
    events=[VIEW, SURE, *({"id": f"c{i}", "kind": "custom", "prob": 0.5} for i in range(6))],
    offers=TWINS,
    charges={"view": 1.5e308},
)
STDERR_OVERFLOW = cpc_scenario(  # (1e200 - 5e199)**2 overflows unless the variance is rescaled
    events=[VIEW, {"id": "click", "kind": "click", "prob": 0.5}],
    offers=[{"ad_id": ad, "price_type": "cpc", "bids": {"click": 1e200}} for ad in "xy"],
    charges={},
)
MEAN_OVERFLOW = cpc_scenario(  # ten trials of 1e308 sum beyond float range unless rescaled
    events=[VIEW],
    offers=[{"ad_id": "x", "price_type": "cpm", "bids": {"view": 1e308}}],
    charges={},
)
SCENARIO_PROBES += [
    ("value-overflow", VALUE_OVERFLOW, "offer 'x'"),
    ("charge-overflow", CHARGE_OVERFLOW, "offer 'x'"),
]


def _one_diagnostic(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    assert len(record["detail"]) == 1  # one itemized issue
    return record["detail"][0]


@pytest.mark.parametrize("command", ["adjust", "auction", "simulate"])
@pytest.mark.parametrize("doc, word", [p[1:] for p in SCENARIO_PROBES], ids=[p[0] for p in SCENARIO_PROBES])
def test_malformed_or_non_finite_scenario_is_one_diagnostic(command, doc, word, tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", doc)
    extra = ["--trials", "100"] if command == "simulate" else []
    detail = _one_diagnostic(*run_cli([command, path, *extra], capsys))
    assert word in detail
    assert len(detail) < 120


ALL = ("adjust", "auction", "simulate")
MARKETS = ("auction", "simulate")

# Probes of one rule each on the subcommands it applies to:
# (id, document, subcommands, extra arguments, a word the diagnostic must contain).
RULE_PROBES = [
    ("slots-zero", cpc_scenario(), MARKETS, ["--slots", "0"], "slot count"),
    ("slots-negative", cpc_scenario(), MARKETS, ["--slots", "-3"], "slot count"),
    ("slots-beyond-ctr-row", cpc_scenario(slots={"k": 2, "ctr_matrix": {"x": [0.1, 0.05]}}), MARKETS, ["--slots", "3"], "ctr row for 'x'"),
    ("slots-not-an-integer", cpc_scenario(), MARKETS, ["--slots", "abc"], "--slots"),
    ("unknown-option", cpc_scenario(), ALL, ["--bogus"], "--bogus"),
    ("tiny-target-probability", TINY_CLICK, ALL, ["--strategy", "single:click"], "offer 'y'"),
    ("slot-value-overflow", SLOT_OVERFLOW, MARKETS, [], "offer 'x'"),
    ("payment-overflow", PAYMENT_OVERFLOW, ("simulate",), ["--pricing", "first"], "offer 'x'"),
    ("payment-overflow-second-price", PAYMENT_OVERFLOW, ("simulate",), [], "offer 'x'"),
    # 8 events x 200,000 trials: one winner, whose Monte Carlo overflows over many units of rows
    ("payment-overflow-many-trials", PAYMENT_OVERFLOW_8, ("simulate",), ["--pricing", "first", "--trials", "200000"], "offer 'x'"),
    ("trials-beyond-limit", cpc_scenario(), ("simulate",), ["--trials", "1000001"], "trials must be <= 1000000"),
]


@pytest.mark.parametrize(
    "command, doc, extra, word",
    [(c, doc, extra, word) for _, doc, commands, extra, word in RULE_PROBES for c in commands],
    ids=[f"{probe}-{c}" for probe, _, commands, _, _ in RULE_PROBES for c in commands],
)
def test_each_rule_is_one_diagnostic_naming_the_ad_or_flag(command, doc, extra, word, tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", doc)
    trials = ["--trials", "100"] if command == "simulate" else []
    detail = _one_diagnostic(*run_cli([command, path, *trials, *extra], capsys))
    assert word in detail


def test_squared_deviations_beyond_float_range_give_a_finite_stderr(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", STDERR_OVERFLOW)
    code, out, err = run_cli(["simulate", path, "--trials", "100"], capsys)
    assert (code, err) == (0, "")
    winner = json.loads(out)["ads"][0]
    assert winner["ad_id"] == "x"
    assert winner["expected_payment"] == 5e199
    assert 0.0 < winner["mc_stderr"] < 1e200
    assert abs(winner["mc_mean"] - winner["expected_payment"]) <= 5.0 * winner["mc_stderr"]


def test_trial_totals_summing_beyond_float_range_give_a_finite_mean(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", MEAN_OVERFLOW)
    code, out, err = run_cli(["simulate", path, "--pricing", "first", "--trials", "10"], capsys)
    assert (code, err) == (0, "")
    winner = json.loads(out)["ads"][0]
    assert winner["expected_payment"] == winner["enumerated_payment"] == 1e308
    assert math.isfinite(winner["mc_mean"])


@pytest.mark.parametrize("command", ALL)
def test_missing_input_argument_is_one_diagnostic(command, capsys):
    detail = _one_diagnostic(*run_cli([command], capsys))
    assert "input" in detail


# The top-level keys of an adjust document that a scenario does not define.
ADJUST_KEYS = ["unknown field 'strategy'", "unknown field 'adjusted'", "unknown field 'excluded'"]


def _adjust_issues(code, out, err):
    """The issues of the one diagnostic line a subcommand gives for an adjust document."""
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation"
    return record["detail"]


@pytest.mark.parametrize("slots", ["0", "-3", "abc"])
def test_bad_slots_on_adjust_document_is_one_diagnostic(slots, tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    adjusted = tmp_path / "adjusted.json"
    assert main(["adjust", path, "-o", str(adjusted)]) == 0
    capsys.readouterr()
    issues = _adjust_issues(*run_cli(["auction", str(adjusted), "--slots", slots], capsys))
    assert issues == ([f"argument --slots: invalid int value: {slots!r}"] if slots == "abc" else ADJUST_KEYS)


def _break_prob(doc):
    doc["adjusted"][0]["events"][1]["prob"] = NAN


def _break_bid(doc):
    doc["adjusted"][0]["adjusted_bids"]["click"] = INF


def _break_value(doc):
    doc["adjusted"][0]["expected_adjusted_value"] = NAN


def _break_adjusted(doc):
    doc["adjusted"] = 5


def _break_excluded(doc):
    doc["excluded"] = [1]


def _huge_prob(doc):
    doc["adjusted"][0]["events"][1]["prob"] = HUGE


def _huge_bid(doc):
    doc["adjusted"][0]["adjusted_bids"]["click"] = HUGE


def _huge_value(doc):
    doc["adjusted"][0]["expected_adjusted_value"] = HUGE


def _bool_bid(doc):
    doc["adjusted"][0]["adjusted_bids"]["click"] = True


def _string_value(doc):
    doc["adjusted"][0]["expected_adjusted_value"] = "0.1"


def _string_prob(doc):
    doc["adjusted"][0]["events"][1]["prob"] = "0.1"


def _null_ad_id(doc):
    doc["adjusted"][0]["ad_id"] = None


def _version_true(doc):
    doc["format_version"] = True


def _version_float(doc):
    doc["format_version"] = 1.0


def _repeat_ad(doc):
    doc["adjusted"].append(dict(doc["adjusted"][0]))


def _record_number(doc):
    doc["adjusted"][0] = 5


def _missing_bids(doc):
    del doc["adjusted"][0]["adjusted_bids"]


def _events_number(doc):
    doc["adjusted"][0]["events"] = 5


def _missing_prob(doc):
    del doc["adjusted"][0]["events"][1]["prob"]


def _excluded_nan(doc):
    doc["excluded"] = [{"r": NAN}]


def _excluded_nan_reason(doc):
    doc["excluded"] = [{"ad_id": "y", "reason": NAN}]


def _impossible_prob(doc):
    doc["adjusted"][0]["events"][1]["prob"] = 7.5


def _negative_prob(doc):
    doc["adjusted"][0]["events"][1]["prob"] = -3.0


def _repeat_event(doc):
    events = doc["adjusted"][0]["events"]
    events.append({**events[0], "prob": -3.0})


def _missing_view(doc):
    record = doc["adjusted"][0]
    del record["events"][0]
    del record["adjusted_bids"]["view"]


def _negative_value(doc):
    doc["adjusted"][1]["expected_adjusted_value"] = -5.0


def _negative_record(doc):
    # adjust lists such an ad under 'excluded'; auction used to drop the record
    # from both 'ranking' and 'excluded' and exit 0
    record = doc["adjusted"][1]
    record["adjusted_bids"], record["expected_adjusted_value"] = {"view": -0.5, "click": 0.0}, -0.5


def _inflated_value(doc):
    doc["adjusted"][1]["expected_adjusted_value"] = 1000.0


def _adjusted_and_excluded(doc):
    doc["excluded"] = [{"ad_id": "y", "reason": "expected adjusted value is negative"}]


def _slot_overflow(doc):
    record = doc["adjusted"][0]
    record["events"] = [VIEW, SURE]
    record["adjusted_bids"] = {"view": 1e308, "sure": 1e308}


@pytest.mark.parametrize(
    "breaks, issues",
    [
        (_break_prob, ADJUST_KEYS),
        (_break_bid, ADJUST_KEYS),
        (_break_value, ADJUST_KEYS),
        (_break_adjusted, ADJUST_KEYS),
        (_break_excluded, ADJUST_KEYS),
        (_huge_prob, ADJUST_KEYS),
        (_huge_bid, ADJUST_KEYS),
        (_huge_value, ADJUST_KEYS),
        (_bool_bid, ADJUST_KEYS),
        (_string_value, ADJUST_KEYS),
        (_string_prob, ADJUST_KEYS),
        (_null_ad_id, ADJUST_KEYS),
        (_version_true, ["unsupported format_version True; this build reads version 1"]),
        (_version_float, ["unsupported format_version 1.0; this build reads version 1"]),
        (_repeat_ad, ADJUST_KEYS),
        (_record_number, ADJUST_KEYS),
        (_missing_bids, ADJUST_KEYS),
        (_events_number, ADJUST_KEYS),
        (_missing_prob, ADJUST_KEYS),
        (_impossible_prob, ADJUST_KEYS),
        (_negative_prob, ADJUST_KEYS),
        (_repeat_event, ADJUST_KEYS),
        (_missing_view, ADJUST_KEYS),
        (_slot_overflow, ADJUST_KEYS),
        (_negative_value, ADJUST_KEYS),
        (_negative_record, ADJUST_KEYS),
        (_inflated_value, ADJUST_KEYS),
        (_adjusted_and_excluded, ADJUST_KEYS),
        (_excluded_nan, ADJUST_KEYS),
        (_excluded_nan_reason, ADJUST_KEYS),
    ],
    ids=[
        "nan-prob",
        "inf-adjusted-bid",
        "nan-expected-value",
        "adjusted-number",
        "excluded-numbers",
        "huge-int-prob",
        "huge-int-adjusted-bid",
        "huge-int-expected-value",
        "bool-adjusted-bid",
        "string-expected-value",
        "string-prob",
        "null-ad-id",
        "version-true",
        "version-float",
        "repeated-ad-id",
        "record-number",
        "missing-adjusted-bids",
        "events-number",
        "event-missing-prob",
        "impossible-prob",
        "negative-prob",
        "repeated-event-id",
        "missing-view-event",
        "slot-value-overflow",
        "negative-expected-value",
        "negative-record",
        "inflated-expected-value",
        "adjusted-and-excluded",
        "excluded-entry-nan",
        "excluded-reason-nan",
    ],
)
def test_malformed_or_non_finite_adjust_document_is_one_diagnostic(breaks, issues, tmp_path, capsys):
    # auction reads scenarios only: however its records are broken, an adjust
    # document is refused by its header or its top-level keys, in one line
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    adjusted = tmp_path / "adjusted.json"
    assert main(["adjust", path, "--strategy", "single:click", "-o", str(adjusted)]) == 0
    doc = json.loads(adjusted.read_text(encoding="utf-8"))
    breaks(doc)
    adjusted.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert _adjust_issues(*run_cli(["auction", str(adjusted)], capsys)) == issues


_CLICK_AT_ZERO_OR_UNDECLARED = [
    {
        "ad_id": "x",
        "price_type": "cpc",
        "events": [{"id": "view", "kind": "view", "prob": 1.0}, {"id": "click", "kind": "click", "prob": 0.0}],
        "bids": {"click": 2.0},
    },
    {"ad_id": "y", "price_type": "cpm", "events": [{"id": "view", "kind": "view", "prob": 1.0}], "bids": {"view": 0.15}},
]


@pytest.mark.parametrize(
    ("offers", "strategy", "expected", "clean"),
    [
        (None, "single:ghost", [f"offer '{ad}': strategy target event 'ghost' not declared" for ad in "xy"], "single:click"),
        (
            _CLICK_AT_ZERO_OR_UNDECLARED,
            "single:click",
            [
                "offer 'x': strategy target event 'click' has zero probability",
                "offer 'y': strategy target event 'click' not declared",
            ],
            "single:view",
        ),
    ],
    ids=["undeclared", "zero-probability-then-undeclared"],
)
def test_single_strategy_target_is_checked_on_a_scenario(offers, strategy, expected, clean, tmp_path, capsys):
    # each offer's target problem is worded, in offer order; a target every offer carries runs
    doc = cpc_scenario(**({} if offers is None else {"offers": offers}))
    path = write_scenario(tmp_path / "s.json", doc)
    code, out, err = run_cli(["auction", path, "--strategy", strategy], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation", "detail": expected}
    code, _, err = run_cli(["auction", path, "--strategy", clean], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("exit_code", [0, 1, 2])
def test_main_pauses_the_cyclic_collector_and_leaves_it_as_found(collecting, exit_code, tmp_path, capsys, monkeypatch):
    import gc

    import uxcharge.cli as cli

    doc = {0: cpc_scenario(), 1: cpc_scenario(format_version=2)}.get(exit_code)
    path = write_scenario(tmp_path / "s.json", doc) if doc else str(tmp_path / "missing.json")
    during = []
    original = cli.parse_scenario_doc
    monkeypatch.setattr(cli, "parse_scenario_doc", lambda d: during.append(gc.isenabled()) or original(d))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        code, _, _ = run_cli(["adjust", path], capsys)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == exit_code
    assert after is collecting
    assert during == ([] if exit_code == 2 else [False])


LATIN_1 = json.dumps(cpc_scenario(offers=[{"ad_id": "caf\u00e9", "price_type": "cpm", "bids": {"view": 1.0}}]), ensure_ascii=False)


@pytest.mark.parametrize("command", ALL)
@pytest.mark.parametrize(
    "raw",
    [b"\xff", json.dumps(cpc_scenario()).encode("utf-16"), LATIN_1.encode("latin-1")],
    ids=["byte-ff", "utf-16", "latin-1"],
)
def test_input_that_is_not_utf8_is_one_diagnostic(command, raw, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(raw)
    detail = _one_diagnostic(*run_cli([command, str(path)], capsys))
    assert "input is not UTF-8" in detail


@pytest.mark.parametrize("command", ALL)
@pytest.mark.parametrize("raw", ["[" * 100_000, '{"a": ' * 100_000], ids=["arrays", "objects"])
def test_input_nested_too_deeply_is_one_diagnostic(command, raw, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(raw, encoding="utf-8")
    detail = _one_diagnostic(*run_cli([command, str(path)], capsys))
    assert detail == "input nests too deeply to parse"


@pytest.mark.parametrize("command", ALL)
def test_integer_past_the_digit_limit_is_one_diagnostic(command, tmp_path, capsys):
    # json.loads raises a plain ValueError past Python's int digit limit (4,300
    # digits by default); a build without the limit rejects the value in number()
    path = tmp_path / "s.json"
    path.write_text('{"format_version": 1, "reserve": 1' + "0" * 5000 + "}", encoding="utf-8")
    _one_diagnostic(*run_cli([command, str(path)], capsys))


@pytest.mark.parametrize("version", [99, True, 1.0], ids=["99", "true", "1.0"])
def test_scenario_and_adjust_document_share_one_header_diagnostic(version, tmp_path, capsys):
    path = write_scenario(tmp_path / "s.json", cpc_scenario())
    adjusted = tmp_path / "adjusted.json"
    assert main(["adjust", path, "-o", str(adjusted)]) == 0
    doc = json.loads(adjusted.read_text(encoding="utf-8"))
    doc["format_version"] = version
    adjusted.write_text(json.dumps(doc), encoding="utf-8")
    write_scenario(tmp_path / "s.json", cpc_scenario(format_version=version))
    capsys.readouterr()
    via_simulate = _one_diagnostic(*run_cli(["simulate", path, "--trials", "100"], capsys))
    via_auction = _one_diagnostic(*run_cli(["auction", str(adjusted)], capsys))
    assert via_simulate == via_auction
    assert f"unsupported format_version {version!r}" in via_simulate


@pytest.mark.parametrize("command", ALL)
@pytest.mark.parametrize("name", ["cpc_view_charge", "cpm_both_charges", "hybrid_three_event"])
def test_adjust_document_is_no_scenario_to_any_subcommand(command, name, capsys):
    # its records carry no ctr matrix, reserve or charges, so it would price another market
    path = Path(__file__).resolve().parent / "golden" / f"{name}.adjust.json"
    assert _adjust_issues(*run_cli([command, str(path)], capsys)) == ADJUST_KEYS


# --- fuzzing: any JSON document or bytes give a report or one diagnostic ------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


def field(plausible):
    """A plausible value for a document field, or any JSON value at all."""
    return st.one_of(plausible, json_values)


EVENT_IDS = st.sampled_from(["view", "click", "conv", "extra"])
numbers = st.one_of(st.floats(0.0, 1.0), st.floats(), st.integers(-2, 3), st.just(HUGE))
amounts = st.dictionaries(EVENT_IDS, field(numbers), max_size=4)
events = st.lists(
    st.fixed_dictionaries(
        {
            "id": field(EVENT_IDS),
            "kind": field(st.sampled_from(["view", "click", "conversion", "custom"])),
            "prob": field(numbers),
        }
    ),
    max_size=4,
)
ad_ids = st.sampled_from(["a", "b", "c"])
scenario_docs = st.fixed_dictionaries(
    {"format_version": field(st.just(1))},
    optional={
        "events": field(events),
        "offers": field(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "ad_id": field(ad_ids),
                        "price_type": field(st.sampled_from(["cpm", "cpc", "hybrid"])),
                        "bids": field(amounts),
                    },
                    optional={"events": field(events)},
                ),
                max_size=4,
            )
        ),
        "charges": field(amounts),
        "slots": field(
            st.fixed_dictionaries(
                {"k": field(st.integers(1, 4))},
                optional={"ctr_matrix": field(st.dictionaries(ad_ids, field(st.lists(numbers, max_size=4))))},
            )
        ),
        "reserve": field(numbers),
    },
)
adjust_docs = st.fixed_dictionaries(
    {
        "format_version": field(st.just(1)),
        "adjusted": field(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "ad_id": field(ad_ids),
                        "events": field(events),
                        "adjusted_bids": field(amounts),
                        "expected_adjusted_value": field(numbers),
                    }
                ),
                max_size=4,
            )
        ),
    },
    optional={"excluded": field(st.lists(json_values, max_size=2))},
)


def _fuzz_example(name):
    return example(next(doc for probe, doc, _ in SCENARIO_PROBES if probe == name), None, "identity")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.one_of(scenario_docs, adjust_docs, json_values, st.binary(max_size=8)),
    st.one_of(st.none(), st.integers(-1, 5)),
    st.sampled_from(["identity", "single:click", "proportional"]),
)
@_fuzz_example("huge-int-bid")
@_fuzz_example("huge-int-charge")
@_fuzz_example("huge-int-prob")
@_fuzz_example("huge-int-reserve")
@_fuzz_example("huge-int-ctr")
@_fuzz_example("k-overflows")
@_fuzz_example("k-fraction")
@_fuzz_example("k-bool")
@_fuzz_example("bool-bid")
@_fuzz_example("slots-number")
@_fuzz_example("ctr-row-string")
@_fuzz_example("ctr-undeclared-ad")
@_fuzz_example("value-overflow")
@_fuzz_example("charge-overflow")
@_fuzz_example("stray-top-level-key")
@example(TINY_CLICK, None, "single:click")
@example(SLOT_OVERFLOW, None, "identity")
@example(PAYMENT_OVERFLOW, None, "identity")
@example(STDERR_OVERFLOW, None, "identity")
@example({"format_version": 1, "adjusted": [], "excluded": [{"r": NAN}]}, None, "identity")
@example(b"\xff", None, "identity")
@example(
    {
        "format_version": 1,
        "adjusted": [
            {
                "ad_id": "x",
                "events": [{"id": "view", "kind": "view", "prob": 1.0}],
                "adjusted_bids": {"view": HUGE},
                "expected_adjusted_value": HUGE,
            }
        ],
    },
    None,
    "identity",
)
def test_any_json_document_gives_a_document_or_one_diagnostic(tmp_path_factory, doc, slots, strategy):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
    if not isinstance(doc, bytes):
        assert_reads_like_reference(json.loads(path.read_bytes()), (strategy,), (OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL))
    market = [] if slots is None else ["--slots", str(slots)]
    for argv in (["adjust"], ["auction", *market], ["simulate", "--trials", "20", *market]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), "--strategy", strategy, *argv[1:]])
        if code == 0:
            assert isinstance(doc, dict) and "adjusted" not in doc  # an adjust document is no scenario
            assert err.getvalue() == ""
            json.loads(out.getvalue())
        else:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "validation"
