#!/usr/bin/env python3
"""Benchmark of the uxcharge pipeline: three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bulk-simulate --seed 1 --seconds 25 --trace 0

The workloads are defined, with the reason for each, in ``workloads.py``;
the harness's own smoke test runs with ``python3 -m pytest bench``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate pass that wraps the pipeline's functions from
outside (see ``spans.py``), reports per-layer metrics and the tracing
overhead, and writes the spans to ``bench/out/``. Every request's output is
checked; a request that fails or fails a check counts in ``failed``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, and a result
file under ``bench/out/``, carry the machine facts, sample counts and output
digests.

The program is imported from ``src/`` of the checkout and from nowhere else:
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Fresh processes that time set-up: at least the first number, and more up
# to the second while the budget in seconds lasts. One more fresh process
# sets up, runs one pass of requests and reads peak RSS.
SETUP_PROBES = (3, 12)
SETUP_BUDGET_S = 4.0
# Timed requests a run makes at least, however short --seconds is.
MIN_TIMED = 3
# Untimed auction-stream requests before the timed window.
STREAM_WARMUP = 200
# The span file stops taking whole requests once it holds this many spans.
SPAN_FILE_LIMIT = 50_000
# Relative tolerance for the closed form, enumeration and second-price identities.
REL_TOL = 1e-9
# Monte Carlo mean must lie within this many standard errors of the closed form.
MC_Z_LIMIT = 5.0
RESERVE = 0.0


def close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def import_uxcharge():
    """Import the package from this checkout's ``src/``; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "uxcharge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no uxcharge sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import uxcharge
    import uxcharge.cli

    if Path(uxcharge.__file__).resolve().parent != (src / "uxcharge").resolve():
        raise SystemExit(f"bench: uxcharge imported from {uxcharge.__file__}, not {src}")
    return uxcharge


# --- set-up ------------------------------------------------------------------


class SimulateInputs:
    """A scenario file on disk and the ``simulate`` command line that reads it."""

    def __init__(self, w: wl.Workload, seed: int, workdir: Path):
        scenario = workdir / "scenario.json"
        scenario.write_text(json.dumps(wl.scenario(w, seed)), encoding="utf-8")
        self.report = workdir / "report.json"
        self.argv = ["simulate", str(scenario), *wl.simulate_args(w, seed), "-o", str(self.report)]


class StreamRequest:
    """One auction request as domain objects, with its settlement draws."""

    def __init__(self, ux, doc: dict):
        self.offers = tuple(
            ux.Offer(
                o["ad_id"],
                ux.PriceType(o["price_type"]),
                tuple(ux.EventSpec(e["id"], ux.EventKind(e["kind"]), e["prob"]) for e in o["events"]),
                dict(o["bids"]),
            )
            for o in doc["offers"]
        )
        self.by_id = {o.ad_id: o for o in self.offers}
        self.charges = ux.ChargeSchedule(dict(doc["charges"]))
        self.slots = ux.SlotModel(doc["k"], {ad: tuple(row) for ad, row in doc["ctr"].items()})
        self.draws = doc["draws"]


def set_up(w: wl.Workload, seed: int, workdir: Path):
    """Import the program and build the workload's inputs; return (ux, inputs)."""
    ux = import_uxcharge()
    if w.kind == "simulate":
        return ux, SimulateInputs(w, seed, workdir)
    return ux, [StreamRequest(ux, doc) for doc in wl.requests(w, seed)]


# --- requests and their checks -------------------------------------------------


def check_report(data: bytes) -> tuple[list[str], dict]:
    """Check one ``simulate`` report; return (problems, agreement figures)."""
    try:
        report = json.loads(data)
        winners = [r for r in report["ads"] if r["slot"] is not None]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc}"], {}
    problems = [] if winners else ["report has no winners"]
    max_gap = max_z = 0.0
    for r in winners:
        exact, enum = r["expected_payment"], r["enumerated_payment"]
        mc, se = r["mc_mean"], r["mc_stderr"]
        gap = abs(exact - enum) / max(1.0, abs(exact), abs(enum))
        max_gap = max(max_gap, gap)
        if gap > REL_TOL:
            problems.append(f"{r['ad_id']}: closed form {exact!r} != enumeration {enum!r}")
        if se > 0.0:
            max_z = max(max_z, abs(mc - exact) / se)
        if abs(mc - exact) > MC_Z_LIMIT * se + REL_TOL * max(1.0, abs(exact)):
            problems.append(f"{r['ad_id']}: mc_mean {mc!r} off closed form {exact!r} (stderr {se!r})")
    return problems, {"oracle_max_rel_gap": max_gap, "mc_max_abs_z": max_z}


def stream_request(ux, w: wl.Workload, req: StreamRequest):
    """Feasibility, shift, adjustment, auction and settlement for one request.

    Names are looked up on the package at call time, so a traced pass sees
    every call.
    """
    included, plans = [], {}
    for offer in req.offers:
        if not ux.is_feasible(offer, req.charges):
            continue
        plan = ux.build_plan(w.strategy, offer, req.charges)
        adjusted = ux.adjust_general(offer, plan)
        if adjusted.expected_value < 0.0:
            continue
        plans[offer.ad_id] = plan
        included.append(adjusted)
    outcome = getattr(ux, f"run_{w.pricing}_price")(included, req.slots, RESERVE)
    settlements = []
    for award in outcome.winners:
        draws = req.draws[award.slot - 1]
        events = req.by_id[award.ad_id].events
        realized = {e.event_id: int(u < e.probability) for e, u in zip(events, draws)}
        settlements.append(ux.settle_general(award.prices, plans[award.ad_id], realized, award.ad_id))
    return included, outcome, settlements


def check_auction(ux, req: StreamRequest, result) -> tuple[list[str], str]:
    """Check second-price identities and settlement sums; return (problems, digest)."""
    included, outcome, settlements = result
    problems = [] if outcome.winners else ["auction has no winners"]
    remaining = [o for o in included if o.expected_value >= 0.0]
    digest = hashlib.sha256()
    for award in outcome.winners:
        competing = max(
            (ux.value_at_slot(o, req.slots, award.slot) for o in remaining if o.ad_id != award.ad_id),
            default=RESERVE,
        )
        priced = ux.AdjustedOffer(award.ad_id, req.by_id[award.ad_id].events, award.prices, 0.0)
        paid = ux.value_at_slot(priced, req.slots, award.slot)
        if not close(paid, max(competing, RESERVE)):
            problems.append(f"{award.ad_id}: priced value {paid!r} != competing value {competing!r}")
        remaining = [o for o in remaining if o.ad_id != award.ad_id]
        digest.update(repr((award.ad_id, award.slot, sorted(award.prices.items()))).encode())
    for s in settlements:
        if not close(s.total, math.fsum(s.line_items.values())):
            problems.append(f"{s.ad_id}: settlement total {s.total!r} != sum of line items")
        digest.update(repr((s.ad_id, s.total)).encode())
    return problems, digest.hexdigest()


class Ledger:
    """Counts requests and failures, and remembers each request's first digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []
        self.figures: dict = {}

    def record(self, key: int, problems: list[str], digest: str) -> None:
        self.attempted += 1
        first = self.digests.setdefault(key, digest)
        if digest != first:
            problems = problems + [f"request {key}: output differs from the first run of it"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def run_digest(self) -> str:
        joined = "".join(self.digests[k] for k in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


class Runner:
    """Makes and checks one workload's requests; ``run(i)`` returns wall seconds."""

    def __init__(self, ux, w: wl.Workload, inputs):
        self.ux, self.w, self.inputs = ux, w, inputs
        self.ledger = Ledger()
        self.report_cache: dict[str, tuple[list[str], dict]] = {}

    def __len__(self) -> int:
        return len(self.inputs) if self.w.kind == "stream" else 1

    def run(self, index: int) -> float:
        if self.w.kind == "stream":
            req = self.inputs[index % len(self.inputs)]
            t0 = time.perf_counter()
            result = stream_request(self.ux, self.w, req)
            elapsed = time.perf_counter() - t0
            problems, digest = check_auction(self.ux, req, result)
            self.ledger.record(index % len(self.inputs), problems, digest)
            return elapsed
        self.inputs.report.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = self.ux.cli.main(self.inputs.argv)
        elapsed = time.perf_counter() - t0
        data = self.inputs.report.read_bytes() if code == 0 else b""
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.report_cache:
            self.report_cache[digest] = check_report(data)
        problems, figures = self.report_cache[digest]
        if code != 0:
            problems = [f"simulate exited {code}"]
        self.ledger.figures = {**figures, "report_bytes": len(data)}
        self.ledger.record(0, problems, digest)
        return elapsed


# --- measurement ---------------------------------------------------------------


def timed_window(seconds: float, step, minimum: int) -> list[float]:
    """Call ``step(i)`` until ``seconds`` have passed and ``minimum`` calls are done."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < minimum or time.perf_counter() - start < seconds:
        times.append(step(len(times)))
    return times


def warm_up(runner: Runner) -> int:
    """Run the untimed requests before a timed window; return how many ran."""
    count = STREAM_WARMUP if runner.w.kind == "stream" else 1
    for i in range(count):
        runner.run(i)
    return count


def minimum(runner: Runner, warmup: int) -> int:
    """Timed requests needed so that a run covers every distinct request once."""
    return max(MIN_TIMED, len(runner) - warmup)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def probe(w: wl.Workload, seed: int, with_request: bool) -> dict:
    """Set up in this (fresh) process; optionally run one pass and read peak RSS."""
    t0 = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        ux, inputs = set_up(w, seed, workdir)
        result = {"setup_s": time.perf_counter() - t0}
        if with_request:
            runner = Runner(ux, w, inputs)
            for i in range(len(runner)):
                runner.run(i)
            if runner.ledger.failed:
                raise SystemExit(f"bench: probe request failed: {runner.ledger.problems[:3]}")
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_probe_process(w: wl.Workload, seed: int, with_request: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w.name, "--seed", str(seed),
           "--probe", "rss" if with_request else "setup"]
    env = dict(os.environ)
    if with_request:
        # Pin glibc's mmap threshold at its 128 KiB starting value. Left
        # dynamic, whether a ~10 MB report buffer grows in place or by a copy
        # depends on heap layout, and peak RSS on bulk-simulate jumped between
        # 97 and 108 MB with the hash seed and the inputs.
        env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SystemExit(f"bench: probe exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(w: wl.Workload, seed: int, seconds: float, workdir: Path):
    """Time set-up, requests and peak RSS with nothing wrapped.

    Returns (metrics, metrics printed only, runner, sample counts).
    """
    setup_samples: list[float] = []
    start = time.perf_counter()
    least, most = SETUP_PROBES
    while len(setup_samples) < least or (
        len(setup_samples) < most and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        setup_samples.append(run_probe_process(w, seed, False)["setup_s"])
    rss_probe = run_probe_process(w, seed, True)
    t0 = time.perf_counter()
    ux, inputs = set_up(w, seed, workdir)
    setup_samples.append(time.perf_counter() - t0)

    runner = Runner(ux, w, inputs)
    warmup = warm_up(runner)
    times = timed_window(seconds, lambda i: runner.run(warmup + i), minimum(runner, warmup))
    # Request latency is returned as p90 only. On a shared two-core host the
    # same request ran in two speed modes about 35% apart, each lasting from
    # seconds to minutes: across 25 s runs the median moved by up to 38% and
    # the throughput, 1 / mean latency, by up to 37%, while p90, which stays
    # in the slower mode unless a whole run falls in the faster one, moved by
    # 11-14%. The median and the throughput are printed.
    p90 = percentile(times, 90)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "request_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_probe["peak_rss_mb"], "MB"),
    }
    printed = {
        "request_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "auctions_per_s": (len(times) / math.fsum(times), "1/s"),
    }
    if w.kind == "simulate":
        printed["simulate_s"] = (statistics.median(times), "s")
    if len(times) >= 1000:
        printed["request_p99_ms"] = (percentile(times, 99) * 1e3, "ms")
    samples = {"setup": len(setup_samples), "timed_requests": len(times),
               "beyond_p90": sum(t > p90 for t in times)}
    return metrics, printed, runner, samples


def layer_metrics(w: wl.Workload, spans_: list[list], counts: Counter, figures: dict) -> dict:
    inclusive, own = spans.layer_times(spans_)
    feasibility_calls = counts["shift.feasibility"]
    return {
        "cli.parse_s": inclusive["cli.parse"],
        "cli.serialize_s": inclusive["cli.serialize"],
        "cli.self_s": own["cli.main"],
        "cli.report_bytes": figures.get("report_bytes", 0),
        "sim.validate_s": inclusive["sim.validate"],
        "model.validate_offer_s": inclusive["model.validate_offer"],
        "model.validate_offer_calls": counts["model.validate_offer"],
        "sim.run_scenario_self_s": own["sim.run_scenario"],
        "shift.feasibility_s": inclusive["shift.feasibility"],
        "shift.build_plan_s": inclusive["shift.build_plan"],
        "shift.feasible_ratio": counts["shift.feasible"] / feasibility_calls if feasibility_calls else 0.0,
        "shift.expected_charge_calls_per_offer": counts["shift.total_expected_charge"] / w.offers,
        "adjust.adjust_s": inclusive["adjust.adjust"],
        "adjust.calls": counts["adjust.adjust"],
        "auction.run_s": inclusive["auction.run"],
        "auction.value_at_slot_calls": counts["auction.value_at_slot"],
        "settle.settle_s": inclusive["settle.settle"],
        "settle.settlements": counts["settle.settle"],
        "sim.monte_carlo_s": inclusive["sim.monte_carlo"],
        "sim.mc_draws": counts["sim.mc_draws"],
        "sim.enumerate_s": inclusive["sim.enumerate"],
        "sim.enumerated_outcomes": counts["sim.enumerated_outcomes"],
        "sim.oracle_max_rel_gap": figures.get("oracle_max_rel_gap", 0.0),
        "sim.mc_max_abs_z": figures.get("mc_max_abs_z", 0.0),
    }


LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "_ratio": "ratio", "_gap": "ratio", "_z": "sigma"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def traced(w: wl.Workload, seed: int, seconds: float, workdir: Path):
    """Alternate untraced and traced runs of each request; derive layer metrics.

    Returns the same four items as ``end_to_end``.
    """
    ux, inputs = set_up(w, seed, workdir)
    runner = Runner(ux, w, inputs)
    tracer = spans.Tracer()
    warmup = warm_up(runner)

    plain: list[float] = []
    per_request: list[dict] = []
    kept: list[list] = []
    kept_spans = 0

    def pair(i: int) -> float:
        nonlocal kept_spans
        index = warmup + i
        plain.append(runner.run(index))
        with tracer.patched():
            wall = runner.run(index)
        recorded, counts = tracer.take()
        layers = layer_metrics(w, recorded, counts, runner.ledger.figures)
        layers["trace.request_s"] = wall
        per_request.append(layers)
        if kept_spans < SPAN_FILE_LIMIT:
            base = recorded[0][1] if recorded else 0.0
            kept.append([[n, s - base, e - base, p] for n, s, e, p in recorded])
            kept_spans += len(recorded)
        return wall

    traced_times = timed_window(seconds, pair, minimum(runner, warmup))
    metrics = {
        name: (statistics.median(r[name] for r in per_request), unit_of(name))
        for name in per_request[0]
    }
    metrics["trace.overhead_ratio"] = (statistics.median(traced_times) / statistics.median(plain), "ratio")
    span_file = OUT_DIR / f"spans-{w.name}-seed{seed}.json"
    span_file.write_text(json.dumps({
        "workload": w.name, "seed": seed, "fields": ["name", "start_s", "end_s", "parent"],
        "requests": kept,
    }), encoding="utf-8")
    samples = {"traced_requests": len(traced_times), "untraced_requests": len(plain),
               "span_file": os.path.relpath(span_file, ROOT)}
    return metrics, {}, runner, samples


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    if args.probe:
        print(json.dumps(probe(w, args.seed, args.probe == "rss")))
        return 0

    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        measure = traced if args.trace else end_to_end
        metrics, printed, runner, samples = measure(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = runner.ledger

    # Printed, not returned: a returned metric may not read 0, and this one
    # does on every clean run; ``failed`` and ``attempted`` carry it.
    extra = {**printed, "failed_ratio": (ledger.failed / ledger.attempted, "ratio")}
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "facts": machine_facts(), "samples": samples,
        "output_digest": ledger.run_digest(), "problems": ledger.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    (OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")

    print(f"# workload {w.name}  seed {args.seed}  trace {args.trace}")
    print(f"# facts {json.dumps(record['facts'])}")
    print(f"# samples {json.dumps(samples)}  output sha256 {record['output_digest']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"#   {name:<40} {value:>16.6g} {unit}")
    for problem in ledger.problems[:5]:
        print(f"# FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
