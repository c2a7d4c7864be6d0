"""Command-line front end: ingest scenario files, run the pipeline, emit reports.

Scenario files are single JSON documents::

    {
      "format_version": 1,
      "events": [{"id": "view", "kind": "view", "prob": 1.0}, ...],
      "offers": [{"ad_id": "x", "price_type": "cpc", "bids": {"click": 2.0}}, ...],
      "charges": {"view": 0.05},
      "slots": {"k": 2, "ctr_matrix": {"x": [0.1, 0.05]}},
      "reserve": 0.0
    }

The top-level "events" array is the shared event set; an offer may carry its
own "events" array to override probabilities per ad. Reports are emitted as
canonical JSON (keys in construction order, numbers at 17 significant
digits), so identical inputs and seeds produce byte-identical output.

All three subcommands share one pipeline, ``sim.prepare`` (validate, then
per ad feasibility, charge shift, adjustment), so they exclude the same ads
with the same two reasons: "expected user-experience charge exceeds expected
offer value" and "expected adjusted value is negative". ``auction`` also
reads ``adjust`` output. The reserve must be a finite number >= 0, every
other number read (bids, charges, probabilities, adjusted bids and values)
must be finite too, and the slot count ``k`` a JSON integer.

Exit codes: 0 success, 1 validation failure, 2 I/O failure. Diagnostics go
to stderr as one JSON record per failure. Set UXCHARGE_LOG to error, warn,
info, or debug to adjust logging.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from typing import Any, Mapping, Sequence

from .auction import SlotModel
from .model import (
    AdjustedOffer,
    ChargeSchedule,
    Offer,
    charges_from_dict,
    event_from_dict,
    event_to_dict,
    offer_from_dict,
    require_same_keys,
)
from .sim import (
    OutcomeModel,
    ScenarioConfig,
    ScenarioError,
    prepare,
    run_auction,
    run_scenario,
)

logger = logging.getLogger("uxcharge")

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

# Missing key, mistyped or unparseable value, or an integer too large for a float.
_BAD_FIELD = (KeyError, TypeError, ValueError, OverflowError)


# --- canonical JSON ----------------------------------------------------------


def dumps_canonical(doc: Any) -> str:
    """Serialize a report deterministically: 17-significant-digit numbers,
    keys in construction order, two-space indent, trailing newline."""
    out = io.StringIO()
    _write_canonical(doc, out, 0, {})
    out.write("\n")
    return out.getvalue()


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


_encode = json.encoder.encode_basestring_ascii


def _write_canonical(doc: Any, out: io.StringIO, depth: int, keys: dict[str, str]) -> None:
    """Write ``doc`` at nesting ``depth``, one loop per container.

    Scalars of the exact builtin types are formatted inline in their
    container's loop; anything else (``numpy.float64``, other mappings and
    sequences, unsupported types) comes back here and is dispatched in the
    order None, bool, int, float, str, mapping, list/tuple. ``keys``
    memoizes the encoded form of string keys across the whole document.
    """
    kind = type(doc)
    if kind is dict:
        is_mapping = True
    elif kind is list or kind is tuple:
        is_mapping = False
    elif doc is None or isinstance(doc, (bool, int, float, str)):
        out.write(_scalar_text(doc))
        return
    elif isinstance(doc, Mapping):
        is_mapping = True
    elif isinstance(doc, (list, tuple)):
        is_mapping = False
    else:
        raise TypeError(f"cannot serialize {kind.__name__} canonically")

    write = out.write
    if not doc:
        write("{}" if is_mapping else "[]")
        return
    pad = "  " * depth
    inner = pad + "  "
    write("{" if is_mapping else "[")
    separator = "\n"
    for entry in doc.items() if is_mapping else doc:
        write(separator)
        separator = ",\n"
        write(inner)
        if is_mapping:
            key, value = entry
            if type(key) is str:
                encoded = keys.get(key)
                if encoded is None:
                    encoded = keys[key] = _encode(key) + ": "
            else:
                encoded = _encode(str(key)) + ": "
            write(encoded)
        else:
            value = entry
        kind = type(value)
        if kind is float:
            if value == 0.0:
                write("0")  # also -0.0
            elif math.isfinite(value):
                write("%.17g" % value)
            else:
                raise ValueError(f"cannot serialize non-finite number {value!r}")
        elif kind is str:
            write(_encode(value))
        elif value is None:
            write("null")
        elif kind is bool:
            write("true" if value else "false")
        elif kind is int:
            write(str(value))
        else:
            _write_canonical(value, out, depth + 1, keys)
    write("\n" + pad + ("}" if is_mapping else "]"))


def _scalar_text(doc: Any) -> str:
    """JSON text of None, a bool, an int, a float or a str, subclasses included."""
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return _format_float(doc)
    return _encode(doc)


# --- scenario file parsing ---------------------------------------------------


def parse_scenario_doc(doc: Mapping) -> tuple[tuple[Offer, ...], ChargeSchedule, SlotModel | None, float]:
    """Turn a scenario JSON document into domain values.

    Raises ScenarioError with itemized issues on any structural problem.
    """
    issues: list[str] = []
    if not isinstance(doc, Mapping):
        raise ScenarioError(["scenario document must be a JSON object"])

    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ScenarioError(
            [f"unsupported format_version {version!r}; this build reads version {FORMAT_VERSION}"]
        )

    raw_events = doc.get("events", [])
    if not isinstance(raw_events, list):
        issues.append("'events' must be an array")
        raw_events = []
    shared_events = []
    for i, entry in enumerate(raw_events):
        try:
            shared_events.append(event_to_dict(event_from_dict(entry)))
        except _BAD_FIELD as exc:
            issues.append(f"events[{i}]: {exc}")

    offers: list[Offer] = []
    raw_offers = doc.get("offers", [])
    if not isinstance(raw_offers, list):
        issues.append("'offers' must be an array")
        raw_offers = []
    for i, entry in enumerate(raw_offers):
        try:
            resolved = dict(entry)
            resolved.setdefault("events", shared_events)
            offers.append(offer_from_dict(resolved))
        except _BAD_FIELD as exc:
            issues.append(f"offers[{i}]: {exc}")

    charges = ChargeSchedule(charges={})
    raw_charges = doc.get("charges", {})
    if not isinstance(raw_charges, Mapping):
        issues.append("'charges' must be an object")
    else:
        try:
            charges = charges_from_dict(raw_charges)
        except _BAD_FIELD as exc:
            issues.append(f"charges: {exc}")

    slots = None
    if doc.get("slots") is not None:
        raw_slots = doc["slots"]
        raw_ctr = raw_slots.get("ctr_matrix", {}) if isinstance(raw_slots, Mapping) else {}
        k = raw_slots.get("k") if isinstance(raw_slots, Mapping) else None
        if not isinstance(raw_ctr, Mapping):
            issues.append("slots: 'ctr_matrix' must be an object")
        elif type(k) is not int:
            issues.append(f"slots: 'k' must be an integer, got {k!r}")
        else:
            try:
                slots = SlotModel(
                    k=k,
                    ctr={str(ad): tuple(float(p) for p in row) for ad, row in raw_ctr.items()},
                )
            except _BAD_FIELD as exc:
                issues.append(f"slots: {exc}")

    try:
        reserve = float(doc.get("reserve", 0.0))
    except _BAD_FIELD as exc:
        issues.append(f"reserve: {exc}")
        reserve = 0.0

    if issues:
        raise ScenarioError(issues)
    return tuple(offers), charges, slots, reserve


def _load_scenario(path: str) -> Mapping:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _fail(kind: str, detail: Any, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")
    return code


# --- subcommands -------------------------------------------------------------


def _overrides(
    args: argparse.Namespace, slots: SlotModel | None, reserve: float
) -> tuple[SlotModel | None, float]:
    """The slots and reserve an auction runs with, after --slots/--reserve."""
    if args.slots is not None:
        slots = SlotModel(k=args.slots, ctr=slots.ctr if slots else {})
    return slots, reserve if args.reserve is None else args.reserve


def _excluded(records: list[dict]) -> list[dict]:
    """The ``excluded`` array of an adjust or auction document."""
    return [
        {"ad_id": r["ad_id"], "reason": r["exclusion_reason"]} for r in records if r["excluded"]
    ]


def cmd_adjust(args: argparse.Namespace) -> int:
    offers, charges, _, _ = parse_scenario_doc(_load_scenario(args.input))
    records, _ = prepare(ScenarioConfig(offers=offers, charges=charges, strategy=args.strategy))
    adjusted = [
        {
            "ad_id": offer.ad_id,
            "price_type": record["price_type"],
            "events": [event_to_dict(e) for e in offer.events],
            "bids": {eid: offer.bids[eid] for eid in offer.event_ids},
            "total_expected_charge": record["total_expected_charge"],
            "shift_plan": record["shift_plan"],
            "adjusted_bids": record["adjusted_bids"],
            "expected_adjusted_value": record["expected_adjusted_value"],
        }
        for offer, record in zip(offers, records)
        if not record["excluded"]
    ]
    document = {
        "format_version": FORMAT_VERSION,
        "strategy": args.strategy,
        "adjusted": adjusted,
        "excluded": _excluded(records),
    }
    _emit(dumps_canonical(document), args.output)
    return EXIT_OK


def _adjusted_offers_from_document(doc: Mapping) -> tuple[AdjustedOffer, ...]:
    """Rehydrate adjusted offers from a previous ``adjust`` run's output.

    Raises ScenarioError itemizing every malformed record: a missing or
    mistyped field, adjusted bids not keyed to the record's events, or a
    non-finite probability, adjusted bid or expected adjusted value.
    """
    records = doc["adjusted"]
    if not isinstance(records, list):
        raise ScenarioError(["'adjusted' must be an array"])
    issues: list[str] = []
    restored = []
    for i, record in enumerate(records):
        try:
            events = tuple(event_from_dict(e) for e in record["events"])
            raw_bids = record["adjusted_bids"]
            if not isinstance(raw_bids, Mapping):
                raise TypeError("'adjusted_bids' must be an object")
            adjusted = {str(k): float(v) for k, v in raw_bids.items()}
            value = float(record["expected_adjusted_value"])
            offer = AdjustedOffer(str(record["ad_id"]), events, adjusted, value)
            require_same_keys(tuple(e.event_id for e in events), adjusted, "adjusted_bids")
        except _BAD_FIELD as exc:
            issues.append(f"adjusted[{i}]: {exc}")
            continue
        issues.extend(
            f"adjusted[{i}]: non-finite prob for '{e.event_id}': {e.probability!r}"
            for e in events
            if not math.isfinite(e.probability)
        )
        issues.extend(
            f"adjusted[{i}]: non-finite adjusted bid on '{eid}': {amount!r}"
            for eid, amount in adjusted.items()
            if not math.isfinite(amount)
        )
        if not math.isfinite(value):
            issues.append(f"adjusted[{i}]: non-finite expected_adjusted_value {value!r}")
        restored.append(offer)
    if issues:
        raise ScenarioError(issues)
    return tuple(restored)


def cmd_auction(args: argparse.Namespace) -> int:
    doc = _load_scenario(args.input)
    if isinstance(doc, Mapping) and "adjusted" in doc:
        if doc.get("format_version") != FORMAT_VERSION:
            raise ScenarioError(
                [f"unsupported format_version {doc.get('format_version')!r}"]
            )
        offers = _adjusted_offers_from_document(doc)
        excluded = doc.get("excluded", [])
        if not (isinstance(excluded, list) and all(isinstance(e, Mapping) for e in excluded)):
            raise ScenarioError(["'excluded' must be an array of objects"])
        excluded = [dict(entry) for entry in excluded]
        slots, reserve = _overrides(args, None, 0.0)
    else:
        parsed, charges, slots, reserve = parse_scenario_doc(doc)
        slots, reserve = _overrides(args, slots, reserve)
        config = ScenarioConfig(
            offers=parsed, charges=charges, strategy=args.strategy, reserve=reserve
        )
        records, offers = prepare(config)
        excluded = _excluded(records)

    outcome = run_auction(offers, args.pricing, slots, reserve)
    document = {
        "format_version": FORMAT_VERSION,
        "pricing_rule": outcome.pricing_rule,
        "ranking": [[ad_id, value] for ad_id, value in outcome.ranking],
        "winners": [
            {
                "ad_id": w.ad_id,
                "slot": w.slot,
                "price_factor": w.price_factor,
                "value": w.value,
                "prices": dict(w.prices),
            }
            for w in outcome.winners
        ],
        "excluded": excluded,
    }
    _emit(dumps_canonical(document), args.output)
    return EXIT_OK


_CSV_COLUMNS = (
    "ad_id",
    "expected_adjusted_value",
    "slot",
    "expected_payment",
    "mc_mean",
    "mc_stderr",
)


def _write_csv(report: Mapping, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for record in report["ads"]:
            row = []
            for column in _CSV_COLUMNS:
                value = record[column]
                if value is None:
                    row.append("")
                elif isinstance(value, float):
                    row.append(_format_float(value))
                else:
                    row.append(str(value))
            writer.writerow(row)


def cmd_simulate(args: argparse.Namespace) -> int:
    offers, charges, slots, reserve = parse_scenario_doc(_load_scenario(args.input))
    slots, reserve = _overrides(args, slots, reserve)
    config = ScenarioConfig(
        offers=offers,
        charges=charges,
        pricing_rule=args.pricing,
        strategy=args.strategy,
        slots=slots,
        reserve=reserve,
        model=OutcomeModel(args.model),
        trials=args.trials,
        seed=args.seed,
    )
    logger.info(
        "simulating %d offers, %d trials, seed %d", len(offers), args.trials, args.seed
    )
    report = run_scenario(config)
    _emit(dumps_canonical(report), args.output)
    if args.csv:
        _write_csv(report, args.csv)
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uxcharge",
        description="Collect user-experience charges in ad auctions: adjust bids, "
        "run auctions, settle and simulate payments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="scenario JSON file")
    common.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
    common.add_argument(
        "--strategy",
        default="identity",
        help="charge-shift strategy: identity, single:<event_id>, or proportional",
    )

    market = argparse.ArgumentParser(add_help=False)
    market.add_argument("--pricing", choices=("first", "second"), default="second")
    market.add_argument("--slots", type=int, default=None, help="override the slot count")
    market.add_argument(
        "--reserve", type=float, default=None, help="expected-value floor, finite and >= 0"
    )

    p_adjust = sub.add_parser(
        "adjust", parents=[common], help="compute shift plans and adjusted bids"
    )
    p_adjust.set_defaults(func=cmd_adjust)

    p_auction = sub.add_parser(
        "auction", parents=[common, market], help="rank adjusted offers and price the slots"
    )
    p_auction.set_defaults(func=cmd_auction)

    p_sim = sub.add_parser(
        "simulate", parents=[common, market], help="run the full pipeline with oracles and Monte Carlo"
    )
    p_sim.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials per winner")
    p_sim.add_argument("--seed", type=int, default=0, help="root seed for the trial substreams")
    p_sim.add_argument("--model", choices=("independent", "funnel"), default="independent")
    p_sim.add_argument("--csv", default=None, help="also write a per-ad CSV summary here")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def main(argv: Sequence[str] | None = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("UXCHARGE_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        return _fail("validation", list(exc.issues), EXIT_VALIDATION)
    except json.JSONDecodeError as exc:
        return _fail("validation", [f"malformed JSON: {exc}"], EXIT_VALIDATION)
    except (ValueError, KeyError) as exc:
        return _fail("validation", [str(exc)], EXIT_VALIDATION)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    raise SystemExit(main())
