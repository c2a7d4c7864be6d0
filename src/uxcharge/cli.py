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
reads ``adjust`` output.

Input is read strictly. A scenario and an ``adjust`` document pass one
header check: a JSON object whose ``format_version`` is the integer 1, with
one message for both. Every number is a finite JSON number within float
range (not a bool, string or null), every ``ad_id`` and event ``id`` a
string, ``slots.k`` an integer, and each ``ctr_matrix`` row an array keyed
to an ad that an offer declares. The reserve must also be >= 0.

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
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from .auction import SlotModel
from .model import (
    AdjustedOffer,
    ChargeSchedule,
    Offer,
    brief,
    charges_from_dict,
    event_from_dict,
    event_to_dict,
    number,
    offer_from_dict,
    require_same_keys,
    text,
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
    if not isinstance(doc, float):
        return _encode(doc)
    if not math.isfinite(doc):
        raise ValueError(f"cannot serialize non-finite number {doc!r}")
    return "0" if doc == 0.0 else "%.17g" % doc  # "0" for -0.0 too


# --- scenario file parsing ---------------------------------------------------


def _header_issues(doc: Any) -> list[str]:
    """The header check of scenario and ``adjust`` documents alike."""
    if not isinstance(doc, Mapping):
        return ["document must be a JSON object"]
    version = doc.get("format_version")
    if type(version) is int and version == FORMAT_VERSION:
        return []
    return [f"unsupported format_version {brief(version)}; this build reads version {FORMAT_VERSION}"]


def _read_each(doc: Mapping, key: str, read: Callable[[Any], Any], issues: list[str]) -> list:
    """``read`` of each entry of the array ``doc[key]``; problems go to ``issues``."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        issues.append(f"{key!r} must be an array")
        return []
    values = []
    for i, entry in enumerate(entries):
        try:
            values.append(read(entry))
        except _BAD_FIELD as exc:
            issues.append(f"{key}[{i}]: {exc}")
    return values


def _ctr_row(row: Any, ad_id: str) -> tuple[float, ...]:
    if type(row) is not list:
        raise TypeError(f"ctr row for {ad_id!r} must be an array, got {brief(row)}")
    return tuple(number(p, "ctr entry for", ad_id) for p in row)


def parse_scenario_doc(doc: Any) -> tuple[tuple[Offer, ...], ChargeSchedule, SlotModel | None, float]:
    """Turn a scenario JSON document into domain values.

    Raises ScenarioError with itemized issues on any structural problem.
    """
    issues = _header_issues(doc)
    if issues:
        doc = {}  # nothing else can be read

    shared = tuple(_read_each(doc, "events", event_from_dict, issues))
    offers = _read_each(doc, "offers", lambda entry: offer_from_dict(entry, shared), issues)

    charges = ChargeSchedule(charges={})
    try:
        charges = charges_from_dict(doc.get("charges", {}))
    except _BAD_FIELD as exc:
        issues.append(f"charges: {exc}")

    slots = None
    raw_slots = doc.get("slots")
    if raw_slots is not None and not isinstance(raw_slots, Mapping):
        issues.append("'slots' must be an object")
    elif raw_slots is not None:
        raw_ctr, k = raw_slots.get("ctr_matrix", {}), raw_slots.get("k")
        if not isinstance(raw_ctr, Mapping):
            issues.append("slots: 'ctr_matrix' must be an object")
        elif type(k) is not int:
            issues.append(f"slots: 'k' must be an integer, got {brief(k)}")
        else:
            try:
                slots = SlotModel(k, {ad: _ctr_row(row, ad) for ad, row in raw_ctr.items()})
            except _BAD_FIELD as exc:
                issues.append(f"slots: {exc}")
    if slots is not None and offers and not issues:
        declared = {offer.ad_id for offer in offers}
        undeclared = [ad for ad in slots.ctr if ad not in declared]
        issues.extend(f"slots: ctr row keyed to ad {ad!r} declared by no offer" for ad in undeclared)

    reserve = 0.0
    try:
        reserve = number(doc.get("reserve", 0.0), "'reserve'")
    except _BAD_FIELD as exc:
        issues.append(str(exc))

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


def _adjusted_offer(record: Mapping) -> AdjustedOffer:
    events = tuple(event_from_dict(e) for e in record["events"])
    raw_bids = record["adjusted_bids"]
    if not isinstance(raw_bids, Mapping):
        raise TypeError("'adjusted_bids' must be an object")
    adjusted = {k: number(v, "adjusted bid on", k) for k, v in raw_bids.items()}
    require_same_keys(tuple(e.event_id for e in events), adjusted, "adjusted_bids")
    value = number(record["expected_adjusted_value"], "'expected_adjusted_value'")
    return AdjustedOffer(text(record["ad_id"], "'ad_id'"), events, adjusted, value)


def _read_adjust_document(doc: Mapping) -> tuple[tuple[AdjustedOffer, ...], list[dict]]:
    """The adjusted offers and the ``excluded`` array of an ``adjust`` document.

    Raises ScenarioError itemizing the header's, each record's and
    ``excluded``'s problems.
    """
    issues = _header_issues(doc)
    if issues:
        doc = {}  # nothing else can be read
    offers = _read_each(doc, "adjusted", _adjusted_offer, issues)
    excluded = doc.get("excluded", [])
    if not (isinstance(excluded, list) and all(isinstance(e, Mapping) for e in excluded)):
        issues.append("'excluded' must be an array of objects")
    if issues:
        raise ScenarioError(issues)
    return tuple(offers), [dict(entry) for entry in excluded]


def cmd_auction(args: argparse.Namespace) -> int:
    doc = _load_scenario(args.input)
    if isinstance(doc, Mapping) and "adjusted" in doc:
        offers, excluded = _read_adjust_document(doc)
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
            values = [record[column] for column in _CSV_COLUMNS]
            writer.writerow(
                "" if v is None else _scalar_text(v) if isinstance(v, float) else str(v)
                for v in values
            )


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
