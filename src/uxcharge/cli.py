"""Command-line front end: read a scenario, run the pipeline, write a report.

A scenario is one JSON document (README, "Scenario files"): ``format_version``
1, shared ``events``, ``offers`` (each may carry its own ``events``),
``charges``, and optional ``slots`` and ``reserve``. Every subcommand reads
it into one ``sim.ScenarioConfig``, which flags only override, and runs one
pipeline, ``sim.prepare`` (validate, then per ad feasibility, charge shift,
adjustment), so all three reject the same scenarios and exclude the same ads
for the same two reasons. ``auction`` also reads ``adjust`` output, checking
each record's value against its bids. Reports are canonical JSON
(keys in construction order, numbers at 17 significant digits), so identical
inputs and seeds give byte-identical output.

Input is read strictly. A file must be UTF-8 text, nested no deeper than the
JSON parser's recursion allows, its integers within Python's digit limit.
Scenario and ``adjust`` documents pass one header check (a JSON object whose
``format_version`` is the integer 1). Every entry, ``excluded`` ones too, is an
object with its required fields, every number a finite JSON number within float
range, every ``ad_id`` and event ``id`` a string of Unicode text, every event
``kind`` and ``price_type`` one of its names, and ``slots`` an object. Its
``k`` and ``ctr_matrix`` go to ``auction.SlotModel`` as read, which owns every
slot rule (``--slots`` too): an integer k >= 1, and each ctr row an array of k
nonincreasing numbers in [0, 1]. Each ctr row must be keyed to a declared ad,
the trials at most ``sim.TRIALS_LIMIT``, the reserve finite and >= 0, and the
ads of an ``adjust`` document distinct and not also ``excluded``, each over an
event set a scenario would pass (``model.event_set_issues``) with the value its
bids give. An expected charge, adjusted value, slot value or payment that
overflows float range is rejected, naming the ad.

Exit codes: 0 success; 1 any input problem, the command line included, as
one JSON record on stderr itemizing each issue; 2 I/O failure. Anything else
is a bug and shows a traceback.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import replace
from typing import Any, NoReturn

from .auction import FIRST_PRICE, SECOND_PRICE, SlotModel
from .model import (
    FORMAT_VERSION,
    AdjustedOffer,
    ChargeSchedule,
    EventKind,
    EventSpec,
    Offer,
    PriceType,
    ScenarioError,
    approx_eq,
    brief,
    charges_from_dict,
    event_from_dict,
    event_set_issues,
    expected_sum,
    number,
    offer_from_dict,
    offer_to_dict,
    read_each,
    read_events,
    require_fields,
    text,
)
from .sim import (
    OutcomeModel,
    ScenarioConfig,
    prepare,
    run_auction,
    run_scenario,
    target_issues,
    validate_scenario,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


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


_KINDS = {kind.value: kind for kind in EventKind}
_PRICE_TYPES = {price_type.value: price_type for price_type in PriceType}


def _plain_offer(entry: Any, shared: tuple[EventSpec, ...]) -> Offer | None:
    """``offer_from_dict(entry, shared)`` for a plain entry, read inline; else None.

    A plain entry is an object whose ``ad_id`` and event ids are ASCII
    strings, whose kinds and price type are names, and whose probabilities
    and bids are finite floats, every bid keyed to one of its events. Any
    other entry, one with an integer or a missing field included, is left to
    ``offer_from_dict``, the reference, so every message comes from there.
    """
    if type(entry) is not dict:
        return None
    ad_id, price_type = entry.get("ad_id"), entry.get("price_type")
    price_type = _PRICE_TYPES.get(price_type) if type(price_type) is str else None
    if type(ad_id) is not str or not ad_id.isascii() or price_type is None:
        return None
    events = shared
    if "events" in entry:
        raw_events = entry["events"]
        if type(raw_events) is not list:
            return None
        specs = []
        for raw in raw_events:
            if type(raw) is not dict:
                return None
            event_id, kind, prob = raw.get("id"), raw.get("kind"), raw.get("prob")
            if (
                type(event_id) is not str
                or not event_id.isascii()
                or type(kind) is not str
                or kind not in _KINDS
                or type(prob) is not float
                or prob - prob != 0.0  # nan or an infinity
            ):
                return None
            specs.append(EventSpec(event_id, _KINDS[kind], prob))
        events = tuple(specs)
    raw_bids = entry.get("bids", {})
    if type(raw_bids) is not dict:
        return None
    bids = {}
    for event in events:
        amount = raw_bids.get(event.event_id, 0.0)
        if type(amount) is not float or amount - amount != 0.0:
            return None
        bids[event.event_id] = amount
    if not raw_bids.keys() <= bids.keys():  # a stray key, for validate_offer to itemize
        return None
    return Offer(ad_id, price_type, events, bids)


def parse_scenario_doc(doc: Any) -> ScenarioConfig:
    """The ScenarioConfig a scenario JSON document describes, with default run flags.

    Raises ScenarioError with itemized issues on any structural problem;
    ``sim.validate_scenario`` checks the rules across fields.
    """
    issues = _header_issues(doc)
    if issues:
        doc = {}  # nothing else can be read

    shared = tuple(read_each(doc, "events", event_from_dict, issues))
    offers = read_each(
        doc, "offers", lambda entry: _plain_offer(entry, shared) or offer_from_dict(entry, shared), issues
    )

    charges = ChargeSchedule(charges={})
    try:
        charges = charges_from_dict(doc.get("charges", {}))
    except ValueError as exc:
        issues.append(f"charges: {exc}")

    slots = None
    raw_slots = doc.get("slots")
    if raw_slots is not None and not isinstance(raw_slots, Mapping):
        issues.append("'slots' must be an object")
    elif raw_slots is not None:
        try:
            slots = SlotModel(raw_slots.get("k"), raw_slots.get("ctr_matrix", {}))
        except ValueError as exc:
            issues.append(f"slots: {exc}")

    reserve = 0.0
    try:
        reserve = number(doc.get("reserve", 0.0), "'reserve'")
    except ValueError as exc:
        issues.append(str(exc))

    if issues:
        raise ScenarioError(issues)
    return ScenarioConfig(offers=tuple(offers), charges=charges, slots=slots, reserve=reserve)


def _load_scenario(path: str) -> Any:
    """The JSON document at ``path``; bytes that do not parse, a too-long integer
    literal among them, are input problems."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"input is not UTF-8 text: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"malformed JSON: {exc}"]) from None
    except ValueError as exc:
        raise ScenarioError([f"input cannot be parsed: {exc}"]) from None
    except RecursionError:
        raise ScenarioError(["input nests too deeply to parse"]) from None


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


def _market(args: argparse.Namespace, config: ScenarioConfig) -> ScenarioConfig:
    """``config`` after --strategy, --pricing, --slots and --reserve."""
    if args.slots is not None:
        config = replace(config, slots=SlotModel(args.slots, config.slots.ctr if config.slots else {}))
    reserve = config.reserve if args.reserve is None else args.reserve
    return replace(config, strategy=args.strategy, pricing_rule=args.pricing, reserve=reserve)


def _excluded(records: list[dict]) -> list[dict]:
    """The ``excluded`` array of an adjust or auction document."""
    return [
        {"ad_id": r["ad_id"], "reason": r["exclusion_reason"]} for r in records if r["excluded"]
    ]


def cmd_adjust(args: argparse.Namespace) -> int:
    config = replace(parse_scenario_doc(_load_scenario(args.input)), strategy=args.strategy)
    records, _ = prepare(config)
    adjusted = [
        {
            **offer_to_dict(offer),
            "total_expected_charge": record["total_expected_charge"],
            "shift_plan": record["shift_plan"],
            "adjusted_bids": record["adjusted_bids"],
            "expected_adjusted_value": record["expected_adjusted_value"],
        }
        for offer, record in zip(config.offers, records)
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
    require_fields(record, ("ad_id", "events", "adjusted_bids", "expected_adjusted_value"))
    events = read_events(record)
    violations = event_set_issues(events)
    if violations:
        raise ValueError("; ".join(violations))
    raw_bids = record["adjusted_bids"]
    if not isinstance(raw_bids, Mapping):
        raise ValueError(f"'adjusted_bids' must be an object, got {brief(raw_bids)}")
    adjusted = {k: number(v, "adjusted bid on", k) for k, v in raw_bids.items()}
    value = expected_sum(adjusted, events, "adjusted_bids")
    claimed = number(record["expected_adjusted_value"], "'expected_adjusted_value'")
    if not math.isfinite(value):  # the bids are finite, so their value overflowed
        ad_id = text(record["ad_id"], "'ad_id'")
        raise ValueError(f"offer '{ad_id}': adjusted value overflows float range")
    if not approx_eq(claimed, value):
        raise ValueError(f"'expected_adjusted_value' {claimed!r} differs from its bids' value {value!r}")
    return AdjustedOffer(text(record["ad_id"], "'ad_id'"), events, adjusted, value)


def _excluded_entry(entry: Any) -> dict:
    """One ``excluded`` entry as ``_excluded`` writes it."""
    require_fields(entry, ("ad_id", "reason"))
    return {"ad_id": text(entry["ad_id"], "'ad_id'"), "reason": text(entry["reason"], "'reason'")}


def _read_adjust_document(doc: Mapping, strategy: str) -> tuple[tuple[AdjustedOffer, ...], list[dict]]:
    """The adjusted offers and the ``excluded`` array of an ``adjust`` document.

    Raises ScenarioError itemizing the header's, each record's and
    ``excluded``'s problems, and each ad that a ``single:<event>``
    ``strategy`` does not fit, worded as for a scenario's offers.
    """
    issues = _header_issues(doc)
    if issues:
        doc = {}  # nothing else can be read
    offers = read_each(doc, "adjusted", _adjusted_offer, issues)
    issues.extend(
        f"offer '{offer.ad_id}': {v}" for offer in offers for v in target_issues(strategy, offer.events)
    )
    excluded = read_each(doc, "excluded", _excluded_entry, issues)
    listed = {offer.ad_id for offer in offers}
    both = [entry["ad_id"] for entry in excluded if entry["ad_id"] in listed]
    issues.extend(f"ad {ad!r} is listed under both 'adjusted' and 'excluded'" for ad in both)
    if issues:
        raise ScenarioError(issues)
    return tuple(offers), excluded


def cmd_auction(args: argparse.Namespace) -> int:
    doc = _load_scenario(args.input)
    if isinstance(doc, Mapping) and "adjusted" in doc:
        offers, excluded = _read_adjust_document(doc, args.strategy)
        config = _market(args, ScenarioConfig(offers=(), charges=ChargeSchedule({})))
        issues = validate_scenario(config)
        if issues:
            raise ScenarioError(issues)
    else:
        config = _market(args, parse_scenario_doc(doc))
        records, offers = prepare(config)
        excluded = _excluded(records)

    outcome = run_auction(offers, config.pricing_rule, config.slots, config.reserve)
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
    config = replace(
        _market(args, parse_scenario_doc(_load_scenario(args.input))),
        model=OutcomeModel(args.model),
        trials=args.trials,
        seed=args.seed,
    )
    report = run_scenario(config)
    _emit(dumps_canonical(report), args.output)
    if args.csv:
        _write_csv(report, args.csv)
    return EXIT_OK


# --- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A command-line usage error is an input problem like any other."""

    def error(self, message: str) -> NoReturn:
        raise ScenarioError([message])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uxcharge",
        description="Collect user-experience charges in ad auctions: shift charges and adjust "
        "bids (adjust), price the slots (auction), check expected payments (simulate).",
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
    market.add_argument("--pricing", choices=(FIRST_PRICE, SECOND_PRICE), default=SECOND_PRICE)
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


def main(argv: Sequence[str] | None = None) -> int:
    # A run builds up to about a million containers (the parsed JSON, offers,
    # records) and no reference cycles, so cyclic collector passes over them
    # only cost time. The collector is paused for the run, then left as found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ScenarioError as exc:
        return _fail("validation", list(exc.issues), EXIT_VALIDATION)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
