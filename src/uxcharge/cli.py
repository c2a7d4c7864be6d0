"""Command-line front end: read a scenario, run the pipeline, write a report.

A scenario is one JSON document (README, "Scenario files"): ``format_version``
1, shared ``events``, ``offers`` (each may carry its own ``events``),
``charges``, and optional ``slots`` and ``reserve``. Every subcommand reads
it into one ``sim.ScenarioConfig``, which flags only override, and runs one
pipeline, ``sim.prepare`` (validate, then per ad feasibility, charge shift,
adjustment), so all three reject the same scenarios and exclude the same ads
for the same two reasons. Each subcommand names the function that builds its
document, and ``main`` writes that document, then ``simulate``'s CSV.
Reports are canonical JSON (keys in construction order, numbers at 17
significant digits), so identical inputs and seeds give byte-identical output.

Input is read strictly. A file must be UTF-8 text, nested no deeper than the
JSON parser's recursion allows, its integers within Python's digit limit.
A scenario is a JSON object whose ``format_version`` is the integer 1, with no
top-level key but the six above, so an ``adjust`` document is not read as one.
Every entry is an object with its required fields, every number a finite JSON
number within float range, every ``ad_id`` and event ``id`` a string of
Unicode text, every event ``kind`` and ``price_type`` one of its names, and
``slots`` an object. Its ``k`` and ``ctr_matrix`` go to ``auction.SlotModel``
as read, which owns every slot rule (``--slots`` too): an integer k >= 1, and
each ctr row an array of k nonincreasing numbers in [0, 1]. Each ctr row must
be keyed to a declared ad, the trials at most ``sim.TRIALS_LIMIT``, and the
reserve finite and >= 0. An expected charge, adjusted value, slot value or
payment that overflows float range is rejected, naming the ad.

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

from .auction import FIRST_PRICE, SECOND_PRICE, SlotModel, run_first_price, run_second_price
from .model import (
    FORMAT_VERSION,
    ChargeSchedule,
    ScenarioError,
    brief,
    charges_from_dict,
    event_from_dict,
    number,
    offer_from_dict,
    offer_to_dict,
    read_each,
)
from .sim import OutcomeModel, ScenarioConfig, prepare, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


# --- canonical JSON ----------------------------------------------------------


def dumps_canonical(doc: dict | list) -> str:
    """Serialize a report deterministically: 17-significant-digit numbers,
    keys in construction order, two-space indent, trailing newline.

    ``doc`` is a dict or a list, built of dicts with str keys, lists, str,
    float, int, bool and None. Any other type is a bug: TypeError names it.
    A float that is not finite raises ValueError.
    """
    out = io.StringIO()
    _write_canonical(doc, out, 0, {})
    out.write("\n")
    return out.getvalue()


_encode = json.encoder.encode_basestring_ascii


def _write_canonical(doc: dict | list, out: io.StringIO, depth: int, keys: dict[str, str]) -> None:
    """Write the dict or list ``doc`` at nesting ``depth``, one loop per container.

    Scalars are formatted inline in their container's loop, by exact type;
    a dict or list value recurses, and anything else raises TypeError, as
    does a key that is not exactly a str. ``keys`` memoizes the encoded
    form of the keys across the whole document.
    """
    kind = type(doc)
    if kind is not dict and kind is not list:
        raise TypeError(f"cannot serialize {kind.__name__} canonically")
    is_mapping = kind is dict

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
            if type(key) is not str:
                raise TypeError(f"cannot serialize {type(key).__name__} key canonically")
            encoded = keys.get(key)
            if encoded is None:
                encoded = keys[key] = _encode(key) + ": "
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


def _float_text(value: float) -> str:
    """A float as ``_write_canonical`` writes it: "0" for -0.0 too, else 17 significant digits."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return "0" if value == 0.0 else "%.17g" % value


# --- scenario file parsing ---------------------------------------------------


_SCENARIO_FIELDS = frozenset(("format_version", "events", "offers", "charges", "slots", "reserve"))


def parse_scenario_doc(doc: Any) -> ScenarioConfig:
    """The ScenarioConfig a scenario JSON document describes, with default run flags.

    Raises ScenarioError with itemized issues on any structural problem, a
    top-level key the format does not define among them;
    ``sim.validate_scenario`` checks the rules across fields.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioError(["document must be a JSON object"])
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        # nothing else can be read
        raise ScenarioError([f"unsupported format_version {brief(version)}; this build reads version {FORMAT_VERSION}"])
    issues = [f"unknown field {brief(key)}" for key in doc if key not in _SCENARIO_FIELDS]

    shared = tuple(read_each(doc, "events", event_from_dict, issues))
    offers = read_each(doc, "offers", lambda entry: offer_from_dict(entry, shared), issues)

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


def _adjust_document(args: argparse.Namespace) -> dict:
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
    return {
        "format_version": FORMAT_VERSION,
        "strategy": args.strategy,
        "adjusted": adjusted,
        "excluded": _excluded(records),
    }


def _auction_document(args: argparse.Namespace) -> dict:
    config = _market(args, parse_scenario_doc(_load_scenario(args.input)))
    records, offers = prepare(config)
    # prepare has checked the pricing rule
    run = run_first_price if config.pricing_rule == FIRST_PRICE else run_second_price
    outcome = run(offers, config.slots, config.reserve)
    return {
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
        "excluded": _excluded(records),
    }


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
                "" if v is None else _float_text(v) if isinstance(v, float) else str(v)
                for v in values
            )


def _simulate_document(args: argparse.Namespace) -> dict:
    config = _market(args, parse_scenario_doc(_load_scenario(args.input)))
    return run_scenario(replace(config, model=OutcomeModel(args.model), trials=args.trials, seed=args.seed))


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
    p_adjust.set_defaults(build=_adjust_document)

    p_auction = sub.add_parser(
        "auction", parents=[common, market], help="rank adjusted offers and price the slots"
    )
    p_auction.set_defaults(build=_auction_document)

    p_sim = sub.add_parser(
        "simulate", parents=[common, market], help="run the full pipeline with oracles and Monte Carlo"
    )
    p_sim.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials per winner")
    p_sim.add_argument("--seed", type=int, default=0, help="root seed for the trial substreams")
    p_sim.add_argument("--model", choices=("independent", "funnel"), default="independent")
    p_sim.add_argument("--csv", default=None, help="also write a per-ad CSV summary here")
    p_sim.set_defaults(build=_simulate_document)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A run builds up to about a million containers (the parsed JSON, offers,
    # records) and no reference cycles, so cyclic collector passes over them
    # only cost time. The collector is paused for the run, then left as found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        # the input is read inside, so it is freed before the report is written
        report = args.build(args)
        _emit(dumps_canonical(report), args.output)
        if getattr(args, "csv", None):
            _write_csv(report, args.csv)
        return EXIT_OK
    except ScenarioError as exc:
        return _fail("validation", list(exc.issues), EXIT_VALIDATION)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
