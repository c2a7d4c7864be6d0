"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import io
import json
import math
from collections.abc import Mapping
from dataclasses import replace

from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.auction import pricing_rule_issues, reserve_issues
from uxcharge.cli import _header_issues, parse_scenario_doc
from uxcharge.model import (
    charges_from_dict,
    event_from_dict,
    number,
    offer_from_dict,
    read_each,
    validate_offer,
)
from uxcharge.sim import (
    ENUMERATION_LIMIT,
    TRIALS_LIMIT,
    ScenarioError,
    _funnel_chain,
    _parse_strategy,
    _substream_rng,
    validate_scenario,
)

# money and probability draws are either exactly zero or comfortably normal;
# subnormal amounts are not meaningful in this domain
money = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0))
unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=1e-6, max_value=1.0))
open_unit = st.floats(min_value=0.01, max_value=1.0)


def close12(x: float, y: float) -> bool:
    """Agreement to 1e-12, relative above unit magnitude."""
    return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


def two_events(p_click: float) -> tuple[ux.EventSpec, ux.EventSpec]:
    return (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, p_click),
    )


def sorted_expectation(amounts: Mapping[str, float], events) -> float:
    """sum(amount * probability) in event-id order with builtin ``sum``: a
    reference apart from the library's declared-order fold."""
    return sum(amounts[e.event_id] * e.probability for e in sorted(events, key=lambda e: e.event_id))


def cpc_offer(ad_id: str, b: float, p_click: float) -> ux.Offer:
    return ux.Offer(ad_id, ux.PriceType.CPC, two_events(p_click), {"view": 0.0, "click": b})


def cpm_offer(ad_id: str, b: float, p_click: float = 0.1) -> ux.Offer:
    return ux.Offer(ad_id, ux.PriceType.CPM, two_events(p_click), {"view": b, "click": 0.0})


@st.composite
def event_sets(draw) -> tuple[ux.EventSpec, ...]:
    """A valid event set: one view (p=1), then optional funnel/custom events.

    Conversion probability never exceeds click probability, so the same set
    works under both outcome models.
    """
    events = [ux.EventSpec("view", ux.EventKind.VIEW, 1.0)]
    p_click = None
    if draw(st.booleans()):
        p_click = draw(unit)
        events.append(ux.EventSpec("click", ux.EventKind.CLICK, p_click))
        if draw(st.booleans()):
            p_conv = p_click * draw(unit)
            events.append(ux.EventSpec("conv", ux.EventKind.CONVERSION, p_conv))
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        events.append(ux.EventSpec(f"extra{i}", ux.EventKind.CUSTOM, draw(unit)))
    return tuple(events)


@st.composite
def offers(draw, ad_id: str = "ad") -> ux.Offer:
    """A valid hybrid offer over a random event set."""
    events = draw(event_sets())
    bids = {e.event_id: draw(money) for e in events}
    return ux.Offer(ad_id, ux.PriceType.HYBRID, events, bids)


@st.composite
def offers_with_charges(draw, feasible: bool | None = None) -> tuple[ux.Offer, ux.ChargeSchedule]:
    """An offer plus a charge schedule, optionally forced (in)feasible.

    Feasible schedules are built by scaling raw charges so the expected
    charge lands strictly inside the offer's expected value; infeasible ones
    scale strictly beyond it.
    """
    offer = draw(offers())
    raw = {e.event_id: draw(money) for e in offer.events}
    if feasible is None:
        return offer, ux.ChargeSchedule(raw)

    offer_value = sorted_expectation(offer.bids, offer.events)
    raw_total = sorted_expectation(raw, offer.events)
    if feasible:
        if raw_total <= 0.0:
            return offer, ux.ChargeSchedule({eid: 0.0 for eid in raw})
        factor = draw(st.floats(min_value=0.0, max_value=0.9)) * offer_value / raw_total
    else:
        # needs charge mass on a positive-probability event to scale up
        from hypothesis import assume

        assume(raw_total > 0.0)
        assume(offer_value > 1e-6)
        factor = draw(st.floats(min_value=1.5, max_value=4.0)) * offer_value / raw_total
    return offer, ux.ChargeSchedule({eid: raw[eid] * factor for eid in raw})


# --- reference implementations ----------------------------------------------
#
# The per-offer and recursive forms the array paths replaced. They are the
# oracles for tests/test_equivalence.py: every float the array paths produce
# must match these bit for bit.


def scalar_prepare(config: ux.ScenarioConfig):
    """``sim.prepare`` as a per-offer chain: is_feasible -> build_plan -> adjust_general."""
    issues = validate_scenario(config)
    if issues:
        raise ScenarioError(issues)
    records, included = [], []
    charges = config.charges.charges
    for offer in config.offers:
        aligned = ux.ChargeSchedule({e.event_id: charges.get(e.event_id, 0.0) for e in offer.events})
        record = {
            "ad_id": offer.ad_id,
            "price_type": offer.price_type.value,
            "total_expected_charge": ux.total_expected_charge(aligned, offer.events),
            "feasible": ux.is_feasible(offer, aligned),
            "excluded": False,
            "exclusion_reason": None,
            "shift_plan": None,
            "adjusted_bids": None,
            "expected_adjusted_value": None,
            "slot": None,
            "price_factor": None,
            "prices": None,
            "expected_payment": None,
            "enumerated_payment": None,
            "mc_mean": None,
            "mc_stderr": None,
        }
        records.append(record)
        if not record["feasible"]:
            record["excluded"] = True
            record["exclusion_reason"] = "expected user-experience charge exceeds expected offer value"
            continue
        plan = ux.build_plan(config.strategy, offer, aligned)
        adjusted = ux.adjust_general(offer, plan)
        record["shift_plan"] = {eid: plan.shifted[eid] for eid in offer.event_ids}
        record["adjusted_bids"] = {eid: adjusted.adjusted[eid] for eid in offer.event_ids}
        record["expected_adjusted_value"] = adjusted.expected_value
        if adjusted.expected_value < 0.0:
            record["excluded"] = True
            record["exclusion_reason"] = "expected adjusted value is negative"
            continue
        included.append(adjusted)
    return records, included


def reference_parse(doc) -> ux.ScenarioConfig:
    """``cli.parse_scenario_doc`` with no inline path: ``offer_from_dict`` for
    every offer; ``k`` and the ctr rows go to ``SlotModel`` as read, as there."""
    issues = _header_issues(doc)
    if issues:
        doc = {}

    shared = tuple(read_each(doc, "events", event_from_dict, issues))
    offers = read_each(doc, "offers", lambda entry: offer_from_dict(entry, shared), issues)

    charges = ux.ChargeSchedule(charges={})
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
            slots = ux.SlotModel(raw_slots.get("k"), raw_slots.get("ctr_matrix", {}))
        except ValueError as exc:
            issues.append(f"slots: {exc}")

    reserve = 0.0
    try:
        reserve = number(doc.get("reserve", 0.0), "'reserve'")
    except ValueError as exc:
        issues.append(str(exc))

    if issues:
        raise ScenarioError(issues)
    return ux.ScenarioConfig(offers=tuple(offers), charges=charges, slots=slots, reserve=reserve)


def reference_validate(config: ux.ScenarioConfig) -> list[str]:
    """``sim.validate_scenario`` with ``validate_offer`` called for every offer."""
    issues: list[str] = []

    issues.extend(pricing_rule_issues(config.pricing_rule))
    if config.trials < 1:
        issues.append(f"trials must be >= 1, got {config.trials}")
    elif config.trials > TRIALS_LIMIT:
        issues.append(f"trials must be <= {TRIALS_LIMIT}, got {config.trials}")
    if config.seed < 0:
        issues.append(f"seed must be >= 0, got {config.seed}")
    issues.extend(reserve_issues(config.reserve))

    try:
        kind, target = _parse_strategy(config.strategy)
    except ValueError as exc:
        issues.append(str(exc))
        kind, target = "identity", None

    seen_ads: set[str] = set()
    for offer in config.offers:
        if offer.ad_id in seen_ads:
            issues.append(f"duplicate ad_id '{offer.ad_id}'")
        seen_ads.add(offer.ad_id)

        violations = validate_offer(offer)
        issues.extend(f"offer '{offer.ad_id}': {v}" for v in violations)
        if len(offer.events) > ENUMERATION_LIMIT:
            issues.append(f"offer '{offer.ad_id}': more than {ENUMERATION_LIMIT} events")
        if not violations:
            if kind == "single":
                target_event = next((e for e in offer.events if e.event_id == target), None)
                if target_event is None:
                    issues.append(
                        f"offer '{offer.ad_id}': strategy target event '{target}' not declared"
                    )
                elif target_event.probability <= 0.0:
                    issues.append(
                        f"offer '{offer.ad_id}': strategy target event '{target}' has zero probability"
                    )
            try:
                _funnel_chain(offer.events, config.model)
            except ValueError as exc:
                issues.append(f"offer '{offer.ad_id}': {exc}")

    if config.slots is not None and config.offers:
        undeclared = [ad for ad in config.slots.ctr if ad not in seen_ads]
        issues.extend(f"slots: ctr row keyed to ad {ad!r} declared by no offer" for ad in undeclared)

    known_ids = {eid for offer in config.offers for eid in offer.event_ids}
    for eid, amount in config.charges.charges.items():
        if config.offers and eid not in known_ids:
            issues.append(f"charge keyed to event '{eid}' declared by no offer")
        if not math.isfinite(amount):
            issues.append(f"non-finite charge on '{eid}': {amount!r}")
        elif amount < 0.0:
            issues.append(f"negative charge on '{eid}': {amount!r}")

    return issues


def reading(read, doc):
    """``read(doc)``'s config, or the issues of the ScenarioError it raises."""
    try:
        return read(doc)
    except ScenarioError as exc:
        return list(exc.issues)


def assert_reads_like_reference(doc, strategies=("identity",), models=(ux.OutcomeModel.INDEPENDENT,)):
    """``parse_scenario_doc`` and ``validate_scenario`` agree with the references on ``doc``.

    Configs must be equal down to each float's repr (so -0.0 and last bits
    count), issue lists equal in full, order included.
    """
    config, expected = reading(parse_scenario_doc, doc), reading(reference_parse, doc)
    assert repr(config) == repr(expected)
    if isinstance(config, list):
        return
    for strategy in strategies:
        for model in models:
            variant = replace(config, strategy=strategy, model=model)
            assert validate_scenario(variant) == reference_validate(variant)


def fold_enumeration(prices, shifted, events, model) -> float:
    """``enumerate_expected_payment`` in pure Python, one outcome at a time.

    Each outcome's charge is folded over the events in declared order and its
    probability multiplied up chain stages first, then independent events;
    the weighted charges are then folded over the outcomes in order.
    """
    amounts = [prices[e.event_id] + shifted[e.event_id] for e in events]
    chain, conditionals, custom = _funnel_chain(events, model)
    total = 0.0
    for outcome in range(1 << len(events)):
        e = [float((outcome >> i) & 1) for i in range(len(events))]
        charge = 0.0
        for ei, amount in zip(e, amounts):
            charge += ei * amount
        prob, occurred = 1.0, 1.0
        for idx, q in zip(chain, conditionals):
            ei = e[idx]
            prob *= occurred * (ei * q + (1.0 - ei) * (1.0 - q)) + (1.0 - occurred) * (1.0 - ei)
            occurred = occurred * ei
        for idx in custom:
            p, ei = events[idx].probability, e[idx]
            prob *= ei * p + (1.0 - ei) * (1.0 - p)
        total += prob * charge
    return total


def left_to_right_moments(totals: list[float]) -> tuple[float, float]:
    """Mean and standard error with every sum taken in sample order, in pure Python."""
    total = 0.0
    for x in totals:
        total += x
    mean = total / len(totals)
    if len(totals) == 1:
        return mean, 0.0
    squares = 0.0
    for x in totals:
        squares += (x - mean) * (x - mean)
    return mean, math.sqrt(squares / (len(totals) - 1)) / math.sqrt(len(totals))


def fold_monte_carlo(prices, shifted, events, model, trials, seed, substream) -> tuple[float, float]:
    """``monte_carlo_payment`` in pure Python, one trial at a time, from the same uniforms.

    Trial t, event i occurs when its uniform falls below the event's
    (conditional) probability; each trial's charge is folded over the events
    in declared order, then the trials in order.
    """
    amounts = [prices[e.event_id] + shifted[e.event_id] for e in events]
    chain, conditionals, custom = _funnel_chain(events, model)
    uniforms = _substream_rng(seed, substream).random((trials, len(events))).tolist()
    totals = []
    for u in uniforms:
        hit = [False] * len(events)
        occurred = True
        for idx, q in zip(chain, conditionals):
            occurred = hit[idx] = occurred and u[idx] < q
        for idx in custom:
            hit[idx] = u[idx] < events[idx].probability
        charge = 0.0
        for h, amount in zip(hit, amounts):
            charge += h * amount
        totals.append(charge)
    return left_to_right_moments(totals)


def loop_auction(offers, slots, reserve: float, rule: str) -> ux.AuctionOutcome:
    """The greedy slot-by-slot position auction, one ``value_at_slot`` call per offer and slot."""
    remaining = sorted((o for o in offers if o.expected_value >= 0.0), key=lambda o: o.ad_id)
    k = slots.k if slots else 1

    winners = []
    for slot in range(1, k + 1):
        values = {o.ad_id: ux.value_at_slot(o, slots, slot) for o in remaining}
        eligible = [o for o in remaining if values[o.ad_id] >= reserve]
        if not eligible:
            break
        winner = min(eligible, key=lambda o: (-values[o.ad_id], o.ad_id))
        own_value = values[winner.ad_id]
        if rule == "first":
            theta = 1.0
        else:
            next_value = max(
                (values[o.ad_id] for o in remaining if o.ad_id != winner.ad_id),
                default=reserve,
            )
            next_value = max(next_value, reserve)
            theta = next_value / own_value if own_value > 0.0 else 0.0
        prices = {e.event_id: theta * winner.adjusted[e.event_id] for e in winner.events}
        winners.append(ux.SlotAward(winner.ad_id, slot, prices, own_value, theta))
        remaining = [o for o in remaining if o.ad_id != winner.ad_id]

    ranking = [(w.ad_id, w.value) for w in winners]
    ranking.extend(
        sorted(
            ((o.ad_id, ux.value_at_slot(o, slots, k)) for o in remaining),
            key=lambda pair: (-pair[1], pair[0]),
        )
    )
    return ux.AuctionOutcome(rule, tuple(ranking), tuple(winners))


def recursive_dumps(doc) -> str:
    """The canonical writer as one recursive call per value."""
    def format_float(x):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"cannot serialize non-finite number {x!r}")
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return format(x, ".17g")

    def write(doc, out, depth):
        pad = "  " * depth
        inner = "  " * (depth + 1)
        if doc is None:
            out.write("null")
        elif isinstance(doc, bool):
            out.write("true" if doc else "false")
        elif isinstance(doc, int):
            out.write(str(doc))
        elif isinstance(doc, float):
            out.write(format_float(doc))
        elif isinstance(doc, str):
            out.write(json.dumps(doc))
        elif isinstance(doc, Mapping):
            if not doc:
                out.write("{}")
                return
            out.write("{\n")
            for i, (key, value) in enumerate(doc.items()):
                out.write(f"{inner}{json.dumps(str(key))}: ")
                write(value, out, depth + 1)
                out.write(",\n" if i < len(doc) - 1 else "\n")
            out.write(f"{pad}}}")
        elif isinstance(doc, (list, tuple)):
            if not doc:
                out.write("[]")
                return
            out.write("[\n")
            for i, value in enumerate(doc):
                out.write(inner)
                write(value, out, depth + 1)
                out.write(",\n" if i < len(doc) - 1 else "\n")
            out.write(f"{pad}]")
        else:
            raise TypeError(f"cannot serialize {type(doc).__name__} canonically")

    out = io.StringIO()
    write(doc, out, 0)
    out.write("\n")
    return out.getvalue()


def hexed(value):
    """``value`` with every float replaced by ``float.hex``, so -0.0 and last bits show.

    Dicts become lists of pairs, so key order is compared too.
    """
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return [(k, hexed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value
