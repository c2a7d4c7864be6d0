"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import io
import json
import math
from collections.abc import Mapping
from numbers import Real
from dataclasses import replace

from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.auction import pricing_rule_issues, reserve_issues
from uxcharge.cli import parse_scenario_doc
from uxcharge.model import (
    approx_eq,
    brief,
    charges_from_dict,
    is_number,
    number,
    read_each,
    require_fields,
    text,
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
# The per-offer, slot-by-slot and recursive forms that prepare's loop, the
# array auction and the flat writer must match bit for bit: the oracles of
# tests/test_equivalence.py, and the validator's and reader's references.


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


def reference_keyed(ids, mapping) -> bool:
    """``model.keyed`` without its ordered fast path: the length and set rule alone."""
    return len(mapping) == len(ids) and mapping.keys() == set(ids)


def reference_require_same_keys(reference, mapping, what) -> None:
    """``model.require_same_keys`` over ``reference_keyed``, its messages spelled out."""
    if reference_keyed(reference, mapping):
        return
    repeated = sorted({k for k in reference if reference.count(k) > 1})
    if repeated:
        raise ux.KeyMismatchError(f"{what}: event ids repeat in the event set: {repeated}")
    missing = sorted(k for k in reference if k not in mapping)
    extra = sorted(k for k in mapping if k not in reference)
    parts = ([f"missing {missing}"] if missing else []) + ([f"unknown {extra}"] if extra else [])
    raise ux.KeyMismatchError(f"{what} not keyed to the event set: {', '.join(parts)}")


def reference_member(value, kind, what):
    """``model.member`` through ``Enum.__call__``."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(m.value for m in kind)
        raise ValueError(f"{what} must be one of {allowed}, got {brief(value)}") from None


def reference_event_from_dict(doc) -> ux.EventSpec:
    """``model.event_from_dict`` over ``reference_member``."""
    require_fields(doc, ("id", "kind", "prob"))
    event_id = text(doc["id"], "event 'id'")
    kind = reference_member(doc["kind"], ux.EventKind, "'kind'")
    return ux.EventSpec(event_id, kind, number(doc["prob"], "'prob' of", event_id))


def reference_offer_from_dict(doc, events=()) -> ux.Offer:
    """``model.offer_from_dict`` spelled plainly: each event entry through
    ``read_each``, each bid through ``number``, and the stray-key pass for
    every offer."""
    require_fields(doc, ("ad_id", "price_type"))
    if "events" in doc:
        issues = []
        events = tuple(read_each(doc, "events", reference_event_from_dict, issues))
        if issues:
            raise ValueError("; ".join(issues))
    raw = doc.get("bids", {})
    if not isinstance(raw, Mapping):
        raise ValueError(f"'bids' must be an object, got {brief(raw)}")
    bids = {e.event_id: number(raw.get(e.event_id, 0.0), "bid on", e.event_id) for e in events}
    bids.update({k: number(v, "bid on", k) for k, v in raw.items() if k not in bids})
    return ux.Offer(
        ad_id=text(doc["ad_id"], "'ad_id'"),
        price_type=reference_member(doc["price_type"], ux.PriceType, "'price_type'"),
        events=events,
        bids=bids,
    )


def reference_parse(doc) -> ux.ScenarioConfig:
    """``cli.parse_scenario_doc`` over the reference readers above; ``k`` and
    the ctr rows go to ``SlotModel`` as read, as there. A document that is not
    an object or not version 1 is one issue; else each top-level key outside
    the six a scenario defines is one issue, in document order."""
    if not isinstance(doc, Mapping):
        raise ScenarioError(["document must be a JSON object"])
    version = doc.get("format_version")
    if type(version) is not int or version != 1:
        raise ScenarioError([f"unsupported format_version {brief(version)}; this build reads version 1"])
    known = ("format_version", "events", "offers", "charges", "slots", "reserve")
    issues = [f"unknown field {brief(key)}" for key in doc if key not in known]

    shared = tuple(read_each(doc, "events", reference_event_from_dict, issues))
    offers = read_each(doc, "offers", lambda entry: reference_offer_from_dict(entry, shared), issues)

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


def in_float_range(amount) -> bool:
    """Whether a number converts to a finite float."""
    try:
        return math.isfinite(float(amount))
    except OverflowError:
        return False


def reference_event_set_issues(events) -> list[str]:
    """``model.event_set_issues`` as a pass per rule: the ids, then the kinds
    and probabilities, then a list of the view events."""
    violations: list[str] = []

    seen: set[str] = set()
    for ev in events:
        if not isinstance(ev.event_id, str):
            violations.append(f"event id must be a string, got {brief(ev.event_id)}")
        elif ev.event_id in seen:
            violations.append(f"duplicate event id '{ev.event_id}'")
        else:
            seen.add(ev.event_id)

    for ev in events:
        if type(ev.kind) is not ux.EventKind:
            violations.append(f"kind of '{ev.event_id}' must be an EventKind, got {brief(ev.kind)}")
        if not is_number(ev.probability):
            violations.append(f"probability of '{ev.event_id}' must be a number, got {brief(ev.probability)}")
        elif not (0.0 <= ev.probability <= 1.0):
            violations.append(f"probability out of range for '{ev.event_id}': {ev.probability!r}")

    views = [e for e in events if e.kind is ux.EventKind.VIEW]
    if not views:
        violations.append("missing view event")
    elif len(views) > 1:
        violations.append("more than one view event")
    else:
        p = views[0].probability  # not a number: worded above
        if is_number(p) and not (in_float_range(p) and approx_eq(p, 1.0)):
            violations.append(f"view event must have probability 1, got {views[0].probability!r}")
    return violations


def reference_validate_offer(offer: ux.Offer) -> list[str]:
    """``model.validate_offer`` as a pass per rule: the events' types, the
    event set, the ids' types, the bid keys each way, the amounts, and the
    CPM/CPC rule over a kind-by-id map."""
    violations: list[str] = []
    events, bids = offer.events, offer.bids
    if not isinstance(offer.ad_id, str):
        violations.append(f"ad_id must be a string, got {brief(offer.ad_id)}")
    if not isinstance(events, tuple):
        violations.append(f"events must be a tuple of EventSpec, got {brief(events)}")
        events = None
    elif not all(isinstance(e, ux.EventSpec) for e in events):
        violations += [f"event must be an EventSpec, got {brief(e)}" for e in events if not isinstance(e, ux.EventSpec)]
        events = None
    if not isinstance(bids, Mapping):
        violations.append(f"bids must be a mapping, got {brief(bids)}")
        bids = None

    if events is not None:
        violations += reference_event_set_issues(events)
        if not all(isinstance(e.event_id, str) for e in events):
            events = None  # worded above; the bid key and price type checks need string ids
    if events is not None and bids is not None:
        ids = tuple(e.event_id for e in events)
        for eid in ids:
            if eid not in bids:
                violations.append(f"missing bid for event '{eid}'")
        for key in bids:
            if key not in ids:
                violations.append(f"bid keyed to unknown event '{key}'")
    for key, amount in bids.items() if bids is not None else ():
        if not is_number(amount):
            violations.append(f"bid on '{key}' must be a number, got {brief(amount)}")
        elif not in_float_range(amount):
            violations.append(f"non-finite bid on '{key}': {brief(amount)}")
        elif amount < 0.0:
            violations.append(f"negative bid on '{key}': {amount!r}")

    allowed = None
    if type(offer.price_type) is ux.PriceType:
        allowed = {ux.PriceType.CPM: ux.EventKind.VIEW, ux.PriceType.CPC: ux.EventKind.CLICK}.get(offer.price_type)
    else:
        violations.append(f"price type must be a PriceType, got {brief(offer.price_type)}")
    if allowed is not None and events is not None and bids is not None:
        kind_by_id = {e.event_id: e.kind for e in events}
        for key, amount in bids.items():
            if is_number(amount) and amount > 0.0 and kind_by_id.get(key) is not allowed:
                violations.append(f"{offer.price_type.value} offer bids on non-{allowed.value} event '{key}'")
    return violations


def reference_validate(config: ux.ScenarioConfig) -> list[str]:
    """``sim.validate_scenario`` with ``reference_validate_offer`` called for every offer."""
    issues: list[str] = []

    issues.extend(pricing_rule_issues(config.pricing_rule))
    if isinstance(config.trials, bool) or not isinstance(config.trials, int):
        issues.append(f"trials must be an integer, got {brief(config.trials)}")
    elif config.trials < 1:
        issues.append(f"trials must be >= 1, got {config.trials}")
    elif config.trials > TRIALS_LIMIT:
        issues.append(f"trials must be <= {TRIALS_LIMIT}, got {config.trials}")
    if isinstance(config.seed, bool) or not isinstance(config.seed, int):
        issues.append(f"seed must be an integer, got {brief(config.seed)}")
    elif config.seed < 0:
        issues.append(f"seed must be >= 0, got {config.seed}")
    if config.model not in tuple(ux.OutcomeModel):
        issues.append(f"model must be an OutcomeModel, got {brief(config.model)}")
    issues.extend(reserve_issues(config.reserve))

    try:
        kind, target = _parse_strategy(config.strategy)
    except ValueError as exc:
        issues.append(str(exc))
        kind, target = "identity", None

    offers = config.offers
    if not isinstance(offers, (tuple, list)):
        issues.append(f"offers must be a tuple or list, got {brief(offers)}")
        offers = ()
    seen_ads: set[str] = set()
    for i, offer in enumerate(offers):
        if not isinstance(offer, ux.Offer):
            issues.append(f"offers[{i}] must be an Offer, got {brief(offer)}")
            continue
        if isinstance(offer.ad_id, str):
            if offer.ad_id in seen_ads:
                issues.append(f"duplicate ad_id '{offer.ad_id}'")
            seen_ads.add(offer.ad_id)

        violations = reference_validate_offer(offer)
        issues.extend(f"offer '{offer.ad_id}': {v}" for v in violations)
        if isinstance(offer.events, tuple) and len(offer.events) > ENUMERATION_LIMIT:
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
            if config.model is ux.OutcomeModel.FUNNEL:
                try:
                    _funnel_chain(offer.events, config.model)
                except ValueError as exc:
                    issues.append(f"offer '{offer.ad_id}': {exc}")

    if config.slots is not None and not isinstance(config.slots, ux.SlotModel):
        issues.append(f"slots must be a SlotModel or None, got {brief(config.slots)}")
    elif config.slots is not None and offers:
        undeclared = [ad for ad in config.slots.ctr if ad not in seen_ads]
        issues.extend(f"slots: ctr row keyed to ad {ad!r} declared by no offer" for ad in undeclared)

    if not isinstance(config.charges, ux.ChargeSchedule) or not isinstance(config.charges.charges, Mapping):
        issues.append(f"charges must be a ChargeSchedule of a mapping, got {brief(config.charges)}")
        return issues
    known_ids = {
        e.event_id
        for offer in offers
        if isinstance(offer, ux.Offer) and isinstance(offer.events, tuple)
        for e in offer.events
        if isinstance(e, ux.EventSpec) and isinstance(e.event_id, str)
    }
    for eid, amount in config.charges.charges.items():
        if offers and eid not in known_ids:
            issues.append(f"charge keyed to event '{eid}' declared by no offer")
        if isinstance(amount, bool) or not isinstance(amount, Real):
            issues.append(f"charge on '{eid}' must be a number, got {brief(amount)}")
        elif not in_float_range(amount):
            issues.append(f"non-finite charge on '{eid}': {brief(amount)}")
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


def outcome_view(outcome: ux.AuctionOutcome):
    """An auction outcome with its floats in ``hexed`` form, to compare bit for bit."""
    winners = [(w.ad_id, w.slot, hexed(w.prices), hexed(w.value), hexed(w.price_factor)) for w in outcome.winners]
    return outcome.pricing_rule, hexed(outcome.ranking), winners


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
