"""The scenario reader and validator against their references.

``cli.parse_scenario_doc`` reads every offer through ``model.offer_from_dict``,
which maps ``event_from_dict`` over the events, takes finite floats and ASCII
ids inline and looks for stray bid keys only when there are any;
``helpers.reference_parse`` reads them through frozen copies of the field-by-field
readers (``Enum.__call__`` for kinds, ``read_each`` for events, a stray-key pass
for every offer). ``sim.validate_scenario`` checks every offer with
``validate_offer``, the one offer validator, which walks an offer's events
once and its bids once; ``helpers.reference_validate`` checks them with
``reference_validate_offer``, a frozen copy that makes a pass per rule, and
each words the scenario rules around it itself. Each pair must give equal configs and the same full issue
lists, in the same order.
"""

import copy
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uxcharge as ux
from helpers import (
    assert_reads_like_reference,
    reference_member,
    reference_validate,
    reference_validate_offer,
)
from test_cli import SCENARIO_PROBES
from uxcharge.cli import parse_scenario_doc
from uxcharge.model import member, validate_offer
from uxcharge.sim import prepare, validate_scenario

STRATEGIES = ("identity", "proportional", "single:click", "single:ghost", "bogus")
MODELS = (ux.OutcomeModel.INDEPENDENT, ux.OutcomeModel.FUNNEL)


@pytest.mark.parametrize("doc", [p[1] for p in SCENARIO_PROBES], ids=[p[0] for p in SCENARIO_PROBES])
def test_every_scenario_probe_reads_like_the_reference(doc):
    assert_reads_like_reference(json.loads(json.dumps(doc)), STRATEGIES, MODELS)


def test_each_unknown_top_level_key_is_one_issue_in_document_order():
    doc = {"adjusted": [], "format_version": 1, "events": 5, "reserv": 0.1, "x" * 60: None}
    with pytest.raises(ux.ScenarioError) as excinfo:
        parse_scenario_doc(doc)
    assert excinfo.value.issues == (
        "unknown field 'adjusted'",
        "unknown field 'reserv'",
        f"unknown field '{'x' * 36}...",  # cut as ``brief`` cuts a rejected value
        "'events' must be an array",
    )
    assert_reads_like_reference(doc, STRATEGIES, MODELS)


class _Name(str):
    pass


def reading_member(read, value, kind):
    """The member ``read`` finds, or the message it raises."""
    try:
        found = read(value, kind, "'field'")
    except ValueError as exc:
        return str(exc)
    assert type(found) is kind
    return found


@pytest.mark.parametrize(
    "value",
    [
        "view", "cpm", _Name("click"), ux.EventKind.CUSTOM, ux.PriceType.CPC, ux.OutcomeModel.FUNNEL,
        "View", "", 1, 0.5, None, True, ["view"], {"cpm": 1}, ("view",), (["view"],),
    ],
)
def test_member_reads_like_the_enum_call(value):
    """One dict lookup gives the member ``Enum.__call__`` gives, a member
    itself included, and the same message for anything else, unhashable too."""
    for kind in (ux.EventKind, ux.PriceType):
        assert reading_member(member, value, kind) == reading_member(reference_member, value, kind)


def test_a_read_config_equals_the_library_built_one_over_the_same_rows():
    rows = {"x": [1, 0.5], "y": [0.25, 0]}
    doc = {
        "format_version": 1,
        "events": [{"id": "view", "kind": "view", "prob": 1.0}, {"id": "click", "kind": "click", "prob": 0.1}],
        "offers": [
            {"ad_id": "x", "price_type": "cpc", "bids": {"click": 2.0}},
            {"ad_id": "y", "price_type": "cpm", "bids": {"view": 0.15}},
        ],
        "slots": {"k": 2, "ctr_matrix": rows},
    }
    read = parse_scenario_doc(doc)
    built = ux.ScenarioConfig(offers=read.offers, charges=ux.ChargeSchedule({}), slots=ux.SlotModel(2, rows))
    assert read == built
    assert repr(read) == repr(built)


def _bulk_document(offers=10_000, k=10):
    """A bulk-simulate-shaped document: hybrid offers over view, click and
    conversion with their own probabilities, bids on every event, ctr rows."""
    rng = random.Random("reader-reference")
    doc = {"format_version": 1, "offers": [], "charges": {"view": 0.02, "click": 0.15, "conversion": 0.4}}
    ctr = {}
    for i in range(offers):
        p_click = rng.uniform(0.02, 0.3)
        probs = {"view": 1.0, "click": p_click, "conversion": p_click * rng.uniform(0.05, 0.5)}
        doc["offers"].append({
            "ad_id": f"ad{i:04d}",
            "price_type": "hybrid",
            "events": [{"id": eid, "kind": eid, "prob": p} for eid, p in probs.items()],
            "bids": {eid: rng.uniform(0.1, 1.0) / max(p, 0.05) for eid, p in probs.items()},
        })
        row, p = [], min(1.0, p_click * rng.uniform(0.8, 1.5))
        for _ in range(k):
            row.append(p)
            p *= rng.uniform(0.6, 0.95)
        ctr[doc["offers"][-1]["ad_id"]] = row
    doc["slots"] = {"k": k, "ctr_matrix": ctr}
    return json.loads(json.dumps(doc))


BULK = _bulk_document()
BAD_OFFER = 7_777


def _bid(field, value):
    return lambda offer: offer["bids"].__setitem__(field, value)


def _event(index, field, value):
    return lambda offer: offer["events"][index].__setitem__(field, value)


def _rename_conversion(event_id):
    def rename(offer):
        offer["events"][2]["id"] = event_id
        offer["bids"][event_id] = offer["bids"].pop("conversion")
    return rename


@pytest.mark.parametrize(
    "breaks",
    [
        _bid("click", True),
        _event(1, "prob", "0.1"),
        _event(0, "prob", 1),
        _bid("view", float("inf")),
        _bid("click", 10**400),
        _event(2, "id", "\ud800"),
        _rename_conversion("\ud800"),
        _rename_conversion("caf\u00e9"),
        _event(1, "kind", "hover"),
        _bid("ghost", 0.5),
        _event(1, "prob", 1.5),
        _bid("conversion", -1.0),
    ],
    ids=[
        "bool-bid",
        "string-prob",
        "int-prob",
        "infinite-bid",
        "huge-int-bid",
        "lone-surrogate-id",
        "lone-surrogate-id-with-its-bid",
        "non-ascii-id-with-its-bid",
        "unknown-kind",
        "stray-bid-key",
        "prob-out-of-range",
        "negative-bid",
    ],
)
def test_one_bad_field_among_ten_thousand_offers_reads_like_the_reference(breaks):
    doc = dict(BULK, offers=list(BULK["offers"]))
    doc["offers"][BAD_OFFER] = bad = copy.deepcopy(doc["offers"][BAD_OFFER])
    breaks(bad)
    assert_reads_like_reference(doc, ("proportional", "single:click"))


def test_the_clean_bulk_document_reads_like_the_reference():
    assert_reads_like_reference(BULK, ("proportional",))


def _offer(ad_id, price_type="hybrid", events=None, bids=None):
    if events is None:
        events = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0), ux.EventSpec("click", ux.EventKind.CLICK, 0.1))
    if bids is None:
        bids = {"view": 0.5, "click": 2.0}
    return ux.Offer(ad_id, ux.PriceType(price_type), tuple(events), bids)


VIEW, CLICK = ux.EventKind.VIEW, ux.EventKind.CLICK
LIBRARY_OFFERS = {
    "nan-bid": _offer("nan", bids={"view": float("nan"), "click": 1.0}),
    "numpy-bid": _offer("np", bids={"view": np.float64(0.5), "click": 1.0}),
    "bool-bid": _offer("bool", bids={"view": True, "click": 1.0}),
    "two-views": _offer("views", events=[ux.EventSpec("view", VIEW, 1.0), ux.EventSpec("v2", VIEW, 1.0)], bids={"view": 1.0, "v2": 0.0}),
    "duplicate-event-id": _offer("dup", events=[ux.EventSpec("view", VIEW, 1.0), ux.EventSpec("view", CLICK, 0.1)], bids={"view": 1.0}),
    "view-probability-0.999": _offer("near", events=[ux.EventSpec("view", VIEW, 0.999), ux.EventSpec("click", CLICK, 0.1)]),
    "cpm-bids-on-click": _offer("cpm", "cpm"),
    "cpc-bids-on-view": _offer("cpc", "cpc"),
    "missing-bid": _offer("missing", bids={"view": 1.0}),
    "bids-out-of-order": _offer("order", bids={"click": 2.0, "view": 0.5}),
    "string-kind": _offer("kind", events=[ux.EventSpec("view", "view", 1.0), ux.EventSpec("click", CLICK, 0.1)]),
    "no-events": _offer("none", events=(), bids={}),
    "negative-zero-bid": _offer("zero", bids={"view": -0.0, "click": 2.0}),
    "infinite-bid": _offer("inf", bids={"view": float("inf"), "click": 1.0}),
    "negative-int-bid": _offer("int", bids={"view": -1, "click": 1.0}),
    "numpy-nan-bid": _offer("npnan", bids={"view": np.float64("nan"), "click": 1.0}),
    "int-probability": _offer("intp", events=[ux.EventSpec("view", VIEW, 1.0), ux.EventSpec("click", CLICK, 2)]),
    "string-bid": _offer("str", bids={"view": 0.5, "click": "1"}),
    "none-bid": _offer("nonebid", bids={"view": None, "click": 1.0}),
    "huge-int-bid": _offer("huge", bids={"view": 0.5, "click": 10**400}),
    "string-probability": _offer("strp", events=[ux.EventSpec("view", VIEW, 1.0), ux.EventSpec("click", CLICK, "1")]),
    "bool-view-probability": _offer("boolp", events=[ux.EventSpec("view", VIEW, True), ux.EventSpec("click", CLICK, 0.1)]),
    "string-price-type": ux.Offer("strpt", "cpm", _offer("x").events, {"view": 0.5, "click": 0.0}),
    "string-click-kind": _offer("strclick", events=[ux.EventSpec("view", VIEW, 1.0), ux.EventSpec("click", "click", 0.1)]),
    "list-ad-id": _offer(["listid"]),
    "list-bids": ux.Offer("listbids", ux.PriceType.HYBRID, _offer("x").events, [0.5, 2.0]),
    "no-event-tuple": ux.Offer("noevents", ux.PriceType.HYBRID, None, {"view": 0.5}),
    "event-list": ux.Offer("eventlist", ux.PriceType.HYBRID, list(_offer("x").events), {"view": 0.5, "click": 2.0}),
    "event-not-an-eventspec": ux.Offer(
        "plainevent", ux.PriceType.HYBRID, (ux.EventSpec("view", VIEW, 1.0), ("click", CLICK, 0.1)), {"view": 0.5, "click": 2.0}
    ),
    "list-event-id": _offer("listeid", "cpc", events=[ux.EventSpec("view", VIEW, 1.0), ux.EventSpec(["c"], CLICK, 0.1)], bids={"view": 0.0, "c": 1.0}),
    "int-event-id": _offer("inteid", "cpc", events=[ux.EventSpec("v", VIEW, 1.0), ux.EventSpec(3, CLICK, 0.1)], bids={"v": 0.0, 3: 1.0}),
}

# Together these two chain to the same bid keys as event ids, [view, click, view],
# though each offer's keys differ from its own ids.
SHIFTED_KEYS = (
    _offer("short", bids={"view": 1.0}),
    _offer("long", events=[ux.EventSpec("view", VIEW, 1.0)], bids={"click": 1.0, "view": 1.0}),
)


@pytest.mark.parametrize("name", sorted(LIBRARY_OFFERS))
def test_library_built_offers_validate_like_the_reference(name):
    offers = (_offer("clean-a"), LIBRARY_OFFERS[name], _offer("clean-b", "cpc", bids={"view": 0.0, "click": 1.0}))
    for strategy in STRATEGIES:
        for model in MODELS:
            config = ux.ScenarioConfig(offers, ux.ChargeSchedule({"view": 0.01}), strategy=strategy, model=model)
            assert validate_scenario(config) == reference_validate(config)


def test_offers_whose_bid_keys_line_up_only_across_offers_validate_like_the_reference():
    config = ux.ScenarioConfig(SHIFTED_KEYS, ux.ChargeSchedule({}))
    assert validate_scenario(config) == reference_validate(config)


def test_all_library_built_offers_together_validate_like_the_reference():
    offers = tuple(LIBRARY_OFFERS.values())
    for width in (None, 3):
        if width:  # give the first offer a third event, so the rows are padded
            first = offers[0]
            events = first.events + (ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.01),)
            offers = (ux.Offer(first.ad_id, first.price_type, events, {**first.bids, "conv": 4.0}),) + offers[1:]
        config = ux.ScenarioConfig(offers, ux.ChargeSchedule({}), strategy="single:click")
        assert validate_scenario(config) == reference_validate(config)


PROBABILITIES = [1.0, 0.5, 0.0, -0.0, 1 - 1e-10, 1 + 1e-10, 0.999, 1, 0, 1.5, float("nan"), np.float64(1.0)]
BIDS = [0.0, -0.0, 1.0, 2.5, 1, 0, -1.0, float("nan"), float("inf"), True, np.float64(1.0)]
MUTATIONS = (
    "permute", "drop", "stray", "bid", "probability", "price_type", "repeat", "view", "id",
    "string_kind", "string_price_type", "entry", "event_list", "bid_list", "list_ad_id", "repeat_unbid",
)


@st.composite
def loose_offers(draw):
    """A valid offer of floats with bids in event order, then none, one or two
    of: bids permuted, missing or stray; a bid or probability that is an
    int, bool, numpy float, nan, infinite, negative or out of range; another
    price type; a repeated event id; a second view event; an event whose id
    is an int or a list, with no bid; a kind or price type given as its
    string; an event entry that is not an ``EventSpec``; events or bids
    given as a list; a list ad_id; a repeated event id with no bid."""
    ad_id, as_list = "ad", set()
    kinds = draw(st.lists(st.sampled_from([CLICK, ux.EventKind.CONVERSION, ux.EventKind.CUSTOM]), max_size=3))
    events = [ux.EventSpec("view", VIEW, draw(st.sampled_from([1.0, 1 - 1e-10])))]
    events += [ux.EventSpec(f"e{i}", kind, draw(st.sampled_from([0.0, 0.25, 1.0]))) for i, kind in enumerate(kinds)]
    events = draw(st.permutations(events))
    declared = len(events)
    price_type = draw(st.sampled_from(list(ux.PriceType)))
    paid = {ux.PriceType.CPM: VIEW, ux.PriceType.CPC: CLICK}.get(price_type)
    bids = {e.event_id: draw(st.sampled_from([0.0, 1.5])) if paid in (None, e.kind) else 0.0 for e in events}

    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        at = draw(st.integers(0, declared - 1))
        eid = events[at].event_id
        if mutation == "permute":
            bids = dict(draw(st.permutations(list(bids.items()))))
        elif mutation == "drop":
            bids.pop(eid, None)
        elif mutation == "stray":
            bids["ghost"] = draw(st.sampled_from(BIDS))
        elif mutation == "bid":
            bids[eid] = draw(st.sampled_from(BIDS))
        elif mutation == "probability":
            events[at] = ux.EventSpec(eid, events[at].kind, draw(st.sampled_from(PROBABILITIES)))
        elif mutation == "price_type":
            price_type = draw(st.sampled_from(list(ux.PriceType)))
        elif mutation == "repeat":
            events.append(events[at])
        elif mutation == "view":
            events.append(ux.EventSpec("v2", VIEW, 1.0))
            bids["v2"] = 0.0
        elif mutation == "id":
            events.append(ux.EventSpec(draw(st.sampled_from([3, ["e0"]])), CLICK, 0.5))
        elif mutation == "string_kind":
            events[at] = ux.EventSpec(eid, draw(st.sampled_from([k.value for k in ux.EventKind])), events[at].probability)
        elif mutation == "string_price_type":
            price_type = draw(st.sampled_from([p.value for p in ux.PriceType]))
        elif mutation == "entry":
            events.append((f"e{at}", CLICK, 0.5))
        elif mutation == "list_ad_id":
            ad_id = [ad_id]
        elif mutation == "repeat_unbid":
            events.append(events[at])
            bids.pop(eid, None)
        else:  # "event_list" or "bid_list", applied once the events and bids are final
            as_list.add(mutation)
    events = list(events) if "event_list" in as_list else tuple(events)
    return ux.Offer(ad_id, price_type, events, list(bids.values()) if "bid_list" in as_list else bids)


_VIEW_CLICK = (ux.EventSpec("view", VIEW, 1.0), ux.EventSpec("click", CLICK, 0.5))


@settings(max_examples=400, deadline=None)
@given(offer=loose_offers())
@example(offer=ux.Offer("ad", "cpm", _VIEW_CLICK, {"view": -1.0, "ghost": 2.0, "click": True}))
@example(offer=ux.Offer("ad", ux.PriceType.CPM, _VIEW_CLICK, {"click": 1.0, "view": float("inf"), "ghost": 2.0}))
@example(offer=ux.Offer("ad", ux.PriceType.CPC, (*_VIEW_CLICK, _VIEW_CLICK[1], _VIEW_CLICK[1]), {"view": 0.0}))
# a duplicate id worded before a later non-string one, which drops the missing bid on 'click'
@example(offer=ux.Offer("ad", ux.PriceType.CPC, (*_VIEW_CLICK, _VIEW_CLICK[1], ux.EventSpec(["e0"], CLICK, 0.5)), {"view": 1.0}))
@example(offer=ux.Offer("ad", ux.PriceType.CPC, (), {"click": 1.0, "view": -1.0}))  # no events, bids kept
# a repeated id with no bid, worded once per occurrence
@example(offer=ux.Offer("ad", ux.PriceType.HYBRID, (*_VIEW_CLICK, ux.EventSpec("click", ux.EventKind.CONVERSION, 0.2)), {"view": 1.0}))
def test_one_loose_offer_checks_like_the_frozen_per_offer_references(offer):
    """``validate_offer``, which walks the events once and the bids once, gives
    the list of its frozen pass-per-rule copy, in the same order."""
    assert validate_offer(offer) == reference_validate_offer(offer)


@settings(max_examples=400, deadline=None)
@given(offer=loose_offers())
def test_one_loose_offer_validates_like_the_reference_and_prepares_only_when_valid(offer):
    """Under every strategy and outcome model, ``validate_scenario`` words a
    one-offer scenario as the reference does, and ``prepare`` raises
    ScenarioError exactly when that list is not empty, and nothing else."""
    for strategy in STRATEGIES:
        for model in MODELS:
            config = ux.ScenarioConfig((offer,), ux.ChargeSchedule({"view": 0.01}), strategy=strategy, model=model)
            issues = validate_scenario(config)
            assert issues == reference_validate(config)
            try:
                prepare(config)
            except ux.ScenarioError as exc:
                assert list(exc.issues) == issues != []
            else:
                assert issues == []
