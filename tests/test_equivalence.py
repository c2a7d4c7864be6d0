"""The pipeline's own paths equal the per-offer and recursive references bit for bit.

``sim.prepare``'s per-offer loop is checked against the scalar chain
is_feasible -> build_plan -> adjust_general, the array position auction
against the slot-by-slot loop, and ``dumps_canonical`` against the recursive
writer; the references live in helpers.py. Floats are compared with
``float.hex``, so a sign of zero or a last-bit difference fails.
"""

import json
import math
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge import sim
from uxcharge.cli import dumps_canonical, main, parse_scenario_doc

from helpers import hexed, loop_auction, outcome_view, recursive_dumps, scalar_prepare

# Event ids drawn per offer, declared in random order: a sum taken in any
# other order (sorted ids, say) would differ from the declared-order one.
EVENT_KINDS = {
    "view": ux.EventKind.VIEW,
    "click": ux.EventKind.CLICK,
    "conv": ux.EventKind.CONVERSION,
    "a_extra": ux.EventKind.CUSTOM,
    "z_extra": ux.EventKind.CUSTOM,
    "m": ux.EventKind.CUSTOM,
}
STRATEGIES = ["identity", "proportional", "single:view", "single:click"]

# Mostly nonzero draws: summation order shows only with three or more
# nonzero terms, since two-term addition commutes exactly.
amount = st.one_of(st.just(0.0), *[st.floats(min_value=1e-6, max_value=10.0)] * 3)
chance = st.one_of(st.just(0.0), st.just(1.0), *[st.floats(min_value=1e-6, max_value=1.0)] * 3)
# -0.0 bids and charges are valid; a -0.0 term must leave every fold as it was
amount_or_minus_zero = st.one_of(amount, st.just(-0.0))


@st.composite
def shuffled_events(draw, need_click: bool = False):
    """A valid event set in random declaration order: one view (p=1) plus a subset."""
    others = draw(st.lists(st.sampled_from(sorted(EVENT_KINDS)[1:]), unique=True, max_size=5))
    others = [eid for eid in others if eid != "view"]
    if need_click and "click" not in others:
        others.append("click")
    events = [ux.EventSpec("view", ux.EventKind.VIEW, 1.0)]
    for eid in others:
        p = draw(chance)
        if need_click and eid == "click":
            p = max(p, 0.05)
        events.append(ux.EventSpec(eid, EVENT_KINDS[eid], p))
    return tuple(draw(st.permutations(events)))


@st.composite
def scenarios(draw, strategy: str):
    count = draw(st.integers(min_value=1, max_value=8))
    offers = []
    for i in range(count):
        if offers and draw(st.booleans()):
            # a copy under another id: tied values everywhere downstream
            twin = draw(st.sampled_from(offers))
            offers.append(ux.Offer(f"ad{i}", twin.price_type, twin.events, dict(twin.bids)))
            continue
        events = draw(shuffled_events(need_click=strategy == "single:click"))
        bids = {e.event_id: draw(amount_or_minus_zero) for e in events}
        offers.append(ux.Offer(f"ad{i}", ux.PriceType.HYBRID, events, bids))
    declared = sorted({eid for o in offers for eid in o.event_ids})
    charges = {eid: draw(amount_or_minus_zero) for eid in declared if draw(st.booleans())}
    return sim.ScenarioConfig(
        offers=tuple(draw(st.permutations(offers))),
        charges=ux.ChargeSchedule(charges),
        strategy=strategy,
        reserve=draw(st.sampled_from([0.0, 0.05, 0.5])),
    )


def adjusted_view(offer: ux.AdjustedOffer):
    return offer.ad_id, offer.events, hexed(offer.adjusted), hexed(offer.expected_value)


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batch_prepare_equals_the_scalar_chain(strategy, data):
    config = data.draw(scenarios(strategy))
    records, included = sim.prepare(config)
    ref_records, ref_included = scalar_prepare(config)
    assert hexed(records) == hexed(ref_records)
    assert [adjusted_view(o) for o in included] == [adjusted_view(o) for o in ref_included]


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_amounts_prepare_like_their_float_twins(strategy, data):
    """Int bids, charges and probabilities (0 and 1) are taken through
    ``float``: the records and adjusted offers equal those of the float twin."""
    config = data.draw(scenarios(strategy))
    whole = st.integers(0, 4)
    int_bids = [{k: data.draw(whole) for k in offer.bids} for offer in config.offers]
    int_charges = {k: data.draw(whole) for k in config.charges.charges}

    def twin(cast):
        offers = []
        for i, offer in enumerate(config.offers):
            events = tuple(
                ux.EventSpec(e.event_id, e.kind, cast(int(e.probability)) if e.probability in (0.0, 1.0) else e.probability)
                for e in offer.events
            )
            offers.append(ux.Offer(offer.ad_id, offer.price_type, events, {k: cast(v) for k, v in int_bids[i].items()}))
        charges = ux.ChargeSchedule({k: cast(v) for k, v in int_charges.items()})
        return replace(config, offers=tuple(offers), charges=charges)

    as_int, as_float = twin(int), twin(float)
    assert any(type(b) is int for o in as_int.offers for b in o.bids.values())
    records, included = sim.prepare(as_int)
    float_records, float_included = sim.prepare(as_float)
    assert hexed(records) == hexed(float_records)
    assert [adjusted_view(o) for o in included] == [adjusted_view(o) for o in float_included]


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_expected_adjusted_value_is_the_slot_one_value(strategy, data):
    config = data.draw(scenarios(strategy))
    _, included = sim.prepare(config)
    _, ref_included = scalar_prepare(config)
    for offer in [*included, *ref_included]:
        assert offer.expected_value.hex() == ux.value_at_slot(offer, None, 1).hex()


# --- auction -----------------------------------------------------------------

signed_amount = st.one_of(amount, amount.map(lambda x: -x))


@st.composite
def auctions(draw):
    """Adjusted offers (with negatives and ties), a slot model and a reserve."""
    count = draw(st.integers(min_value=1, max_value=9))
    offers = []
    for i in range(count):
        if offers and draw(st.booleans()):
            twin = draw(st.sampled_from(offers))
            offers.append(ux.AdjustedOffer(f"ad{i}", twin.events, dict(twin.adjusted), twin.expected_value))
            continue
        events = draw(shuffled_events())
        adjusted = {e.event_id: draw(signed_amount) for e in events}
        # keys in any order: the auction reads each bid by its event id, in declared event order
        adjusted = {eid: adjusted[eid] for eid in draw(st.permutations(list(adjusted)))}
        value = ux.expected_value(adjusted, events)
        offers.append(ux.AdjustedOffer(f"ad{i}", events, adjusted, value))
    slots = None
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=12))
        ctr = {}
        for offer in offers:
            if draw(st.booleans()):
                row = sorted((draw(chance) for _ in range(k)), reverse=True)
                ctr[offer.ad_id] = tuple(row)
        slots = ux.SlotModel(k, ctr)
    reserve = draw(st.sampled_from([0.0, 0.01, 0.3, 2.0]))
    return tuple(draw(st.permutations(offers))), slots, reserve


@settings(max_examples=300, deadline=None)
@given(auctions(), st.sampled_from(["first", "second"]))
def test_auction_equals_the_slot_loop(case, rule):
    offers, slots, reserve = case
    runner = ux.run_first_price if rule == "first" else ux.run_second_price
    assert outcome_view(runner(offers, slots, reserve)) == outcome_view(
        loop_auction(offers, slots, reserve, rule)
    )


def test_auction_rejects_duplicate_ad_ids_and_non_finite_values():
    events = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0),)
    offer = ux.AdjustedOffer("x", events, {"view": 1.0}, 1.0)
    with pytest.raises(ValueError, match="duplicate ad_id 'x'"):
        ux.run_second_price([offer, offer])
    broken = ux.AdjustedOffer("y", events, {"view": math.inf}, 1.0)
    with pytest.raises(ValueError, match="finite"):
        ux.run_second_price([offer, broken])


def test_slot_count_far_beyond_the_offers_costs_no_memory(tmp_path, capsys):
    # Two offers fill at most two slots; only those and slot k are evaluated.
    scenario = Path(__file__).resolve().parent / "golden" / "cpc_view_charge.json"
    out = tmp_path / "auction.json"
    tracemalloc.start()
    try:
        code = main(["auction", str(scenario), "--slots", "1000000", "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2 * 2**20

    config = parse_scenario_doc(json.loads(scenario.read_text(encoding="utf-8")))
    _, included = sim.prepare(config)
    expected = loop_auction(included, ux.SlotModel(10**6), config.reserve, "second")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["ranking"] == [list(pair) for pair in expected.ranking]
    assert [(w["ad_id"], w["slot"], w["price_factor"], w["value"], w["prices"]) for w in doc["winners"]] == [
        (w.ad_id, w.slot, w.price_factor, w.value, dict(w.prices)) for w in expected.winners
    ]


# --- canonical writer --------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(st.none(), st.booleans(), st.integers(), finite, st.just(-0.0), st.text())


def containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)


# a dict or a list of what the pipeline's documents hold
documents = containers(st.recursive(leaves, containers, max_leaves=30))


@settings(max_examples=500, deadline=None)
@given(documents)
def test_flat_writer_equals_the_recursive_writer(doc):
    assert dumps_canonical(doc) == recursive_dumps(doc)


def _error(write, doc):
    with pytest.raises((ValueError, TypeError)) as info:
        write(doc)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("wrap", ["in_list", "in_dict", "nested"])
def test_flat_writer_raises_what_the_recursive_writer_raises(bad, wrap):
    doc = {
        "in_list": [1.0, bad],
        "in_dict": {"a": "x", "b": bad},
        "nested": {"a": [{"b": [0.5, bad]}]},
    }[wrap]
    assert _error(dumps_canonical, doc) == _error(recursive_dumps, doc)


NO_REPORT_HOLDS = {  # id: (value, the type name its TypeError gives)
    "np-float64": (np.float64(0.5), "float64"),
    "np-nan": (np.float64("nan"), "float64"),
    "np-int64": (np.int64(3), "int64"),
    "tuple": ((0.5, 1.0), "tuple"),
    "set": ({1, 2}, "set"),
    "bytes": (b"bytes", "bytes"),
    "object": (object(), "object"),
    "np-array": (np.array([1.0]), "ndarray"),
    "mapping-proxy": (types.MappingProxyType({"a": 0.5}), "mappingproxy"),
    "int-key": ({1: 0.5}, "int"),
}


@pytest.mark.parametrize("bad, name", NO_REPORT_HOLDS.values(), ids=NO_REPORT_HOLDS.keys())
@pytest.mark.parametrize("wrap", ["bare", "in_list", "in_dict"])
def test_a_type_no_report_holds_is_a_type_error_naming_it(bad, name, wrap):
    """Reports hold dicts with str keys, lists, str, float, int, bool and None;
    anything else reaching the writer is a bug, not a value to coerce."""
    doc = {"bare": bad, "in_list": [1.0, bad], "in_dict": {"a": "x", "b": bad}}[wrap]
    with pytest.raises(TypeError) as info:
        dumps_canonical(doc)
    assert f" {name} " in str(info.value)


@pytest.mark.parametrize("doc", [0.5, "text", None, True, 3])
def test_a_document_that_is_no_dict_or_list_is_a_type_error_naming_it(doc):
    with pytest.raises(TypeError) as info:
        dumps_canonical(doc)
    assert f" {type(doc).__name__} " in str(info.value)
