"""The array paths equal the per-offer and recursive references bit for bit.

``sim.prepare`` is checked against the scalar chain is_feasible ->
build_plan -> adjust_general, the array position auction against the
slot-by-slot loop, and ``dumps_canonical`` against the recursive writer; the
references live in helpers.py. Floats are compared with ``float.hex``, so a
sign of zero or a last-bit difference fails.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge import sim
from uxcharge.cli import dumps_canonical, main, parse_scenario_doc

from helpers import hexed, loop_auction, recursive_dumps, scalar_prepare

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
        bids = {e.event_id: draw(amount) for e in events}
        offers.append(ux.Offer(f"ad{i}", ux.PriceType.HYBRID, events, bids))
    declared = sorted({eid for o in offers for eid in o.event_ids})
    charge = st.one_of(amount, st.just(-0.0))
    charges = {eid: draw(charge) for eid in declared if draw(st.booleans())}
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
        # keys in any order: one not in event order sends the layout's bid lookup down its slow path
        adjusted = {eid: adjusted[eid] for eid in draw(st.permutations(list(adjusted)))}
        value = ux.expected_value(adjusted, events)
        offers.append(ux.AdjustedOffer(f"ad{i}", events, adjusted, value))
    slots = None
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=4))
        ctr = {}
        for offer in offers:
            if draw(st.booleans()):
                row = sorted((draw(chance) for _ in range(k)), reverse=True)
                ctr[offer.ad_id] = tuple(row)
        slots = ux.SlotModel(k, ctr)
    reserve = draw(st.sampled_from([0.0, 0.01, 0.3, 2.0]))
    return tuple(draw(st.permutations(offers))), slots, reserve


def outcome_view(outcome: ux.AuctionOutcome):
    winners = [
        (w.ad_id, w.slot, hexed(w.prices), hexed(w.value), hexed(w.price_factor))
        for w in outcome.winners
    ]
    return outcome.pricing_rule, hexed(outcome.ranking), winners


@settings(max_examples=300, deadline=None)
@given(auctions(), st.sampled_from(["first", "second"]))
def test_array_auction_equals_the_slot_loop(case, rule):
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


def test_adjust_document_missing_an_adjusted_bid_exits_1(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(
            {
                "format_version": 1,
                "events": [
                    {"id": "view", "kind": "view", "prob": 1.0},
                    {"id": "click", "kind": "click", "prob": 0.1},
                ],
                "offers": [{"ad_id": "x", "price_type": "cpc", "bids": {"click": 2.0}}],
                "charges": {"view": 0.05},
            }
        ),
        encoding="utf-8",
    )
    adjusted = tmp_path / "adjusted.json"
    assert main(["adjust", str(scenario), "-o", str(adjusted)]) == 0
    doc = json.loads(adjusted.read_text(encoding="utf-8"))
    del doc["adjusted"][0]["adjusted_bids"]["click"]
    adjusted.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["auction", str(adjusted)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "adjusted_bids" in json.loads(lines[0])["detail"][0]


# --- canonical writer --------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    st.just(-0.0),
    finite.map(np.float64),
    st.text(),
)
keys = st.one_of(st.text(), st.integers(), finite, st.booleans(), st.none())
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(documents)
def test_flat_writer_equals_the_recursive_writer(doc):
    assert dumps_canonical(doc) == recursive_dumps(doc)


def _error(write, doc):
    with pytest.raises((ValueError, TypeError)) as info:
        write(doc)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "bad",
    [
        math.nan,
        math.inf,
        -math.inf,
        np.float64("nan"),
        np.float64("-inf"),
        {1, 2},
        b"bytes",
        object(),
        np.int64(3),
        np.array([1.0]),
    ],
    ids=["nan", "inf", "-inf", "np-nan", "np-inf", "set", "bytes", "object", "np-int64", "np-array"],
)
@pytest.mark.parametrize("wrap", ["bare", "in_list", "in_dict", "nested"])
def test_flat_writer_raises_what_the_recursive_writer_raises(bad, wrap):
    doc = {
        "bare": bad,
        "in_list": [1.0, bad],
        "in_dict": {"a": "x", "b": bad},
        "nested": {"a": [{"b": (0.5, bad)}]},
    }[wrap]
    assert _error(dumps_canonical, doc) == _error(recursive_dumps, doc)
