"""Core type validation and serialization round-trips."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.model import approx_eq, keyed, offer_from_dict, offer_to_dict, require_same_keys

from helpers import cpc_offer, offers, reference_keyed, reference_require_same_keys, two_events


def test_canonical_cpc_offer_is_valid():
    assert ux.validate_offer(cpc_offer("x", 2.0, 0.1)) == []


def test_probability_out_of_range_is_reported():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, 1.3),
    )
    offer = ux.Offer("x", ux.PriceType.CPC, events, {"view": 0.0, "click": 1.0})
    violations = ux.validate_offer(offer)
    assert any("probability out of range" in v for v in violations)


def test_view_event_must_have_probability_one():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 0.9),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.1),
    )
    offer = ux.Offer("x", ux.PriceType.CPC, events, {"view": 0.0, "click": 1.0})
    violations = ux.validate_offer(offer)
    assert any("view event must have probability 1" in v for v in violations)


def test_missing_view_event_is_reported():
    events = (ux.EventSpec("click", ux.EventKind.CLICK, 0.1),)
    offer = ux.Offer("x", ux.PriceType.CPC, events, {"click": 1.0})
    violations = ux.validate_offer(offer)
    assert any("missing view event" in v for v in violations)


def test_duplicate_event_ids_are_reported():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("view", ux.EventKind.CLICK, 0.1),
    )
    offer = ux.Offer("x", ux.PriceType.HYBRID, events, {"view": 0.0})
    violations = ux.validate_offer(offer)
    assert any("duplicate event id" in v for v in violations)


def test_negative_and_missing_bids_are_reported():
    offer = ux.Offer("x", ux.PriceType.HYBRID, two_events(0.1), {"view": -1.0})
    violations = ux.validate_offer(offer)
    assert any("negative bid" in v for v in violations)
    assert any("missing bid for event 'click'" in v for v in violations)


def test_stray_bid_key_is_reported():
    offer = ux.Offer(
        "x", ux.PriceType.HYBRID, two_events(0.1), {"view": 0.0, "click": 0.0, "ghost": 1.0}
    )
    violations = ux.validate_offer(offer)
    assert any("unknown event 'ghost'" in v for v in violations)


def test_price_type_discipline():
    cpm_on_click = ux.Offer(
        "x", ux.PriceType.CPM, two_events(0.1), {"view": 1.0, "click": 0.5}
    )
    assert any(
        "cpm offer bids on non-view event 'click'" in v
        for v in ux.validate_offer(cpm_on_click)
    )
    cpc_on_view = ux.Offer(
        "x", ux.PriceType.CPC, two_events(0.1), {"view": 0.5, "click": 1.0}
    )
    assert any(
        "cpc offer bids on non-click event 'view'" in v
        for v in ux.validate_offer(cpc_on_view)
    )


def test_every_violation_is_itemized():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 0.9),
        ux.EventSpec("click", ux.EventKind.CLICK, 1.3),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.2),
    )
    offer = ux.Offer("x", ux.PriceType.CPC, events, {"view": -0.5})
    violations = ux.validate_offer(offer)
    assert len(violations) >= 4


@given(offers())
def test_offer_round_trips_through_dict(offer):
    assert offer_from_dict(offer_to_dict(offer)) == offer


# An offer over (view, click, click): an entry point that let it through would
# count the click twice, so its expected value would be 0.25 by the probability
# mapping and 0.4 by the slot value.
REPEAT = (
    ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
    ux.EventSpec("click", ux.EventKind.CLICK, 0.3),
    ux.EventSpec("click", ux.EventKind.CLICK, 0.3),
)
KEYED = {"view": 0.1, "click": 0.5}
OFFER = ux.Offer("x", ux.PriceType.HYBRID, REPEAT, KEYED)
CHARGES = ux.ChargeSchedule({"view": 0.01, "click": 0.02})
PLAN = ux.ShiftPlan({"view": 0.01, "click": 0.02}, "identity")
ADJUSTED = ux.AdjustedOffer("x", REPEAT, KEYED, 0.25)
# an offer over (view, click) that bids on the view only
UNBID = ux.Offer("x", ux.PriceType.HYBRID, two_events(0.3), {"view": 0.1})


@pytest.mark.parametrize(
    "entry, args, what",
    [
        pytest.param(entry, args, what, id=entry.__name__)
        for entry, args, what in [
            (ux.expected_value, (KEYED, REPEAT), "bids"),
            (ux.adjust_general, (OFFER, PLAN), "offer bids"),
            (ux.is_feasible, (OFFER, CHARGES), "charge schedule"),
            (ux.total_expected_charge, (CHARGES, REPEAT), "charge schedule"),
            (ux.shift_single_event, (CHARGES, REPEAT, "click"), "charge schedule"),
            (ux.shift_proportional, (CHARGES, OFFER, {"click"}), "offer bids"),
            (ux.build_plan, ("proportional", OFFER, CHARGES), "offer bids"),
            (ux.validate_plan, (PLAN, CHARGES, OFFER), "offer bids"),
            (ux.expected_payment, (KEYED, KEYED, REPEAT), "prices"),
            (ux.enumerate_expected_payment, (KEYED, KEYED, REPEAT), "prices"),
            (ux.monte_carlo_payment, (KEYED, KEYED, REPEAT), "prices"),
            (ux.value_at_slot, (ADJUSTED, None, 1), "offer 'x': adjusted bids"),
            (ux.run_first_price, ([ADJUSTED],), "offer 'x': adjusted bids"),
            (ux.run_second_price, ([ADJUSTED],), "offer 'x': adjusted bids"),
        ]
    ],
)
def test_every_entry_point_rejects_a_repeated_event_id(entry, args, what):
    with pytest.raises(ux.KeyMismatchError) as excinfo:
        entry(*args)
    assert str(excinfo.value) == f"{what}: event ids repeat in the event set: ['click']"


@pytest.mark.parametrize(
    "entry, args",
    [
        pytest.param(entry, args, id=entry.__name__)
        for entry, args in [
            (ux.shift_proportional, (CHARGES, UNBID, {"click"})),
            (ux.build_plan, ("proportional", UNBID, CHARGES)),
            (ux.validate_plan, (ux.shift_identity(CHARGES), CHARGES, UNBID, True)),
        ]
    ],
)
def test_entry_points_reading_bids_reject_a_missing_bid(entry, args):
    with pytest.raises(ux.KeyMismatchError) as excinfo:
        entry(*args)
    assert str(excinfo.value) == "offer bids not keyed to the event set: missing ['click']"


def test_offer_from_dict_defaults_missing_bids_to_zero():
    doc = {
        "ad_id": "x",
        "price_type": "cpc",
        "events": [
            {"id": "view", "kind": "view", "prob": 1.0},
            {"id": "click", "kind": "click", "prob": 0.1},
        ],
        "bids": {"click": 2.0},
    }
    offer = offer_from_dict(doc)
    assert offer.bids == {"view": 0.0, "click": 2.0}
    assert ux.validate_offer(offer) == []


@pytest.mark.parametrize(
    "x, y, expected",
    [
        (0.1, math.inf, False),
        (math.inf, 0.1, False),
        (-math.inf, math.inf, False),
        (math.inf, math.inf, True),
        (-math.inf, -math.inf, True),
        (math.nan, math.nan, False),
        (1.0, 1.0 + 1e-10, True),
        (1.0, 1.0 + 1e-8, False),
        (1e300, 1e300 * (1 + 1e-10), True),
        (0.0, -0.0, True),
    ],
)
def test_approx_eq_lets_an_infinity_agree_only_with_itself(x, y, expected):
    assert approx_eq(x, y) is expected


NAMES = ("view", "click", "conv", "a", "b", "c")


@st.composite
def ids_and_mappings(draw):
    """An id list or tuple, with or without repeats, and a mapping over those ids
    in their own order, permuted, or with a key missing, a stray key, or both."""
    ids = draw(st.lists(st.sampled_from(NAMES), max_size=5))
    keys = list(dict.fromkeys(ids))
    if draw(st.booleans()):
        keys = draw(st.permutations(keys))
    if keys and draw(st.booleans()):
        del keys[draw(st.integers(0, len(keys) - 1))]
    if draw(st.booleans()):
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(("ghost", "x", *NAMES))))
    mapping = {key: 0.5 for key in keys}
    return draw(st.sampled_from([list, tuple]))(ids), mapping


def _message(check, *args):
    try:
        check(*args)
    except ux.KeyMismatchError as exc:
        return str(exc)
    return None


@given(ids_and_mappings())
def test_keyed_and_require_same_keys_agree_with_the_length_and_set_rule(case):
    ids, mapping = case
    assert keyed(ids, mapping) is reference_keyed(ids, mapping)
    assert _message(require_same_keys, ids, mapping, "bids") == _message(
        reference_require_same_keys, ids, mapping, "bids"
    )


@pytest.mark.parametrize(
    "ids, mapping, expected",
    [
        (("view", "click"), {"view": 0.0, "click": 1.0}, None),
        (("view", "click"), {"click": 1.0, "view": 0.0}, None),
        (["view", "click"], {"click": 1.0, "view": 0.0}, None),
        (("view", "click", "click"), {"view": 0.0, "click": 1.0}, "bids: event ids repeat in the event set: ['click']"),
        (("view", "click"), {"view": 0.0}, "bids not keyed to the event set: missing ['click']"),
        (("view",), {"view": 0.0, "z": 1.0, "y": 1.0}, "bids not keyed to the event set: unknown ['y', 'z']"),
        (("view", "click"), {"view": 0.0, "ghost": 1.0}, "bids not keyed to the event set: missing ['click'], unknown ['ghost']"),
    ],
)
def test_require_same_keys_messages(ids, mapping, expected):
    assert _message(require_same_keys, ids, mapping, "bids") == expected
    assert keyed(ids, mapping) is (expected is None)
