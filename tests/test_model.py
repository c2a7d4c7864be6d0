"""Core type validation and serialization round-trips."""

from hypothesis import given

import uxcharge as ux
from uxcharge.model import charges_from_dict, charges_to_dict, offer_from_dict, offer_to_dict

from helpers import cpc_offer, offers, two_events


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


@given(offers())
def test_charges_round_trip_through_dict(offer):
    schedule = ux.ChargeSchedule({e.event_id: e.probability for e in offer.events})
    assert charges_from_dict(charges_to_dict(schedule)) == schedule


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


def test_charge_schedule_aligns_to_event_set():
    schedule = ux.ChargeSchedule({"view": 0.05, "other": 1.0})
    aligned = schedule.for_events(two_events(0.1))
    assert aligned == {"view": 0.05, "click": 0.0}
