"""Bid adjustment: scalar rules, the general method, and their agreement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.adjust import (
    adjust_cpc_both,
    adjust_cpc_view,
    adjust_cpm_both,
    adjust_cpm_click,
    adjust_cpm_view,
    adjust_general,
    expected_value,
)

from helpers import close12, cpc_offer, money, offers, open_unit, two_events, unit

exact = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "b, p, v, expected",
    [(2.0, 0.1, 0.05, 0.15), (1.0, 0.5, 0.0, 0.5), (1.0, 0.2, 0.3, -0.1)],
)
def test_adjust_cpc_view(b, p, v, expected):
    assert adjust_cpc_view(b, p, v) == exact(expected)


@pytest.mark.parametrize(
    "b, v, expected", [(0.8, 0.3, 0.5), (1.0, 0.0, 1.0), (0.2, 0.2, 0.0)]
)
def test_adjust_cpm_view(b, v, expected):
    assert adjust_cpm_view(b, v) == exact(expected)


@pytest.mark.parametrize(
    "b, p, c, expected", [(1.0, 0.1, 2.0, 0.8), (1.0, 0.0, 5.0, 1.0), (1.0, 0.5, 0.0, 1.0)]
)
def test_adjust_cpm_click(b, p, c, expected):
    assert adjust_cpm_click(b, p, c) == exact(expected)


@pytest.mark.parametrize(
    "b, p, v, c, expected",
    [(2.0, 0.1, 0.05, 0.5, 0.10), (2.0, 0.1, 0.05, 0.0, 0.15), (2.0, 0.1, 0.0, 0.0, 0.20)],
)
def test_adjust_cpc_both(b, p, v, c, expected):
    assert adjust_cpc_both(b, p, v, c) == exact(expected)


@pytest.mark.parametrize(
    "b, p, v, c, expected",
    [(1.0, 0.2, 0.1, 0.5, 0.8), (1.0, 0.2, 0.0, 0.0, 1.0), (1.0, 0.2, 0.1, 0.0, 0.9)],
)
def test_adjust_cpm_both(b, p, v, c, expected):
    assert adjust_cpm_both(b, p, v, c) == exact(expected)


def test_expected_value_examples():
    assert expected_value({"a": 0.2, "b": 1.0}, {"a": 1.0, "b": 0.1}) == exact(0.3)
    assert expected_value({"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 0.1}) == 0.0
    assert expected_value({"only": 0.7}, {"only": 1.0}) == 0.7


def test_expected_value_sums_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum (builtin sum() from
    # Python 3.12 on) would keep the 1.0 and return 1.0.
    bids = {"a": 1e16, "b": 1.0, "c": -1e16}
    assert expected_value(bids, {"a": 1.0, "b": 1.0, "c": 1.0}) == 0.0


def test_expected_value_rejects_key_mismatch():
    with pytest.raises(ux.KeyMismatchError):
        expected_value({"a": 1.0}, {"b": 1.0})


def test_adjust_general_example():
    offer = ux.Offer(
        "x", ux.PriceType.HYBRID, two_events(0.1), {"view": 0.2, "click": 1.0}
    )
    plan = ux.ShiftPlan({"view": 0.05, "click": 0.1}, "identity")
    adjusted = adjust_general(offer, plan)
    assert adjusted.adjusted["view"] == exact(0.15)
    assert adjusted.adjusted["click"] == exact(0.9)
    assert adjusted.expected_value == exact(0.24)


def test_adjust_general_identity_plan_of_zero_charges():
    offer = ux.Offer(
        "x", ux.PriceType.HYBRID, two_events(0.3), {"view": 0.4, "click": 2.0}
    )
    plan = ux.ShiftPlan({"view": 0.0, "click": 0.0}, "identity")
    adjusted = adjust_general(offer, plan)
    assert adjusted.adjusted == offer.bids
    assert adjusted.expected_value == exact(0.4 + 2.0 * 0.3)


def test_adjust_general_matches_cpc_view_specialization():
    offer = cpc_offer("x", 2.0, 0.1)
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.0})
    plan = ux.shift_single_event(charges, offer.events, "click")
    adjusted = adjust_general(offer, plan)
    assert adjusted.adjusted["view"] == 0.0
    assert adjusted.adjusted["click"] == exact(1.5)
    assert adjusted.expected_value == exact(adjust_cpc_view(2.0, 0.1, 0.05))


def test_adjust_general_rejects_mismatched_plan():
    offer = cpc_offer("x", 2.0, 0.1)
    plan = ux.ShiftPlan({"view": 0.0}, "identity")
    with pytest.raises(ux.KeyMismatchError):
        adjust_general(offer, plan)


@given(offers(), st.data())
def test_adjusted_bid_is_bid_minus_shift_exactly(offer, data):
    shifted = {eid: data.draw(money, label=eid) for eid in offer.event_ids}
    adjusted = adjust_general(offer, ux.ShiftPlan(shifted, "identity"))
    for eid in offer.event_ids:
        assert adjusted.adjusted[eid] == offer.bids[eid] - shifted[eid]


@given(offers(), st.data())
def test_adjustment_is_linear(offer, data):
    d1 = {eid: data.draw(money, label=f"d1-{eid}") for eid in offer.event_ids}
    d2 = {eid: data.draw(money, label=f"d2-{eid}") for eid in offer.event_ids}
    double = ux.Offer(
        offer.ad_id,
        offer.price_type,
        offer.events,
        {eid: 2.0 * offer.bids[eid] for eid in offer.event_ids},
    )
    combined = {eid: d1[eid] + d2[eid] for eid in offer.event_ids}
    lhs = adjust_general(offer, ux.ShiftPlan(d1, "identity"))
    rhs = adjust_general(offer, ux.ShiftPlan(d2, "identity"))
    whole = adjust_general(double, ux.ShiftPlan(combined, "identity"))
    for eid in offer.event_ids:
        assert close12(lhs.adjusted[eid] + rhs.adjusted[eid], whole.adjusted[eid])


@given(offers(), st.data())
def test_adjusted_value_drops_by_expected_shift(offer, data):
    shifted = {eid: data.draw(money, label=eid) for eid in offer.event_ids}
    probs = offer.probabilities
    adjusted = adjust_general(offer, ux.ShiftPlan(shifted, "identity"))
    drop = expected_value(shifted, probs)
    assert close12(adjusted.expected_value, expected_value(offer.bids, probs) - drop)


@given(b=money, p=open_unit, v=unit, c=unit)
def test_general_method_reproduces_all_scalar_rules(b, p, v, c):
    events = two_events(p)

    cpc = ux.Offer("x", ux.PriceType.CPC, events, {"view": 0.0, "click": b})
    cpm = ux.Offer("x", ux.PriceType.CPM, events, {"view": b, "click": 0.0})

    cases = [
        (cpc, {"view": v, "click": 0.0}, "click", adjust_cpc_view(b, p, v)),
        (cpm, {"view": v, "click": 0.0}, "view", adjust_cpm_view(b, v)),
        (cpm, {"view": 0.0, "click": c}, "view", adjust_cpm_click(b, p, c)),
        (cpc, {"view": v, "click": c}, "click", adjust_cpc_both(b, p, v, c)),
        (cpm, {"view": v, "click": c}, "view", adjust_cpm_both(b, p, v, c)),
    ]
    for offer, charge_map, target, closed_form in cases:
        plan = ux.shift_single_event(ux.ChargeSchedule(charge_map), events, target)
        adjusted = adjust_general(offer, plan)
        assert close12(adjusted.expected_value, closed_form)
