"""Settlement rules: the general charge and its five classic specializations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.model import brief
from uxcharge.settle import ClassicRule, settle_classic, settle_general

from helpers import close12, money, open_unit, two_events, unit

exact = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)


def plan(view: float, click: float) -> ux.ShiftPlan:
    return ux.ShiftPlan({"view": view, "click": click}, "test")


def test_settle_general_itemizes_charges():
    settlement = settle_general(
        {"view": 0.1, "click": 0.9}, plan(0.05, 0.1), {"view": 1, "click": 1}, ad_id="x"
    )
    assert settlement.line_items["view"] == exact(0.15)
    assert settlement.line_items["click"] == exact(1.0)
    assert settlement.total == exact(1.15)
    assert settlement.total == exact(sum(settlement.line_items.values()))


def test_settle_general_nothing_happened():
    settlement = settle_general(
        {"view": 0.4, "click": 2.0}, plan(0.1, 0.7), {"view": 0, "click": 0}
    )
    assert settlement.total == 0.0
    assert all(item == 0.0 for item in settlement.line_items.values())


def test_settle_general_view_only_outcome():
    settlement = settle_general(
        {"view": 0.1, "click": 0.9}, plan(0.0, 0.5), {"view": 1, "click": 0}
    )
    assert settlement.total == exact(0.1)


def test_settle_general_rejects_key_mismatch():
    with pytest.raises(ux.KeyMismatchError):
        settle_general({"view": 0.1}, plan(0.0, 0.5), {"view": 1})


def test_settle_general_rejects_non_binary_indicator():
    with pytest.raises(ValueError, match="0 or 1"):
        settle_general(
            {"view": 0.1, "click": 0.9}, plan(0.0, 0.5), {"view": 1, "click": 2}
        )


def test_classic_cpc_view_charges_on_click_only():
    assert settle_classic(ClassicRule.CPC_VIEW, r=1.0, v=0.05, p=0.1, clicked=True) == exact(1.5)
    assert settle_classic(ClassicRule.CPC_VIEW, r=1.0, v=0.05, p=0.1, clicked=False) == 0.0


def test_classic_cpm_both_charges_at_win_time():
    charge = settle_classic(ClassicRule.CPM_BOTH, r=0.8, v=0.1, c=0.5, p=0.2)
    assert charge == exact(1.0)
    # click outcome does not change the realized CPM charge
    assert charge == settle_classic(
        ClassicRule.CPM_BOTH, r=0.8, v=0.1, c=0.5, p=0.2, clicked=True
    )


def test_classic_cpm_view_ignores_click_probability():
    assert settle_classic(ClassicRule.CPM_VIEW, r=0.5, v=0.3) == exact(0.8)


def test_classic_cpm_click_uses_expected_click_cost():
    assert settle_classic(ClassicRule.CPM_CLICK, r=0.8, c=2.0, p=0.1) == exact(1.0)


def test_classic_cpc_both_combined_charge():
    assert settle_classic(
        ClassicRule.CPC_BOTH, r=1.0, v=0.05, c=0.5, p=0.1, clicked=True
    ) == exact(2.0)


def test_classic_per_click_rules_need_positive_probability():
    for rule in (ClassicRule.CPC_VIEW, ClassicRule.CPC_BOTH):
        with pytest.raises(ValueError, match="positive click probability"):
            settle_classic(rule, r=1.0, v=0.05, p=0.0, clicked=True)
        with pytest.raises(ValueError):
            settle_classic(rule, r=1.0, v=0.05, clicked=True)


@given(b=money, p=open_unit, v=unit, c=unit, theta=unit, clicked=st.booleans())
def test_general_settlement_matches_every_classic_rule(b, p, v, c, theta, clicked):
    """One auction outcome, settled through both routes, for all five rules."""
    events = two_events(p)
    view_bid = {"view": b, "click": 0.0}
    click_bid = {"view": 0.0, "click": b}
    e = {"view": 1, "click": 1 if clicked else 0}

    cases = [
        (ClassicRule.CPC_VIEW, click_bid, {"view": v, "click": 0.0}, "click", v, 0.0),
        (ClassicRule.CPM_VIEW, view_bid, {"view": v, "click": 0.0}, "view", v, 0.0),
        (ClassicRule.CPM_CLICK, view_bid, {"view": 0.0, "click": c}, "view", 0.0, c),
        (ClassicRule.CPC_BOTH, click_bid, {"view": v, "click": c}, "click", v, c),
        (ClassicRule.CPM_BOTH, view_bid, {"view": v, "click": c}, "view", v, c),
    ]
    for rule, bids, charge_map, target, rule_v, rule_c in cases:
        offer = ux.Offer("x", ux.PriceType.HYBRID, events, bids)
        shift = ux.shift_single_event(ux.ChargeSchedule(charge_map), events, target)
        adjusted = ux.adjust_general(offer, shift)
        prices = {eid: theta * a for eid, a in adjusted.adjusted.items()}
        general_total = settle_general(prices, shift, e).total

        # classic r is quoted per click for CPC rules, per view for CPM rules
        classic_r = prices["click"] if target == "click" else prices["view"]
        classic_total = settle_classic(
            rule, r=classic_r, v=rule_v, c=rule_c, p=p, clicked=clicked
        )
        assert close12(general_total, classic_total), rule


@given(
    r=st.tuples(money, money),
    d=st.tuples(money, money),
    p=open_unit,
)
def test_total_charge_is_monotone_in_realized_events(r, d, p):
    prices = {"view": r[0], "click": r[1]}
    shift = plan(d[0], d[1])
    outcomes = [
        {"view": 0, "click": 0},
        {"view": 1, "click": 0},
        {"view": 1, "click": 1},
    ]
    totals = [settle_general(prices, shift, e).total for e in outcomes]
    assert totals[0] <= totals[1] <= totals[2]


def test_second_price_full_click_charge_bounded_by_bid():
    """The winner's click-time charge never exceeds the per-click bid."""
    b, p, v = 2.0, 0.1, 0.05
    offer = ux.Offer("x", ux.PriceType.CPC, two_events(p), {"view": 0.0, "click": b})
    charges = ux.ChargeSchedule({"view": v, "click": 0.0})
    shift = ux.shift_single_event(charges, offer.events, "click")
    adjusted = ux.adjust_general(offer, shift)

    for runner_up in (0.0, 0.05, 0.10, 0.149999):
        competitor = ux.AdjustedOffer(
            "y", (ux.EventSpec("view", ux.EventKind.VIEW, 1.0),), {"view": runner_up}, runner_up
        )
        outcome = ux.run_second_price([adjusted, competitor])
        award = outcome.winners[0]
        assert award.ad_id == "x"
        full_click_charge = award.prices["click"] + shift.shifted["click"]
        assert full_click_charge <= b + 1e-12

    first = ux.run_first_price([adjusted]).winners[0]
    assert first.prices["click"] + shift.shifted["click"] == exact(b)


@pytest.mark.parametrize("rule", list(ClassicRule))
@pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, math.inf, "0.1", True, [0.1], 10**400])
def test_classic_rules_reject_a_click_probability_outside_zero_to_one(rule, p):
    with pytest.raises(ValueError) as excinfo:
        settle_classic(rule, r=1.0, v=0.05, c=0.5, p=p, clicked=True)
    assert str(excinfo.value) == f"{rule.value} settlement: click probability must be a number in [0, 1], got {brief(p)}"


@pytest.mark.parametrize("rule", list(ClassicRule))
def test_classic_rules_take_a_click_probability_of_zero_to_one(rule):
    for p in (0.5, 1, 1.0, Fraction(1, 2)):
        assert math.isfinite(settle_classic(rule, r=1.0, v=0.05, c=0.5, p=p, clicked=True))
    if rule in (ClassicRule.CPC_VIEW, ClassicRule.CPC_BOTH):  # per-click rules keep their p > 0 rule
        with pytest.raises(ValueError, match="positive click probability"):
            settle_classic(rule, r=1.0, v=0.05, c=0.5, p=0, clicked=True)
    else:
        assert settle_classic(rule, r=1.0, v=0.05, c=0.5, p=0.0) == settle_classic(rule, r=1.0, v=0.05, c=0.0, p=1.0)
