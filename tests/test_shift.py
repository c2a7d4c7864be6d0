"""Charge-shift construction, validation, and the feasibility condition."""

import math

import pytest
from hypothesis import given

import uxcharge as ux
from uxcharge.shift import (
    is_feasible,
    shift_identity,
    shift_proportional,
    shift_single_event,
    total_expected_charge,
    validate_plan,
)

from helpers import close12, cpc_offer, offers_with_charges, two_events

exact = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)


def expected_shift(plan, events):
    return sum(plan.shifted[e.event_id] * e.probability for e in events)


def test_total_expected_charge_examples():
    events = two_events(0.1)
    assert total_expected_charge(
        ux.ChargeSchedule({"view": 0.05, "click": 0.0}), events
    ) == exact(0.05)
    assert total_expected_charge(ux.ChargeSchedule({"view": 0.0, "click": 0.0}), events) == 0.0
    assert total_expected_charge(
        ux.ChargeSchedule({"view": 0.1, "click": 0.5}), two_events(0.2)
    ) == exact(0.2)


def test_total_expected_charge_rejects_key_mismatch():
    with pytest.raises(ux.KeyMismatchError):
        total_expected_charge(ux.ChargeSchedule({"view": 0.05}), two_events(0.1))


def test_is_feasible_examples():
    assert is_feasible(cpc_offer("x", 2.0, 0.1), ux.ChargeSchedule({"view": 0.05, "click": 0.0}))
    assert not is_feasible(
        cpc_offer("x", 1.0, 0.1), ux.ChargeSchedule({"view": 0.5, "click": 0.0})
    )
    assert is_feasible(cpc_offer("x", 0.0, 0.1), ux.ChargeSchedule({"view": 0.0, "click": 0.0}))


def test_shift_identity_keeps_charges_in_place():
    plan = shift_identity(ux.ChargeSchedule({"view": 0.05, "click": 0.1}))
    assert plan.shifted == {"view": 0.05, "click": 0.1}
    assert plan.strategy == "identity"
    zeros = shift_identity(ux.ChargeSchedule({"view": 0.0, "click": 0.0}))
    assert zeros.shifted == {"view": 0.0, "click": 0.0}


def test_shift_single_event_reproduces_per_click_surcharge():
    events = two_events(0.1)
    plan = shift_single_event(ux.ChargeSchedule({"view": 0.05, "click": 0.0}), events, "click")
    assert plan.shifted["view"] == 0.0
    assert plan.shifted["click"] == exact(0.5)  # v / p


def test_shift_single_event_reproduces_combined_click_surcharge():
    events = two_events(0.2)
    plan = shift_single_event(ux.ChargeSchedule({"view": 0.1, "click": 0.5}), events, "click")
    assert plan.shifted["click"] == exact(1.0)  # c + v / p


def test_shift_single_event_onto_already_charged_event():
    events = two_events(0.5)
    plan = shift_single_event(ux.ChargeSchedule({"view": 0.3, "click": 0.0}), events, "view")
    assert plan.shifted == {"view": exact(0.3), "click": 0.0}


def test_shift_single_event_rejects_zero_probability_target():
    events = two_events(0.0)
    with pytest.raises(ValueError, match="zero"):
        shift_single_event(ux.ChargeSchedule({"view": 0.1, "click": 0.0}), events, "click")


def test_shift_single_event_rejects_unknown_target():
    with pytest.raises(ux.KeyMismatchError):
        shift_single_event(
            ux.ChargeSchedule({"view": 0.1, "click": 0.0}), two_events(0.1), "ghost"
        )


def test_shift_proportional_single_chargeable_matches_single_event():
    offer = cpc_offer("x", 2.0, 0.1)
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.0})
    plan = shift_proportional(charges, offer)
    assert plan.shifted["click"] == exact(0.5)
    assert plan.shifted["view"] == 0.0


def test_shift_proportional_zero_charges_give_zero_plan():
    offer = cpc_offer("x", 2.0, 0.1)
    plan = shift_proportional(ux.ChargeSchedule({"view": 0.0, "click": 0.0}), offer)
    assert plan.shifted == {"view": 0.0, "click": 0.0}


def test_shift_proportional_equal_weights_share_equally():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.5),
    )
    # equal expected bid per event: 0.2 * 1.0 == 0.4 * 0.5
    offer = ux.Offer("x", ux.PriceType.HYBRID, events, {"view": 0.2, "click": 0.4})
    charges = ux.ChargeSchedule({"view": 0.1, "click": 0.1})
    plan = shift_proportional(charges, offer)
    assert close12(plan.shifted["view"] * 1.0, plan.shifted["click"] * 0.5)
    assert close12(expected_shift(plan, events), total_expected_charge(charges, events))


def test_shift_proportional_without_a_bid_event_keeps_only_a_zero_charge():
    # no event has b * p > 0: only the zero plan, and only for a zero charge
    offer = ux.Offer("x", ux.PriceType.HYBRID, two_events(0.1), {"view": 0.0, "click": 0.0})
    zero = ux.ChargeSchedule({"view": 0.0, "click": 0.0})
    assert shift_proportional(zero, offer).shifted == {"view": 0.0, "click": 0.0}
    assert ux.build_plan("proportional", offer, zero) == shift_proportional(zero, offer)
    charges = ux.ChargeSchedule({"view": 0.1, "click": 0.0})
    message = "no event carries a positive expected bid to take expected charge 0.1"
    for call in (lambda: shift_proportional(charges, offer), lambda: ux.build_plan("proportional", offer, charges)):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_validate_plan_accepts_constructed_plans():
    offer = cpc_offer("x", 2.0, 0.1)
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.0})
    plan = shift_single_event(charges, offer.events, "click")
    assert validate_plan(plan, charges, offer) == []


def test_validate_plan_flags_broken_identity():
    offer = cpc_offer("x", 2.0, 0.1)
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.0})
    bad = ux.ShiftPlan({"view": 0.0, "click": 0.4}, "single:click")
    violations = validate_plan(bad, charges, offer)
    assert len(violations) == 1
    assert "expected shifted charge" in violations[0]


def test_validate_plan_flags_an_infinite_shift():
    offer = cpc_offer("x", 2.0, 0.1)
    charges = ux.ChargeSchedule({"view": 0.1, "click": 0.0})
    plan = ux.ShiftPlan({"view": 0.0, "click": math.inf}, "x")
    violations = validate_plan(plan, charges, offer)
    assert violations == ["expected shifted charge inf != expected charge 0.1"]


def test_validate_plan_identity_always_satisfies_charge_identity():
    offer = cpc_offer("x", 2.0, 0.1)
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.02})
    assert validate_plan(shift_identity(charges), charges, offer) == []


def test_validate_plan_enforces_bid_cap_when_asked():
    offer = cpc_offer("x", 1.0, 0.1)
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.0})
    plan = shift_single_event(charges, offer.events, "click")  # d_click = 0.5 <= 1.0
    assert validate_plan(plan, charges, offer, nonnegative_bids=True) == []

    heavy = ux.ChargeSchedule({"view": 0.11, "click": 0.0})  # infeasible: 0.11 > 0.10
    plan = shift_single_event(heavy, offer.events, "click")  # d_click = 1.1 > 1.0
    violations = validate_plan(plan, heavy, offer, nonnegative_bids=True)
    assert any("exceeds bid" in v for v in violations)


@given(offers_with_charges())
def test_every_strategy_preserves_expected_charge(offer_charges):
    offer, charges = offer_charges
    total = total_expected_charge(charges, offer.events)

    plans = [shift_identity(charges)]
    positive = [e.event_id for e in offer.events if e.probability > 0.0]
    if positive:
        plans.append(shift_single_event(charges, offer.events, positive[-1]))
    try:
        plans.append(shift_proportional(charges, offer))
    except ValueError:
        assert not is_feasible(offer, charges)

    for plan in plans:
        assert close12(expected_shift(plan, offer.events), total)


@given(offers_with_charges(feasible=True))
def test_feasible_instances_admit_capped_plans(offer_charges):
    offer, charges = offer_charges
    assert is_feasible(offer, charges)
    plan = shift_proportional(charges, offer)
    assert validate_plan(plan, charges, offer, nonnegative_bids=True) == []


@given(offers_with_charges(feasible=False))
def test_infeasible_instances_reject_every_strategy(offer_charges):
    offer, charges = offer_charges
    assert not is_feasible(offer, charges)

    plans = [shift_identity(charges)]
    positive = [e.event_id for e in offer.events if e.probability > 0.0]
    if positive:
        plans.append(shift_single_event(charges, offer.events, positive[0]))
    plans.append(shift_proportional(charges, offer))  # the offer value is positive

    for plan in plans:
        assert validate_plan(plan, charges, offer, nonnegative_bids=True) != []


@given(offers_with_charges())
def test_shift_proportional_keeps_the_identity_or_refuses_an_infeasible_offer(offer_charges):
    offer, charges = offer_charges
    try:
        plan = shift_proportional(charges, offer)
    except ValueError:
        assert not is_feasible(offer, charges)
    else:
        assert validate_plan(plan, charges, offer) == []
