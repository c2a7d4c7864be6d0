"""Acceptance suite: the six release criteria, one pass/fail line each.

Every criterion uses fixed seeds so the suite is deterministic. Agreement
"to 1e-12 relative" is checked via close12 (relative above unit magnitude,
absolute floor 1e-12 below), which catches formula errors without tripping
on last-ulp rounding.
"""

import json
import time

import numpy as np
import pytest

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
from uxcharge.auction import run_first_price, run_second_price
from uxcharge.cli import main
from uxcharge.settle import ClassicRule, settle_classic, settle_general
from uxcharge.shift import (
    is_feasible,
    shift_identity,
    shift_proportional,
    shift_single_event,
    validate_plan,
)
from uxcharge.sim import (
    OutcomeModel,
    enumerate_expected_payment,
    expected_payment,
    monte_carlo_payment,
)

from helpers import close12, sorted_expectation, two_events

GOLDEN_DIR = "tests/golden"


def report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")


def make_events(rng) -> tuple[ux.EventSpec, ...]:
    """Random valid event set: view, click, maybe conversion, maybe custom."""
    events = [ux.EventSpec("view", ux.EventKind.VIEW, 1.0)]
    p_click = rng.uniform(0.01, 1.0)
    events.append(ux.EventSpec("click", ux.EventKind.CLICK, p_click))
    if rng.random() < 0.5:
        events.append(ux.EventSpec("conv", ux.EventKind.CONVERSION, rng.uniform(0, p_click)))
    if rng.random() < 0.3:
        events.append(ux.EventSpec("extra", ux.EventKind.CUSTOM, rng.uniform(0, 1)))
    return tuple(events)


def make_feasible_ad(rng, ad_id: str):
    """Offer plus charges whose expected total sits strictly inside the value."""
    events = make_events(rng)
    bids = {e.event_id: rng.uniform(0.0, 1.0) for e in events}
    bids["click"] = rng.uniform(0.1, 1.0)  # keep the offer worth something
    offer = ux.Offer(ad_id, ux.PriceType.HYBRID, events, bids)
    offer_value = expected_value(bids, events)

    raw = {e.event_id: rng.uniform(0.0, 1.0) for e in events}
    raw_total = sorted_expectation(raw, events)
    scale = rng.uniform(0.0, 0.95) * offer_value / raw_total if raw_total > 0 else 0.0
    charges = ux.ChargeSchedule({eid: raw[eid] * scale for eid in raw})
    return offer, charges


def award_of(ad_id: str, outcome: ux.AuctionOutcome) -> ux.SlotAward | None:
    """The slot award ``ad_id`` won in ``outcome``, if any."""
    return next((award for award in outcome.winners if award.ad_id == ad_id), None)


def strategy_plans(offer: ux.Offer, charges: ux.ChargeSchedule):
    """The three strategies applied to one ad: identity, single-event, proportional."""
    target = max(
        (e for e in offer.events if e.probability > 0.0),
        key=lambda e: offer.bids[e.event_id] * e.probability,
    ).event_id
    chargeable = {e.event_id for e in offer.events if offer.bids[e.event_id] * e.probability > 0.0}
    plans = {
        "identity": shift_identity(charges),
        "single": shift_single_event(charges, offer.events, target),
    }
    if chargeable:
        plans["proportional"] = shift_proportional(charges, offer, chargeable)
    else:
        plans["proportional"] = ux.ShiftPlan(
            {eid: 0.0 for eid in offer.event_ids}, "proportional"
        )
    return plans


def test_criterion_1_specialization_suite():
    """General method + general settlement reproduce all five classic rules."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    failures = 0

    for _ in range(1000):
        b = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.001, 1.0)
        v = rng.uniform(0.0, 1.0)
        c = rng.uniform(0.0, 1.0)
        theta_draw = rng.uniform(0.0, 1.0)
        events = two_events(p)
        view_bid = {"view": b, "click": 0.0}
        click_bid = {"view": 0.0, "click": b}

        cases = [
            (ClassicRule.CPC_VIEW, click_bid, {"view": v, "click": 0.0}, "click",
             adjust_cpc_view(b, p, v), v, 0.0),
            (ClassicRule.CPM_VIEW, view_bid, {"view": v, "click": 0.0}, "view",
             adjust_cpm_view(b, v), v, 0.0),
            (ClassicRule.CPM_CLICK, view_bid, {"view": 0.0, "click": c}, "view",
             adjust_cpm_click(b, p, c), 0.0, c),
            (ClassicRule.CPC_BOTH, click_bid, {"view": v, "click": c}, "click",
             adjust_cpc_both(b, p, v, c), v, c),
            (ClassicRule.CPM_BOTH, view_bid, {"view": v, "click": c}, "view",
             adjust_cpm_both(b, p, v, c), v, c),
        ]
        for rule, bids, charge_map, target, closed_value, rule_v, rule_c in cases:
            offer = ux.Offer("x", ux.PriceType.HYBRID, events, bids)
            plan = shift_single_event(ux.ChargeSchedule(charge_map), events, target)
            adjusted = adjust_general(offer, plan)
            if not close12(adjusted.expected_value, closed_value):
                failures += 1
                continue
            for theta in (1.0, theta_draw):
                prices = {eid: theta * a for eid, a in adjusted.adjusted.items()}
                classic_r = theta * (closed_value / p if target == "click" else closed_value)
                for clicked in (False, True):
                    realized = {"view": 1, "click": 1 if clicked else 0}
                    general = settle_general(prices, plan, realized).total
                    classic = settle_classic(
                        rule, r=classic_r, v=rule_v, c=rule_c, p=p, clicked=clicked
                    )
                    if not close12(general, classic):
                        failures += 1

    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 5.0
    report(1, ok, f"specialization suite, 1000 instances x 5 rules ({elapsed:.2f}s)")
    assert failures == 0
    assert elapsed < 5.0, f"specialization suite took {elapsed:.2f}s"


def test_criterion_2_charge_shift_invariance():
    """Value, payment, and ranking are identical across shift strategies."""
    rng = np.random.default_rng(202)
    failures = []

    for instance in range(1000):
        ads = [make_feasible_ad(rng, f"ad{j}") for j in range(3)]
        adjusted_by_strategy = {}
        plans_by_strategy = {}
        for name in ("identity", "single", "proportional"):
            adjusted_list = []
            plan_map = {}
            for offer, charges in ads:
                plan = strategy_plans(offer, charges)[name]
                plan_map[offer.ad_id] = plan
                adjusted_list.append(adjust_general(offer, plan))
            adjusted_by_strategy[name] = adjusted_list
            plans_by_strategy[name] = plan_map

        # expected adjusted value per ad agrees across strategies
        for j in range(3):
            values = [adjusted_by_strategy[s][j].expected_value for s in adjusted_by_strategy]
            if not (close12(values[0], values[1]) and close12(values[1], values[2])):
                failures.append((instance, "value"))

        rankings = {
            s: [ad for ad, _ in run_first_price(offers).ranking]
            for s, offers in adjusted_by_strategy.items()
        }
        if not (rankings["identity"] == rankings["single"] == rankings["proportional"]):
            failures.append((instance, "ranking"))

        payments = {}
        for s, offers in adjusted_by_strategy.items():
            outcome = run_second_price(offers)
            for award in outcome.winners:
                offer = next(o for o, _ in ads if o.ad_id == award.ad_id)
                plan = plans_by_strategy[s][award.ad_id]
                payments.setdefault(award.ad_id, []).append(
                    expected_payment(dict(award.prices), plan.shifted, offer.events)
                )
        for ad_id, values in payments.items():
            if len(values) != 3 or not (
                close12(values[0], values[1]) and close12(values[1], values[2])
            ):
                failures.append((instance, f"payment {ad_id}"))

    ok = not failures
    report(2, ok, "charge-shift invariance, 1000 instances x 3 strategies")
    assert not failures, failures[:5]


def test_criterion_3_full_click_charge_bound():
    """Second price: click-time charge <= per-click bid; first price: equal."""
    rng = np.random.default_rng(303)
    failures = []

    for instance in range(1000):
        b = rng.uniform(0.05, 1.0)
        p = rng.uniform(0.01, 1.0)
        v = rng.uniform(0.0, 1.0) * b * p  # feasible: v <= b * p
        offer = ux.Offer("x", ux.PriceType.CPC, two_events(p), {"view": 0.0, "click": b})
        plan = shift_single_event(
            ux.ChargeSchedule({"view": v, "click": 0.0}), offer.events, "click"
        )
        adjusted = adjust_general(offer, plan)
        competitor_value = rng.uniform(0.0, 1.0) * max(adjusted.expected_value, 0.0)
        competitor = ux.AdjustedOffer(
            "y",
            (ux.EventSpec("view", ux.EventKind.VIEW, 1.0),),
            {"view": competitor_value},
            competitor_value,
        )

        second = award_of("x", run_second_price([adjusted, competitor]))
        first = award_of("x", run_first_price([adjusted, competitor]))
        if second is None or first is None:
            failures.append((instance, "winner"))
            continue
        full_second = second.prices["click"] + plan.shifted["click"]
        full_first = first.prices["click"] + plan.shifted["click"]
        if not full_second <= b + 1e-12:
            failures.append((instance, "second-price bound"))
        if not close12(full_first, b):
            failures.append((instance, "first-price equality"))

    ok = not failures
    report(3, ok, "full click charge bounded by the per-click bid, 1000 instances")
    assert not failures, failures[:5]


def test_criterion_4_feasibility_theorem():
    """A bid-capped plan exists exactly when the charge fits the offer value."""
    rng = np.random.default_rng(404)
    checked_feasible = checked_infeasible = 0
    failures = []

    for instance in range(1000):
        events = make_events(rng)
        bids = {e.event_id: rng.uniform(0.0, 1.0) for e in events}
        bids["click"] = rng.uniform(0.1, 1.0)
        offer = ux.Offer("ad", ux.PriceType.HYBRID, events, bids)
        offer_value = expected_value(bids, events)

        raw = {e.event_id: rng.uniform(0.05, 1.0) for e in events}
        raw_total = sorted_expectation(raw, events)
        multiplier = rng.uniform(0.0, 0.98) if instance % 2 == 0 else rng.uniform(1.02, 2.0)
        scale = multiplier * offer_value / raw_total
        charges = ux.ChargeSchedule({eid: raw[eid] * scale for eid in raw})

        expected_feasible = multiplier <= 1.0
        if is_feasible(offer, charges) != expected_feasible:
            failures.append((instance, "is_feasible"))
            continue

        plans = strategy_plans(offer, charges)
        if expected_feasible:
            checked_feasible += 1
            if validate_plan(plans["proportional"], charges, offer, nonnegative_bids=True):
                failures.append((instance, "capped plan missing"))
        else:
            checked_infeasible += 1
            for name, plan in plans.items():
                if not validate_plan(plan, charges, offer, nonnegative_bids=True):
                    failures.append((instance, f"cap accepted for {name}"))

    ok = not failures and checked_feasible > 300 and checked_infeasible > 300
    report(4, ok, "feasibility theorem, 1000 instances spanning both sides")
    assert not failures, failures[:5]
    assert checked_feasible > 300 and checked_infeasible > 300


def test_criterion_5_oracle_agreement_and_monte_carlo():
    """Closed form == enumeration everywhere; Monte Carlo inside 3 stderr."""
    rng = np.random.default_rng(505)
    started = time.perf_counter()

    def random_payload(n_extra: int):
        events = list(two_events(rng.uniform(0.01, 1.0)))
        p_click = events[1].probability
        events.append(ux.EventSpec("conv", ux.EventKind.CONVERSION, rng.uniform(0, p_click)))
        for i in range(n_extra):
            events.append(ux.EventSpec(f"x{i}", ux.EventKind.CUSTOM, rng.uniform(0, 1)))
        events = tuple(events)
        prices = {e.event_id: rng.uniform(0.0, 2.0) for e in events}
        shifted = {e.event_id: rng.uniform(0.0, 2.0) for e in events}
        return events, prices, shifted

    oracle_failures = 0
    for case in range(200):
        events, prices, shifted = random_payload(n_extra=case % 6)
        closed = expected_payment(prices, shifted, events)
        for model in OutcomeModel:
            if not close12(enumerate_expected_payment(prices, shifted, events, model), closed):
                oracle_failures += 1

    # the 20-event ceiling stays exact
    events, prices, shifted = random_payload(n_extra=17)
    assert len(events) == 20
    closed = expected_payment(prices, shifted, events)
    for model in OutcomeModel:
        if not close12(enumerate_expected_payment(prices, shifted, events, model), closed):
            oracle_failures += 1

    mc_hits = 0
    for case in range(200):
        events, prices, shifted = random_payload(n_extra=case % 3)
        model = OutcomeModel.INDEPENDENT if case % 2 == 0 else OutcomeModel.FUNNEL
        oracle = enumerate_expected_payment(prices, shifted, events, model)
        mean, stderr = monte_carlo_payment(
            prices, shifted, events, model, trials=10**5, seed=case
        )
        if abs(mean - oracle) <= 3.0 * stderr or abs(mean - oracle) <= 1e-12:
            mc_hits += 1

    elapsed = time.perf_counter() - started
    ok = oracle_failures == 0 and mc_hits >= 198 and elapsed < 60.0
    report(
        5,
        ok,
        f"oracle agreement + Monte Carlo ({mc_hits}/200 within 3 stderr, {elapsed:.1f}s)",
    )
    assert oracle_failures == 0
    assert mc_hits >= 198, f"only {mc_hits}/200 Monte Carlo runs within 3 stderr"
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"


GOLDEN_RUNS = [
    (
        "cpc_view_charge",
        ["--strategy", "single:click", "--trials", "20000", "--seed", "42"],
    ),
    (
        "cpm_both_charges",
        ["--strategy", "single:view", "--trials", "20000", "--seed", "7", "--model", "funnel"],
    ),
    (
        "hybrid_three_event",
        ["--strategy", "proportional", "--trials", "20000", "--seed", "11"],
    ),
]


def test_criterion_6_golden_reports(tmp_path, capsys):
    """Canonical scenarios reproduce frozen reports byte for byte."""
    mismatches = []
    for name, flags in GOLDEN_RUNS:
        scenario = f"{GOLDEN_DIR}/{name}.json"
        frozen = f"{GOLDEN_DIR}/{name}.report.json"
        for attempt in ("a", "b"):
            out_path = tmp_path / f"{name}.{attempt}.json"
            code = main(["simulate", scenario, *flags, "-o", str(out_path)])
            assert code == 0
            with open(frozen, "rb") as handle:
                if out_path.read_bytes() != handle.read():
                    mismatches.append((name, attempt))
    capsys.readouterr()

    ok = not mismatches
    report(6, ok, "golden reports byte-identical for three canonical scenarios")
    assert not mismatches, mismatches


def test_golden_reports_contain_hand_computed_values():
    """Spot-check the frozen reports against independently derived numbers."""
    with open(f"{GOLDEN_DIR}/cpc_view_charge.report.json", encoding="utf-8") as handle:
        cpc = json.load(handle)
    winner = cpc["ads"][0]
    assert winner["prices"]["click"] == pytest.approx(1.0, rel=1e-12, abs=1e-12)
    assert winner["expected_payment"] == pytest.approx(0.15, rel=1e-12, abs=1e-12)

    with open(f"{GOLDEN_DIR}/cpm_both_charges.report.json", encoding="utf-8") as handle:
        cpm = json.load(handle)
    winner = next(ad for ad in cpm["ads"] if ad["slot"] == 1)
    # value 0.8 vs runner-up 0.5: price 0.5 per view, plus the shifted 0.2
    assert winner["prices"]["view"] == pytest.approx(0.5, rel=1e-12, abs=1e-12)
    assert winner["expected_payment"] == pytest.approx(0.7, rel=1e-12, abs=1e-12)
