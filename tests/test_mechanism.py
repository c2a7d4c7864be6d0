"""Mechanism properties of the whole pipeline on seeded markets.

Each market has two to five ads over their own view, click and, for some, a
conversion event, with user-experience charges on the view and the click.
Without ctr rows every slot values an ad at its declared probabilities, so
each ad's adjusted value is its offer value minus its expected charge, under
every shift strategy. The properties:

* at k = 1 under second pricing, no bid deviation raises an ad's expected
  utility (its true offer value minus its expected payment if it wins, 0 if
  it loses) by more than 1e-9;
* at k = 1..3, under both pricing rules, each winner's expected payment is
  at most its offer value;
* each winner's expected payment less ``price_factor`` times its expected
  adjusted value is its expected charge;
* with every ad's ctr row equal to its declared click probability in each of
  k = 1..3 slots, so a slot values an ad as no row would, the ranking and the
  winners are the same under every strategy, and the ranking values and the
  winners' expected payments agree to 1e-9.

Truthfulness is not asserted for k >= 2: the greedy slot-by-slot rule prices
like the generalized second-price auction, where deviations can pay.
"""

import random

import pytest

import uxcharge as ux
from uxcharge.model import PAID_KIND, approx_eq, fold_expected
from uxcharge.sim import ScenarioConfig, run_scenario

STRATEGIES = ["identity", "proportional", "single:click"]
TOL = 1e-9


def random_bids(rng: random.Random, price_type: ux.PriceType, events) -> dict:
    paid = PAID_KIND[price_type]
    return {
        e.event_id: round(rng.uniform(0.0, 3.0), 3) if paid in (None, e.kind) else 0.0
        for e in events
    }


def random_market(rng: random.Random) -> tuple[tuple[ux.Offer, ...], ux.ChargeSchedule]:
    offers = []
    for i in range(rng.randint(2, 5)):
        p_click = round(rng.uniform(0.02, 1.0), 3)
        events = [ux.EventSpec("view", ux.EventKind.VIEW, 1.0), ux.EventSpec("click", ux.EventKind.CLICK, p_click)]
        if rng.random() < 0.4:
            events.append(ux.EventSpec("conv", ux.EventKind.CONVERSION, round(rng.uniform(0.0, p_click), 3)))
        price_type = rng.choice(list(ux.PriceType))
        offers.append(ux.Offer(f"ad{i}", price_type, tuple(events), random_bids(rng, price_type, events)))
    charges = {"view": round(rng.uniform(0.0, 0.3), 3), "click": round(rng.uniform(0.0, 1.0), 3)}
    return tuple(offers), ux.ChargeSchedule(charges)


def value(offer: ux.Offer) -> float:
    return fold_expected(offer.bids, offer.events)


def expected_charge(offer: ux.Offer, charges: ux.ChargeSchedule) -> float:
    return fold_expected({e.event_id: charges.charges.get(e.event_id, 0.0) for e in offer.events}, offer.events)


def winners(config: ScenarioConfig) -> list[dict]:
    return [record for record in run_scenario(config)["ads"] if record["slot"] is not None]


def utility(config: ScenarioConfig, ad_id: str, true_value: float) -> float:
    won = [record for record in winners(config) if record["ad_id"] == ad_id]
    return true_value - won[0]["expected_payment"] if won else 0.0


def deviations(rng: random.Random, offer: ux.Offer, others: list[ux.Offer], charges: ux.ChargeSchedule) -> list[dict]:
    """Scaled bids, bids scaled to tie the best competitor's adjusted value, and random bids."""
    own = value(offer)
    scales = [0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0]
    if own > 0.0 and others:
        best = max(value(o) - expected_charge(o, charges) for o in others)
        tie = (best + expected_charge(offer, charges)) / own
        scales += [s for s in (tie * (1 - 1e-9), tie, tie * (1 + 1e-9)) if s >= 0.0]
    scaled = [{eid: s * b for eid, b in offer.bids.items()} for s in scales]
    return scaled + [random_bids(rng, offer.price_type, offer.events) for _ in range(2)]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_no_bid_deviation_pays_at_one_slot_under_second_pricing(strategy):
    rng = random.Random(f"deviation {strategy}")
    checked = 0
    for _ in range(60):
        offers, charges = random_market(rng)
        base = ScenarioConfig(offers, charges, "second", strategy, ux.SlotModel(1), trials=1)
        for i, offer in enumerate(offers):
            truthful = utility(base, offer.ad_id, value(offer))
            others = [o for o in offers if o is not offer]
            for bids in deviations(rng, offer, others, charges):
                lied = offers[:i] + (ux.Offer(offer.ad_id, offer.price_type, offer.events, bids),) + offers[i + 1:]
                deviated = utility(ScenarioConfig(lied, charges, "second", strategy, ux.SlotModel(1), trials=1), offer.ad_id, value(offer))
                assert deviated <= truthful + TOL, (offers, charges, offer.ad_id, bids)
                checked += 1
    assert checked > 1500


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_winner_pays_at_most_its_value_and_its_charge_on_top_of_the_scaled_adjusted_value(strategy):
    rng = random.Random(f"payment {strategy}")
    checked = 0
    for _ in range(200):
        offers, charges = random_market(rng)
        values = {offer.ad_id: value(offer) for offer in offers}
        for k in (1, 2, 3):
            for rule in ("first", "second"):
                for record in winners(ScenarioConfig(offers, charges, rule, strategy, ux.SlotModel(k), trials=1)):
                    paid, offered = record["expected_payment"], values[record["ad_id"]]
                    assert paid <= offered or approx_eq(paid, offered), record
                    scaled = record["price_factor"] * record["expected_adjusted_value"]
                    assert approx_eq(paid - scaled, record["total_expected_charge"]), record
                    checked += 1
    assert checked > 2000


def click_probability(offer: ux.Offer) -> float:
    return next(e.probability for e in offer.events if e.kind is ux.EventKind.CLICK)


@pytest.mark.parametrize("rule", ["first", "second"])
def test_strategies_agree_when_each_ctr_row_is_the_declared_click_probability(rule):
    rng = random.Random(f"invariance {rule}")
    checked = 0
    for _ in range(150):
        offers, charges = random_market(rng)
        # a tie, or an adjusted value at 0, may round either way under each strategy
        values = sorted([0.0, *(value(o) - expected_charge(o, charges) for o in offers)])
        if any(approx_eq(a, b) for a, b in zip(values, values[1:])):
            continue
        for k in (1, 2, 3):
            slots = ux.SlotModel(k, {o.ad_id: (click_probability(o),) * k for o in offers})
            reports = [run_scenario(ScenarioConfig(offers, charges, rule, s, slots, trials=1)) for s in STRATEGIES]
            base = reports[0]
            for report in reports[1:]:
                assert [a for a, _ in report["ranking"]] == [a for a, _ in base["ranking"]]
                assert report["winners"] == base["winners"]
                for (_, v), (_, w) in zip(report["ranking"], base["ranking"]):
                    assert approx_eq(v, w), (offers, charges, k)
                for record, expected in zip(report["ads"], base["ads"]):
                    if record["slot"] is not None:
                        assert approx_eq(record["expected_payment"], expected["expected_payment"]), (offers, charges, k)
            checked += 1
    assert checked > 300
