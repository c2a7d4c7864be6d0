"""Auction ranking, slot filling, and per-event price decomposition."""

import itertools
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.auction import SlotModel, run_first_price, run_second_price, value_at_slot

from helpers import close12, hexed, loop_auction, outcome_view, two_events

exact = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)

VIEW = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0),)


def view_only(ad_id: str, value: float) -> ux.AdjustedOffer:
    return ux.AdjustedOffer(ad_id, VIEW, {"view": value}, value)


def with_click(ad_id: str, a_click: float, p: float) -> ux.AdjustedOffer:
    events = two_events(p)
    return ux.AdjustedOffer(ad_id, events, {"view": 0.0, "click": a_click}, a_click * p)


@pytest.mark.parametrize("runner", [run_first_price, run_second_price])
@pytest.mark.parametrize("slots", [None, SlotModel(k=2)])
def test_ranking_is_best_first_with_ties_in_ad_id_order(runner, slots):
    values = {"a": 0.4, "b": 0.5, "c": 0.4, "d": 0.15, "e": 0.4}
    expected = (("b", 0.5), ("a", 0.4), ("c", 0.4), ("e", 0.4), ("d", 0.15))
    for perm in itertools.permutations(values):
        offers = [view_only(ad, values[ad]) for ad in perm]
        assert runner(offers, slots).ranking == expected


def test_first_price_single_cpm_ad():
    outcome = run_first_price([view_only("x", 0.5)])
    award = outcome.winners[0]
    assert award.slot == 1
    assert award.prices["view"] == 0.5
    assert award.price_factor == 1.0


def test_first_price_cpc_per_click_price():
    # per-view value 0.15 at p=0.1 means the click is priced at 1.5
    outcome = run_first_price([with_click("x", 1.5, 0.1)])
    assert outcome.winners[0].prices["click"] == exact(1.5)
    assert outcome.winners[0].value == exact(0.15)


def test_first_price_underfilled_slots():
    outcome = run_first_price([view_only("x", 0.5)], slots=SlotModel(k=2))
    assert len(outcome.winners) == 1
    assert outcome.winners[0].slot == 1


def test_second_price_two_cpm_ads():
    outcome = run_second_price([view_only("x", 0.5), view_only("y", 0.3)])
    award = outcome.winners[0]
    assert award.ad_id == "x"
    assert award.prices["view"] == exact(0.3)


def test_second_price_cpc_worked_example():
    # winner 0.15 expected, runner-up 0.10: factor 2/3, click priced at 1.0
    winner = with_click("x", 1.5, 0.1)
    runner_up = view_only("y", 0.10)
    outcome = run_second_price([winner, runner_up])
    award = outcome.winners[0]
    assert award.ad_id == "x"
    assert award.price_factor == exact(2.0 / 3.0)
    assert award.prices["click"] == exact(1.0)
    # full click charge with the per-view charge shifted onto the click
    assert award.prices["click"] + 0.5 <= 2.0 + 1e-12


def test_second_price_single_ad_pays_reserve_zero():
    outcome = run_second_price([with_click("x", 1.5, 0.1)])
    award = outcome.winners[0]
    assert award.price_factor == 0.0
    assert all(price == 0.0 for price in award.prices.values())


def test_second_price_reserve_floors_the_next_value():
    outcome = run_second_price([view_only("x", 0.5)], reserve=0.2)
    award = outcome.winners[0]
    assert award.price_factor == exact(0.4)
    assert award.prices["view"] == exact(0.2)


def test_reserve_excludes_low_value_offers():
    outcome = run_second_price([view_only("x", 0.5), view_only("y", 0.1)], reserve=0.2)
    assert [w.ad_id for w in outcome.winners] == ["x"]
    assert outcome.winners[0].prices["view"] == exact(0.2)


def test_negative_value_offers_never_rank():
    outcome = run_second_price([view_only("x", 0.5), view_only("y", -0.1)])
    assert all(ad != "y" for ad, _ in outcome.ranking)


def test_empty_auction_has_no_winners():
    outcome = run_second_price([])
    assert (outcome.ranking, outcome.winners) == ((), ())


@pytest.mark.parametrize("runner", [run_first_price, run_second_price])
@pytest.mark.parametrize("reserve", [-1.0, float("nan"), float("inf")])
def test_bad_reserve_is_rejected_by_the_auction(runner, reserve):
    with pytest.raises(ux.ScenarioError) as caught:
        runner([view_only("x", 0.5)], None, reserve)
    assert caught.value.issues == (f"reserve must be a finite number >= 0, got {reserve!r}",)


@pytest.mark.parametrize("runner", [run_first_price, run_second_price])
def test_an_ad_id_that_is_not_a_string_is_rejected_by_the_auction(runner):
    # the auction sorts by ad_id, so mixed types raised a bare TypeError
    with pytest.raises(ux.ScenarioError) as caught:
        runner([view_only(1, 0.5), view_only("b", 0.3), view_only(None, 0.1)])
    assert caught.value.issues == ("ad_id must be a string, got 1", "ad_id must be a string, got None")


def test_multislot_gsp_prices_cascade():
    offers = [view_only("a", 0.5), view_only("b", 0.3), view_only("c", 0.2)]
    outcome = run_second_price(offers, slots=SlotModel(k=2))
    first, second = outcome.winners
    assert (first.ad_id, second.ad_id) == ("a", "b")
    assert first.prices["view"] == exact(0.3)
    assert second.prices["view"] == exact(0.2)
    assert outcome.ranking == (("a", 0.5), ("b", 0.3), ("c", 0.2))


def test_multislot_slot_specific_click_probabilities():
    x = with_click("x", 2.0, 0.2)  # per-click value 2.0
    y = view_only("y", 0.25)
    slots = SlotModel(k=2, ctr={"x": (0.2, 0.1)})
    outcome = run_second_price([x, y], slots=slots)
    first, second = outcome.winners
    # slot 1: x at ctr 0.2 is worth 0.4; y (0.25) sets the price factor
    assert first.ad_id == "x"
    assert first.value == exact(0.4)
    assert first.price_factor == exact(0.625)
    assert first.prices["click"] == exact(1.25)
    # slot 2: y wins unopposed, pays the zero reserve
    assert second.ad_id == "y"
    assert second.price_factor == 0.0


def test_value_at_slot_overrides_click_probability_only():
    x = with_click("x", 2.0, 0.2)
    slots = SlotModel(k=2, ctr={"x": (0.2, 0.05)})
    assert value_at_slot(x, slots, 1) == exact(0.4)
    assert value_at_slot(x, slots, 2) == exact(0.1)
    assert value_at_slot(x, None, 1) == exact(0.4)  # no model: one slot, the declared probability


@pytest.mark.parametrize(
    "adjusted, wording",
    [
        ({"view": 0.0}, "missing ['click']"),
        ({"view": 0.0, "click": 2.0, "ghost": 1.0}, "unknown ['ghost']"),
    ],
)
def test_auction_rejects_adjusted_bids_not_keyed_to_the_events(adjusted, wording):
    broken = ux.AdjustedOffer("x", two_events(0.1), adjusted, 0.2)
    message = "offer 'x': adjusted bids not keyed to the event set: " + wording
    for run in (run_first_price, run_second_price):
        with pytest.raises(ux.KeyMismatchError) as excinfo:
            run([with_click("a", 1.0, 0.1), broken], SlotModel(k=2, ctr={"x": (0.1, 0.05)}))
        assert str(excinfo.value) == message
    with pytest.raises(ux.KeyMismatchError) as excinfo:
        value_at_slot(broken, None, 1)
    assert str(excinfo.value) == message


def test_slot_model_validates_shape_and_ranges():
    with pytest.raises(ValueError, match="slot count"):
        SlotModel(k=0)
    with pytest.raises(ValueError, match="entries"):
        SlotModel(k=2, ctr={"x": (0.1,)})
    with pytest.raises(ValueError, match="out of range"):
        SlotModel(k=1, ctr={"x": (1.5,)})
    with pytest.raises(ValueError, match="nonincreasing"):
        SlotModel(k=2, ctr={"x": (0.1, 0.2)})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "k, ctr, issue",
    [
        (2, {"a": (0.5, 0.4), "x": (0.5, NAN)}, "ctr out of range for 'x': nan"),
        (2, {"x": (NAN, 0.1)}, "ctr out of range for 'x': nan"),
        (3, {"x": (0.5, NAN, 0.1)}, "ctr out of range for 'x': nan"),
        (2, {"x": (0.5, -0.1)}, "ctr out of range for 'x': -0.1"),
        (1, {"x": (INF,)}, "ctr out of range for 'x': inf"),
        (3, {"x": (0.5, 0.6, 0.1)}, "ctr row for 'x' must be nonincreasing across slots"),
        (2, {"x": (0.1, 0.2), "y": (0.3,)}, "ctr row for 'x' must be nonincreasing across slots"),
        (2, {"x": (0.5, 0.4), "y": (0.3,)}, "ctr row for 'y' has 1 entries, expected 2"),
        (2, {"x": (1, 0)}, None),
        (2, {"x": [0.5, np.float64(0.25)], "y": (0.0, 0.0)}, None),
        (1, {"x": ("a",)}, "ctr entry for 'x' must be a number, got 'a'"),
        (1, {"x": (None,)}, "ctr entry for 'x' must be a number, got None"),
        (2, {"x": (0.5, True)}, "ctr entry for 'x' must be a number, got True"),
        (1, {"x": 0.5}, "ctr row for 'x' must be an array, got 0.5"),
        (1, {"x": "a"}, "ctr row for 'x' must be an array, got 'a'"),
        (3, {"x": (0.5, 0.6, NAN)}, "ctr out of range for 'x': nan"),
        (3, {"x": (0.5, 0.6, "a")}, "ctr entry for 'x' must be a number, got 'a'"),
        (3, {"x": (1, 0.5, 1)}, "ctr row for 'x' must be nonincreasing across slots"),
        (1, {"x": [1]}, None),
        (1, {"x": (10**400,)}, "ctr out of range for 'x': 1" + "0" * 36 + "..."),
        (1, [("x", (0.5,))], "'ctr_matrix' must be an object, got [('x', (0.5,))]"),
        (True, {}, "'k' must be an integer, got True"),
        (1.5, {}, "'k' must be an integer, got 1.5"),
        ("2", {}, "'k' must be an integer, got '2'"),
        (None, {}, "'k' must be an integer, got None"),
        (0, {}, "slot count must be >= 1, got 0"),
        pytest.param(-(10**400), {}, "slot count must be >= 1, got -1" + "0" * 35 + "...", id="huge-negative-k"),
    ],
)
def test_slot_model_words_the_first_broken_rule_of_library_built_rows(k, ctr, issue):
    if issue is None:
        rows = SlotModel(k, ctr).ctr
        assert rows == {ad: tuple(map(float, row)) for ad, row in ctr.items()}
        assert all(type(row) is tuple and set(map(type, row)) <= {float} for row in rows.values())
    else:
        with pytest.raises(ux.ScenarioError) as excinfo:
            SlotModel(k, ctr)
        assert excinfo.value.issues == (issue,)


@pytest.mark.parametrize(
    "entry", [np.float32(0.5), np.float64(0.5), Fraction(1, 2), 1, 0.5, True, "0.5", None, Decimal("0.5")]
)
def test_a_ctr_entry_is_a_number_exactly_when_a_bid_is(entry):
    """``SlotModel`` and ``validate_offer`` spell "a number" one way: ``is_number``."""
    offer = ux.Offer("x", ux.PriceType.HYBRID, two_events(0.1), {"view": entry, "click": 0.0})
    bid_ok = not any("must be a number" in v for v in ux.validate_offer(offer))
    try:
        row = SlotModel(1, {"x": (entry,)}).ctr["x"]
    except ux.ScenarioError as exc:
        assert exc.issues == (f"ctr entry for 'x' must be a number, got {entry!r}",)
        assert not bid_ok
    else:
        assert row == (float(entry),) and type(row[0]) is float
        assert bid_ok


@pytest.mark.parametrize("slot", [0, -1, 3, True, 1.0, "1"])
def test_value_at_slot_rejects_a_slot_outside_one_to_k(slot):
    offer = with_click("x", 1.0, 0.5)
    for slots in (SlotModel(2, {"x": (0.5, 0.25)}), SlotModel(2)):
        with pytest.raises(ux.ScenarioError) as excinfo:
            value_at_slot(offer, slots, slot)
        assert excinfo.value.issues == (f"offer 'x': slot {slot!r} is not in 1..2",)
    assert value_at_slot(offer, SlotModel(2, {"x": (0.5, 0.25)}), 2) == 0.25


def test_winner_and_price_invariance_under_charge_shifting():
    offer = ux.Offer(
        "x", ux.PriceType.HYBRID, two_events(0.1), {"view": 0.2, "click": 1.0}
    )
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.0})
    competitor = view_only("y", 0.15)

    outcomes = []
    for plan in (
        ux.shift_identity(charges),
        ux.shift_single_event(charges, offer.events, "click"),
        ux.shift_proportional(charges, offer),
    ):
        adjusted = ux.adjust_general(offer, plan)
        outcome = run_second_price([adjusted, competitor])
        award = outcome.winners[0]
        expected = sum(
            (award.prices[e.event_id] + plan.shifted[e.event_id]) * e.probability
            for e in offer.events
        )
        outcomes.append(([ad for ad, _ in outcome.ranking], expected))

    rankings = [r for r, _ in outcomes]
    payments = [p for _, p in outcomes]
    assert rankings[0] == rankings[1] == rankings[2]
    assert close12(payments[0], payments[1]) and close12(payments[1], payments[2])


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6
    )
)
def test_second_price_never_exceeds_adjusted_bid(values):
    offers = [view_only(f"ad{i}", v) for i, v in enumerate(values)]
    outcome = run_second_price(offers)
    for award in outcome.winners:
        for eid, price in award.prices.items():
            assert price <= offers_by_id(offers, award.ad_id).adjusted[eid] + 1e-12


def offers_by_id(offers, ad_id):
    return next(o for o in offers if o.ad_id == ad_id)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6
    )
)
def test_first_price_equals_adjusted_bid(values):
    offers = [view_only(f"ad{i}", v) for i, v in enumerate(values)]
    outcome = run_first_price(offers)
    for award in outcome.winners:
        assert award.prices["view"] == offers_by_id(offers, award.ad_id).adjusted["view"]


THREE = (*two_events(0.5), ux.EventSpec("sure", ux.EventKind.CUSTOM, 1.0))


def overflows_in_slot_2(ad_id: str, view: float) -> ux.AdjustedOffer:
    """Worth ``view`` - 1.7e308 + 1e308 in slot 1, at its ctr entry 1.0, and
    1e308 + 1e308, beyond float range, in slot 2, at its entry 0.0."""
    return ux.AdjustedOffer(ad_id, THREE, {"view": view, "click": -1.7e308, "sure": 1e308}, 0.0)


@pytest.mark.parametrize("runner", [run_first_price, run_second_price])
def test_an_ad_is_valued_only_in_the_slots_it_competes_for(runner):
    slots = SlotModel(2, {"x": (1.0, 0.0), "y": (1.0, 0.0)})
    # x wins slot 1 and is never valued in slot 2, where it would overflow
    outcome = runner([overflows_in_slot_2("x", 1.7e308), view_only("z", 0.5)], slots)
    assert [(w.ad_id, w.slot) for w in outcome.winners] == [("x", 1), ("z", 2)]
    assert outcome.ranking == (("x", 1e308), ("z", 0.5))
    # x and y lose slot 1 to z and compete for slot 2: both are named, in ad_id order
    offers = [overflows_in_slot_2("y", 1e308), view_only("z", 1.5e308), overflows_in_slot_2("x", 1e308)]
    with pytest.raises(ux.ScenarioError) as excinfo:
        runner(offers, slots)
    assert excinfo.value.issues == ("offer 'x': value in a slot is not finite", "offer 'y': value in a slot is not finite")
    # with one slot, the leftover ranking values x at slot k = 1 only
    outcome = runner(offers, SlotModel(1, {"x": (1.0,), "y": (1.0,)}))
    assert outcome.ranking == (("z", 1.5e308), ("x", 1e308 - 1.7e308 + 1e308), ("y", 1e308 - 1.7e308 + 1e308))


@pytest.mark.parametrize("runner", [run_first_price, run_second_price])
def test_the_leftover_ranking_raises_for_a_value_not_finite_in_slot_k(runner):
    # the reserve stops the auction at slot 1; x is then valued in slot k = 2 for the ranking
    slots = SlotModel(2, {"x": (1.0, 0.0)})
    with pytest.raises(ux.ScenarioError) as excinfo:
        runner([overflows_in_slot_2("x", 1e308), view_only("z", 0.5)], slots, 1e308)
    assert excinfo.value.issues == ("offer 'x': value in a slot is not finite",)


@pytest.mark.parametrize("runner", [run_first_price, run_second_price])
def test_an_adjusted_bid_that_is_not_a_number_is_one_issue_each(runner):
    bad = {"view": None, "click": [1.0]}
    offers = [
        ux.AdjustedOffer("y", two_events(0.5), {"view": "0.5", "click": 1.0}, 1.0),
        ux.AdjustedOffer("x", two_events(0.5), bad, 1.0),
        ux.AdjustedOffer("w", two_events(0.5), {"view": 0.5, "click": True}, 1.0),
        with_click("v", 1.0, 0.5),
    ]
    with pytest.raises(ux.ScenarioError) as excinfo:
        runner(offers, SlotModel(2, {"x": (0.5, 0.25)}))
    assert excinfo.value.issues == (
        "offer 'w': adjusted bid on 'click' must be a number, got True",
        "offer 'x': adjusted bid on 'view' must be a number, got None",
        "offer 'x': adjusted bid on 'click' must be a number, got [1.0]",
        "offer 'y': adjusted bid on 'view' must be a number, got '0.5'",
    )


@pytest.mark.parametrize(
    "bid, read",
    [
        (True, None),
        ("0.5", None),
        (None, None),
        (Decimal("0.5"), None),
        (3, 3.0),
        (Fraction(1, 2), 0.5),
        (np.float64(0.5), 0.5),
        (np.float64(NAN), NAN),
        (10**400, INF),
        (-(10**400), -INF),
    ],
    ids=["bool", "string", "none", "decimal", "int", "fraction", "numpy", "numpy-nan", "huge-int", "huge-negative-int"],
)
@pytest.mark.parametrize("slots", [None, SlotModel(1, {"x": (0.25,)})])
def test_value_at_slot_reads_each_adjusted_bid_as_the_auction_does(bid, read, slots):
    """A bid that is not a number is the same one issue from both; any other bid
    reads as ``read``, so the value is that of the float bid, and the value and
    the winner's prices are floats."""
    offer = ux.AdjustedOffer("x", two_events(0.5), {"view": 0.5, "click": bid}, 1.0)
    if read is None:
        issue = (f"offer 'x': adjusted bid on 'click' must be a number, got {bid!r}",)
        for call in (lambda: value_at_slot(offer, slots, 1), lambda: run_second_price([offer], slots)):
            with pytest.raises(ux.ScenarioError) as excinfo:
                call()
            assert excinfo.value.issues == issue
        return
    value = value_at_slot(offer, slots, 1)
    assert type(value) is float
    assert hexed(value) == hexed(value_at_slot(ux.AdjustedOffer("x", offer.events, {"view": 0.5, "click": read}, 1.0), slots, 1))
    if math.isfinite(value):
        outcome = run_second_price([offer], slots)
        assert outcome.ranking == (("x", value),)
        assert [type(price) for price in outcome.winners[0].prices.values()] == [float, float]
    else:
        with pytest.raises(ux.ScenarioError) as excinfo:
            run_second_price([offer], slots)
        assert excinfo.value.issues == ("offer 'x': value in a slot is not finite",)


@pytest.mark.parametrize("slots", [None, SlotModel(2, {"x": (0.5, 0.25)})])
def test_numpy_and_integer_bids_give_float_values_with_the_same_bits(slots):
    plain = [with_click("x", 3.0, 0.5), view_only("y", 0.5), view_only("z", 10**400)]
    odd = [
        ux.AdjustedOffer("x", two_events(0.5), {"view": np.float64(0.0), "click": 3}, 1.5),
        ux.AdjustedOffer("y", VIEW, {"view": np.float64(0.5)}, 0.5),
    ]
    # numpy probabilities: the value used to be a numpy.float64 with the float run's bits
    numpy_p = [
        ux.AdjustedOffer(
            o.ad_id, tuple(ux.EventSpec(e.event_id, e.kind, np.float64(e.probability)) for e in o.events),
            o.adjusted, o.expected_value,
        )
        for o in plain[:2]
    ]
    for o, numpy_o in zip(plain, numpy_p):
        value = value_at_slot(numpy_o, slots, 1)
        assert type(value) is float and hexed(value) == hexed(value_at_slot(o, slots, 1))
    for runner in (run_first_price, run_second_price):
        expected = runner(plain[:2], slots)
        for outcome in (runner(odd, slots), runner(numpy_p, slots)):
            assert [(a, hexed(v)) for a, v in outcome.ranking] == [(a, hexed(v)) for a, v in expected.ranking]
            assert all(type(value) is float for _, value in outcome.ranking)
            assert [type(w.value) for w in outcome.winners] == [float] * len(outcome.winners)
            assert all(type(price) is float for w in outcome.winners for price in w.prices.values())
        # an int bid beyond float range gives a value that is not finite, not an OverflowError
        with pytest.raises(ux.ScenarioError) as excinfo:
            runner(plain, slots)
        assert excinfo.value.issues == ("offer 'z': value in a slot is not finite",)


def test_auction_memory_follows_the_offers_not_the_slots():
    # 1,000 rowless ads at k = 1,000: a slots x offers x events value array peaked at 30.7 MiB
    rng = random.Random(11)
    offers = [
        ux.AdjustedOffer(f"ad{i:04d}", two_events(0.1), {"view": rng.random(), "click": rng.random()}, 1.0)
        for i in range(1000)
    ]
    slots = SlotModel(1000)
    tracemalloc.start()
    try:
        outcome = run_second_price(offers, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(outcome.winners) == 1000
    assert outcome_view(outcome) == outcome_view(loop_auction(offers, slots, 0.0, "second"))
