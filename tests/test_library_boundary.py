"""Malformed input at the library boundary gives a ValueError, never another exception.

Each case is a valid slot model, adjusted offers and scenario with one
mutation applied: a bad ``k``, ``ctr`` mapping, ctr row or ctr entry, a slot
outside 1..k, a repeated event id, or a missing or stray per-event key. The
mutated ad first goes through the per-offer chain (``expected_value``,
``total_expected_charge``, ``is_feasible``, ``build_plan`` under each
strategy, ``adjust_general``, ``validate_plan``) with a charge schedule keyed
to its events; the case then goes through ``SlotModel``, ``value_at_slot``,
``run_first_price``, ``run_second_price`` and ``run_scenario``. Only
``ValueError`` subclasses may escape, and the call that owns the broken rule
must reject it: a per-offer call that reads the broken mapping raises
``KeyMismatchError`` and one that does not read it returns.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.model import KeyMismatchError, fold_sum
from uxcharge.auction import SlotModel, run_first_price, run_second_price, value_at_slot

from helpers import money, unit

ADS = ("a", "b", "c", "d")
SLOT_MODEL_RULES = ("k", "ctr", "row", "entry")
EVENT_SET_RULES = ("repeat", "missing", "stray")
MUTATIONS = ("none", *SLOT_MODEL_RULES, "slot", *EVENT_SET_RULES)


def _events(p_click: float, p_custom: float | None) -> tuple[ux.EventSpec, ...]:
    events = [ux.EventSpec("view", ux.EventKind.VIEW, 1.0), ux.EventSpec("click", ux.EventKind.CLICK, p_click)]
    if p_custom is not None:
        events.append(ux.EventSpec("extra", ux.EventKind.CUSTOM, p_custom))
    return tuple(events)


@st.composite
def cases(draw, mutation):
    """(k, ctr, slot, offers, adjusted offers, charges, index of the mutated ad,
    charges keyed to its events) with ``mutation`` applied."""
    k = draw(st.integers(1, 4))
    ads = ADS[: draw(st.integers(1, len(ADS)))]
    events = {ad: _events(draw(unit), draw(st.none() | unit)) for ad in ads}
    bids = {ad: {e.event_id: draw(money) for e in events[ad]} for ad in ads}
    rows = {  # JSON-like lists or library tuples, nonincreasing
        ad: draw(st.sampled_from([list, tuple]))(sorted(draw(st.lists(unit, min_size=k, max_size=k)), reverse=True))
        for ad in draw(st.sets(st.sampled_from(ads)))
    }
    slot = draw(st.integers(1, k))
    at = draw(st.integers(0, len(ads) - 1))

    ad = ads[at]
    keyed_charges = ux.ChargeSchedule({e.event_id: draw(money) for e in events[ad]})
    if mutation == "k":
        k = draw(st.sampled_from([True, False, float(k), k + 0.5, str(k), None]))
    elif mutation == "ctr":
        rows = draw(st.sampled_from([list(rows.items()), "ctr"]))
    elif mutation == "row":
        rows = {**rows, ad: draw(st.sampled_from([0.5, 1, "x" * k]))}
    elif mutation == "entry":
        row = list(rows.get(ad, [0.5] * k))
        bad = [math.nan, math.inf, -math.inf, True, "0.1", 10**400, None]
        row[draw(st.integers(0, k - 1))] = draw(st.sampled_from(bad))
        rows = {**rows, ad: row}
    elif mutation == "slot":
        slot = draw(st.sampled_from([0, -1, k + 1]))
    elif mutation == "repeat":
        events[ad] += (events[ad][-1],)
    elif mutation == "missing":
        del bids[ad][draw(st.sampled_from([e.event_id for e in events[ad]]))]
    elif mutation == "stray":
        bids[ad]["ghost"] = draw(money)

    offers = tuple(ux.Offer(a, ux.PriceType.HYBRID, events[a], bids[a]) for a in ads)
    adjusted = [
        ux.AdjustedOffer(a, events[a], bids[a], fold_sum(bids[a].get(e.event_id, 0.0) * e.probability for e in events[a]))
        for a in ads
    ]
    charges = ux.ChargeSchedule(draw(st.sampled_from([{}, {"view": 0.01}, {"click": 0.1}])))
    return k, rows, slot, offers, adjusted, charges, at, keyed_charges


def _rejection(call) -> type | None:
    """The ValueError subclass ``call()`` raises, or None if it returns; any
    other exception propagates and fails the test."""
    try:
        call()
    except ValueError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_malformed_library_input_gives_only_value_errors(mutation, data):
    k, rows, slot, offers, adjusted, charges, at, keyed_charges = data.draw(cases(mutation))

    offer = offers[at]
    plan = ux.shift_identity(keyed_charges)
    # name: (the per-event mapping the call reads, the call). "bids" calls read
    # the offer's bids over its events, "charges" calls only the charges over
    # the events (the view target has probability 1), and identity no event set.
    chain = {
        "expected_value": ("bids", lambda: ux.expected_value(offer.bids, offer.events)),
        "total_expected_charge": ("charges", lambda: ux.total_expected_charge(keyed_charges, offer.events)),
        "is_feasible": ("bids", lambda: ux.is_feasible(offer, keyed_charges)),
        "build_plan identity": (None, lambda: ux.build_plan("identity", offer, keyed_charges)),
        "build_plan single:view": ("charges", lambda: ux.build_plan("single:view", offer, keyed_charges)),
        "build_plan proportional": ("bids", lambda: ux.build_plan("proportional", offer, keyed_charges)),
        "adjust_general": ("bids", lambda: ux.adjust_general(offer, plan)),
        "validate_plan": ("bids", lambda: ux.validate_plan(plan, keyed_charges, offer)),
    }
    # a repeated event id breaks every mapping keyed to the events; a missing or stray key only the bids
    broken = {"repeat": {"bids", "charges"}, "missing": {"bids"}, "stray": {"bids"}}.get(mutation, set())
    assert {name: _rejection(call) for name, (_, call) in chain.items()} == {
        name: KeyMismatchError if reads in broken else None for name, (reads, _) in chain.items()
    }

    try:
        slots = SlotModel(k, rows)
    except ux.ScenarioError:
        assert mutation in SLOT_MODEL_RULES
        return
    assert mutation not in SLOT_MODEL_RULES

    config = ux.ScenarioConfig(offers=offers, charges=charges, slots=slots, trials=50)
    expected = {
        "value_at_slot": ux.ScenarioError if mutation == "slot" else None,
        "run_first_price": None,
        "run_second_price": None,
        "run_scenario": None,
    }
    if mutation in EVENT_SET_RULES:
        expected = {**dict.fromkeys(expected, KeyMismatchError), "run_scenario": ux.ScenarioError}
    assert {
        "value_at_slot": _rejection(lambda: value_at_slot(adjusted[at], slots, slot)),
        "run_first_price": _rejection(lambda: run_first_price(adjusted, slots)),
        "run_second_price": _rejection(lambda: run_second_price(adjusted, slots)),
        "run_scenario": _rejection(lambda: ux.run_scenario(config)),
    } == expected
