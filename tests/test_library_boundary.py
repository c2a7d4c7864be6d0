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
``KeyMismatchError`` and one that does not read it returns, except that
proportional ``build_plan`` refuses an infeasible offer with no event of
b * p > 0 with a ValueError. A scenario field, an offer entry, an offer's
ad_id, events or bids, or an event id or kind of the wrong type is one
itemized issue. So is, at the auctions and the
oracles, each event whose probability is not a number, and, at the auctions,
offers that are not a tuple or list, an entry that is not an ``AdjustedOffer``
and slots that are not a ``SlotModel``. ``settle_general`` and
``settle_classic``, given junk for any argument (no mapping, a mapping keyed
otherwise, a plan that is no ``ShiftPlan``, a rule that is no ``ClassicRule``,
an amount that is no number or an int beyond float range), also let only
``ValueError`` subclasses escape, and word each mistyped argument as one issue.
"""

import copy
import dataclasses
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge.model import KeyMismatchError, fold_sum
from uxcharge.auction import SlotModel, run_first_price, run_second_price, value_at_slot
from uxcharge.sim import validate_scenario

from helpers import cpc_offer, hexed, money, offers_with_charges, reference_validate, unit

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
    expected = {name: KeyMismatchError if reads in broken else None for name, (reads, _) in chain.items()}
    if "bids" not in broken and not ux.is_feasible(offer, keyed_charges):
        if ux.expected_value(offer.bids, offer.events) == 0.0:  # no event has b * p > 0 to take the charge
            expected["build_plan proportional"] = ValueError
    assert {name: _rejection(call) for name, (_, call) in chain.items()} == expected

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


def _shuffled(draw, mapping):
    """``mapping`` as a dict with its keys in an order drawn at random."""
    return dict(draw(st.permutations(list(mapping.items()))))


def _by_key(mapping):
    return hexed(dict(sorted(mapping.items())))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_per_offer_calls_give_the_same_bits_in_any_key_order(data):
    """The key check accepts mappings in event order at once and compares sets
    otherwise; either way every per-offer call reads them the same."""
    draw = data.draw
    offer, charges = draw(offers_with_charges())
    shuffled = ux.Offer(offer.ad_id, offer.price_type, offer.events, _shuffled(draw, offer.bids))
    shuffled_charges = ux.ChargeSchedule(_shuffled(draw, charges.charges))
    assert ux.is_feasible(offer, charges) is ux.is_feasible(shuffled, shuffled_charges)
    k = draw(st.integers(1, 3))
    slots = SlotModel(k, {offer.ad_id: sorted(draw(st.lists(unit, min_size=k, max_size=k)), reverse=True)})
    for strategy in ("identity", "single:view", "proportional"):
        try:
            plan = ux.build_plan(strategy, offer, charges)
        except ValueError as exc:  # no event has b * p > 0 to take the charge
            assert strategy == "proportional" and not ux.is_feasible(offer, charges)
            with pytest.raises(ValueError) as again:
                ux.build_plan(strategy, shuffled, shuffled_charges)
            assert str(again.value) == str(exc)
            continue
        assert _by_key(ux.build_plan(strategy, shuffled, shuffled_charges).shifted) == _by_key(plan.shifted)

        shuffled_plan = ux.ShiftPlan(_shuffled(draw, plan.shifted), plan.strategy)
        adjusted = ux.adjust_general(offer, plan)
        again = ux.adjust_general(shuffled, shuffled_plan)
        assert hexed(again.adjusted) == hexed(adjusted.adjusted)  # built in event order
        assert hexed(again.expected_value) == hexed(adjusted.expected_value)

        # prices set the order of the line items and of the total's fold
        realized = {eid: draw(st.sampled_from([0, 1])) for eid in offer.event_ids}
        settled = ux.settle_general(adjusted.adjusted, plan, realized)
        resettled = ux.settle_general(adjusted.adjusted, shuffled_plan, _shuffled(draw, realized))
        assert hexed(resettled.line_items) == hexed(settled.line_items)
        assert hexed(resettled.total) == hexed(settled.total)

        reordered = ux.AdjustedOffer(offer.ad_id, offer.events, _shuffled(draw, adjusted.adjusted), 0.0)
        for slot in range(1, k + 1):
            assert hexed(value_at_slot(reordered, slots, slot)) == hexed(value_at_slot(adjusted, slots, slot))


def _mistyped(field, value):
    """A valid two-ad scenario with one field of the config, of ad "a"'s
    offer or of its click event, or the click event itself, replaced by ``value``."""
    offer = cpc_offer("a", 2.0, 0.1)
    if field == "click event":
        offer = ux.Offer("a", offer.price_type, (offer.events[0], value), offer.bids)
    elif field in ("ad_id", "events", "bids"):
        offer = replace(offer, **{field: value})
    elif field in ("bid", "probability", "view probability"):
        events, bids = list(offer.events), dict(offer.bids)
        if field == "bid":
            bids["click"] = value
        else:
            at = 0 if field == "view probability" else 1
            events[at] = ux.EventSpec(events[at].event_id, events[at].kind, value)
        offer = ux.Offer("a", offer.price_type, tuple(events), bids)
    elif field == "price_type":
        offer = ux.Offer("a", value, offer.events, offer.bids)
    config = ux.ScenarioConfig((offer, cpc_offer("b", 1.0, 0.1)), ux.ChargeSchedule({"view": 0.01}), trials=50)
    if field in ("offers", "strategy", "reserve", "slots", "charges"):
        config = replace(config, **{field: value})
    elif field == "charge":
        config = replace(config, charges=ux.ChargeSchedule({"view": value}))
    return config


HUGE = 10**400
MISTYPED = [
    ("strategy", None, "unknown strategy None; expected identity, single:<event>, or proportional"),
    ("strategy", 3, "unknown strategy 3; expected identity, single:<event>, or proportional"),
    ("reserve", "0", "reserve must be a finite number >= 0, got '0'"),
    ("reserve", True, "reserve must be a finite number >= 0, got True"),
    ("reserve", HUGE, f"reserve must be a finite number >= 0, got {repr(HUGE)[:37]}..."),
    ("slots", 3, "slots must be a SlotModel or None, got 3"),
    ("charges", {"view": 0.1}, "charges must be a ChargeSchedule of a mapping, got {'view': 0.1}"),
    ("charges", ux.ChargeSchedule(0.1), "charges must be a ChargeSchedule of a mapping, got ChargeSchedule(charges=0.1)"),
    ("charge", "1", "charge on 'view' must be a number, got '1'"),
    ("charge", None, "charge on 'view' must be a number, got None"),
    ("charge", True, "charge on 'view' must be a number, got True"),
    ("charge", HUGE, f"non-finite charge on 'view': {repr(HUGE)[:37]}..."),
    ("bid", "1", "offer 'a': bid on 'click' must be a number, got '1'"),
    ("bid", None, "offer 'a': bid on 'click' must be a number, got None"),
    ("bid", True, "offer 'a': bid on 'click' must be a number, got True"),
    ("bid", HUGE, f"offer 'a': non-finite bid on 'click': {repr(HUGE)[:37]}..."),
    ("probability", "1", "offer 'a': probability of 'click' must be a number, got '1'"),
    ("probability", None, "offer 'a': probability of 'click' must be a number, got None"),
    ("probability", False, "offer 'a': probability of 'click' must be a number, got False"),
    ("view probability", "1", "offer 'a': probability of 'view' must be a number, got '1'"),
    ("view probability", HUGE, f"offer 'a': view event must have probability 1, got {HUGE!r}"),
    ("price_type", "cpc", "offer 'a': price type must be a PriceType, got 'cpc'"),
    ("ad_id", ["a"], "offer '['a']': ad_id must be a string, got ['a']"),
    ("ad_id", None, "offer 'None': ad_id must be a string, got None"),
    ("bids", [0.0, 2.0], "offer 'a': bids must be a mapping, got [0.0, 2.0]"),
    ("events", None, "offer 'a': events must be a tuple of EventSpec, got None"),
    ("events", [], "offer 'a': events must be a tuple of EventSpec, got []"),
    ("click event", ("click", "click", 0.1), "offer 'a': event must be an EventSpec, got ('click', 'click', 0.1)"),
    ("offers", None, "offers must be a tuple or list, got None"),
    ("offers", 3, "offers must be a tuple or list, got 3"),
]


@pytest.mark.parametrize("field, value, issue", MISTYPED, ids=[f"{f}-{v!r:.20}" for f, v, _ in MISTYPED])
def test_a_mistyped_field_is_one_issue(field, value, issue):
    # each of these used to escape run_scenario as a TypeError, an
    # AttributeError or an OverflowError, or (a bool bid) to pass as valid
    config = _mistyped(field, value)
    expected = [issue]
    if field == "view probability" and value is HUGE:
        expected.insert(0, f"offer 'a': probability out of range for 'view': {HUGE!r}")
    assert validate_scenario(config) == expected
    assert reference_validate(config) == expected
    with pytest.raises(ux.ScenarioError) as excinfo:
        ux.run_scenario(config)
    assert list(excinfo.value.issues) == expected


@pytest.mark.parametrize("model", list(ux.OutcomeModel))
def test_an_event_kind_that_is_no_event_kind_is_itemized(model):
    """A kind given as its string is neither a click to the auction nor one to
    the funnel chain: it is rejected, whatever the outcome model."""
    events = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0), ux.EventSpec("click", "click", 0.1))
    offer = ux.Offer("a", ux.PriceType.HYBRID, events, {"view": 0.0, "click": 2.0})
    assert ux.validate_offer(offer) == ["kind of 'click' must be an EventKind, got 'click'"]
    config = ux.ScenarioConfig(
        (offer, cpc_offer("b", 1.0, 0.1)), ux.ChargeSchedule({}), slots=SlotModel(1, {"a": [0.9]}), model=model
    )
    expected = ["offer 'a': kind of 'click' must be an EventKind, got 'click'"]
    assert validate_scenario(config) == reference_validate(config) == expected
    with pytest.raises(ux.ScenarioError) as excinfo:
        ux.run_scenario(config)
    assert list(excinfo.value.issues) == expected


@pytest.mark.parametrize("model", list(ux.OutcomeModel))
def test_an_offer_entry_that_is_no_offer_is_one_issue_and_skipped(model):
    """Each entry of ``offers`` that is not an ``Offer`` is worded by its index
    and checked no further; the offers around it are validated as usual."""
    offers = ({"ad_id": "a"}, cpc_offer("b", 1.0, 0.1), None, cpc_offer("b", 2.0, 0.1))
    config = ux.ScenarioConfig(offers, ux.ChargeSchedule({"view": 0.01}), model=model)
    expected = [
        "offers[0] must be an Offer, got {'ad_id': 'a'}",
        "offers[2] must be an Offer, got None",
        "duplicate ad_id 'b'",
    ]
    assert validate_scenario(config) == reference_validate(config) == expected
    with pytest.raises(ux.ScenarioError) as excinfo:
        ux.run_scenario(config)
    assert list(excinfo.value.issues) == expected


@pytest.mark.parametrize(
    "event_id, bids, issue",
    [
        (["c"], {"view": 0.0}, "offer 'a': event id must be a string, got ['c']"),
        (3, {"view": 0.0, 3: 1.0}, "offer 'a': event id must be a string, got 3"),
        (None, {"view": 0.0, "click": 1.0}, "offer 'a': event id must be a string, got None"),
    ],
)
@pytest.mark.parametrize("model", list(ux.OutcomeModel))
def test_an_event_id_that_is_no_string_is_one_issue(event_id, bids, issue, model):
    """The bid key and price type checks, which need string ids, are skipped;
    the unhashable list id used to escape as a TypeError, the int id to run."""
    events = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0), ux.EventSpec(event_id, ux.EventKind.CLICK, 0.1))
    offer = ux.Offer("a", ux.PriceType.CPC, events, bids)
    config = ux.ScenarioConfig(
        (offer, cpc_offer("b", 1.0, 0.1)), ux.ChargeSchedule({"view": 0.01}), strategy="single:click", model=model
    )
    assert validate_scenario(config) == reference_validate(config) == [issue]
    with pytest.raises(ux.ScenarioError) as excinfo:
        ux.run_scenario(config)
    assert list(excinfo.value.issues) == [issue]


ADJUSTED = ux.AdjustedOffer("a", _events(0.5, None), {"view": 0.5, "click": 1.0}, 1.0)
OTHER = ux.AdjustedOffer("b", _events(0.5, None), {"view": 0.5, "click": 1.0}, 1.0)


def _issues(call) -> tuple[str, ...]:
    with pytest.raises(ux.ScenarioError) as excinfo:
        call()
    return excinfo.value.issues


def _with_probability(event_id, p) -> tuple[ux.EventSpec, ...]:
    return tuple(ux.EventSpec(e.event_id, e.kind, p if e.event_id == event_id else e.probability) for e in _events(0.5, None))


NOT_NUMBERS = ["1", None, True, [0.5]]


@pytest.mark.parametrize("p", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("event_id", ["view", "click"])
@pytest.mark.parametrize("slots", [None, SlotModel(1, {"a": (0.25,)})], ids=["declared", "ctr-row"])
def test_a_probability_that_is_no_number_is_one_issue_at_the_auction(p, event_id, slots):
    """The string "1" and True used to rank and price at 1.0, the others to
    escape as a TypeError; a ctr row that replaces the click's probability
    does not make it readable."""
    bad = ux.AdjustedOffer("a", _with_probability(event_id, p), ADJUSTED.adjusted, 1.0)
    issue = (f"offer 'a': probability of '{event_id}' must be a number, got {p!r}",)
    assert _issues(lambda: value_at_slot(bad, slots, 1)) == issue
    assert _issues(lambda: run_first_price([OTHER, bad], slots)) == issue
    assert _issues(lambda: run_second_price([bad, OTHER], slots)) == issue


def test_each_event_read_by_the_auction_is_at_most_one_issue():
    events = (ux.EventSpec("view", ux.EventKind.VIEW, "1"), ux.EventSpec("click", ux.EventKind.CLICK, None))
    bad = ux.AdjustedOffer("a", events, {"view": 0.5, "click": "2"}, 1.0)
    issues = (
        "offer 'a': probability of 'view' must be a number, got '1'",
        "offer 'a': adjusted bid on 'click' must be a number, got '2'",
    )
    assert _issues(lambda: value_at_slot(bad, None, 1)) == issues
    assert _issues(lambda: run_second_price([bad], SlotModel(2))) == issues


@pytest.mark.parametrize("p", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("event_id", ["view", "click"])
@pytest.mark.parametrize("oracle", [ux.expected_payment, ux.enumerate_expected_payment, ux.monte_carlo_payment])
def test_a_probability_that_is_no_number_is_one_issue_at_the_oracles(p, event_id, oracle):
    """The closed form used to price "1" and True at 1.0, enumeration and Monte
    Carlo to raise a bare TypeError."""
    amounts = {"view": 0.1, "click": 0.5}
    issue = (f"probability of '{event_id}' must be a number, got {p!r}",)
    assert _issues(lambda: oracle(amounts, amounts, _with_probability(event_id, p))) == issue


@pytest.mark.parametrize("runner", [run_first_price, run_second_price])
@pytest.mark.parametrize(
    "offers, slots, reserve, issues",
    [
        ([ADJUSTED, 5], None, 0.0, ["offers[1] must be an AdjustedOffer, got 5"]),
        ([ADJUSTED], {"k": 1}, 0.0, ["slots must be a SlotModel or None, got {'k': 1}"]),
        (
            [None, ADJUSTED, "b"],
            3,
            -1.0,
            [
                "reserve must be a finite number >= 0, got -1.0",
                "slots must be a SlotModel or None, got 3",
                "offers[0] must be an AdjustedOffer, got None",
                "offers[2] must be an AdjustedOffer, got 'b'",
            ],
        ),
        ((o for o in [ADJUSTED]), None, 0.0, ["offers must be a tuple or list, got <generator object"]),
        ({"a": ADJUSTED}, None, 0.0, ["offers must be a tuple or list, got {'a': AdjustedOffer("]),
    ],
    ids=["entry", "slots", "all", "generator", "dict"],
)
def test_mistyped_auction_arguments_are_itemized(runner, offers, slots, reserve, issues):
    # each used to escape as an AttributeError, or (a generator) to give no winners
    found = _issues(lambda: runner(offers, slots, reserve))
    assert len(found) == len(issues) and all(f.startswith(i) for f, i in zip(found, issues))


@pytest.mark.parametrize(
    "offer, slots, issues",
    [
        (5, None, ["offer must be an AdjustedOffer, got 5"]),
        (ADJUSTED, {"k": 1}, ["slots must be a SlotModel or None, got {'k': 1}"]),
        (("a",), 2, ["offer must be an AdjustedOffer, got ('a',)", "slots must be a SlotModel or None, got 2"]),
    ],
    ids=["offer", "slots", "both"],
)
def test_mistyped_value_at_slot_arguments_are_itemized(offer, slots, issues):
    assert _issues(lambda: value_at_slot(offer, slots, 1)) == tuple(issues)


@pytest.mark.parametrize("slot", [7, 0, -1, "x", 1.0, True], ids=repr)
@pytest.mark.parametrize("slots", [None, SlotModel(1)], ids=["no-model", "one-slot-model"])
def test_a_slot_outside_one_slot_is_one_issue_with_or_without_a_slot_model(slot, slots):
    """Without a slot model there is one slot; slots 7, 0 and 'x' used to value
    the ad as in slot 1."""
    issue = (f"offer 'a': slot {slot!r} is not in 1..1",)
    assert _issues(lambda: value_at_slot(ADJUSTED, slots, slot)) == issue
    assert value_at_slot(ADJUSTED, slots, 1) == 0.5 + 1.0 * 0.5


_EVENTS = _events(0.5, None)
_PLAN = ux.ShiftPlan({"view": 0.05, "click": 0.0}, "identity")
_AWARD = ux.SlotAward("a", 1, {"view": 0.5, "click": 1.0}, 1.0, 1.0)
_SLOTS = SlotModel(2, {"a": [0.5, 0.25]})
#: One instance of each value class the package exports.
VALUES = {
    ux.EventSpec: _EVENTS[1],
    ux.Offer: ux.Offer("a", ux.PriceType.HYBRID, _EVENTS, {"view": 0.5, "click": 1.0}),
    ux.ChargeSchedule: ux.ChargeSchedule({"view": 0.05}),
    ux.ShiftPlan: _PLAN,
    ux.AdjustedOffer: ADJUSTED,
    ux.SlotAward: _AWARD,
    ux.AuctionOutcome: ux.AuctionOutcome("second", (("a", 1.0), ("b", 0.5)), (_AWARD,)),
    ux.Settlement: ux.settle_general(_AWARD.prices, _PLAN, {"view": 1, "click": 0}, "a"),
    SlotModel: _SLOTS,
    ux.ScenarioConfig: ux.ScenarioConfig((), ux.ChargeSchedule({}), slots=_SLOTS, model=ux.OutcomeModel.FUNNEL),
}


def test_every_exported_dataclass_has_an_example():
    exported = {getattr(ux, name) for name in ux.__all__}
    assert {c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)} == set(VALUES)


@pytest.mark.parametrize("value", VALUES.values(), ids=lambda v: type(v).__name__)
def test_a_value_is_slotted_frozen_and_copies_to_an_equal_value(value):
    assert not hasattr(value, "__dict__")
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, field)
    # A name that is no field has no slot. CPython 3.10-3.13 word it as a
    # TypeError: a slotted class's frozen __setattr__ checks the class that
    # dataclass replaced.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.stray = None
    assert not hasattr(value, "stray")
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_replace_checks_a_slot_model_row_again():
    with pytest.raises(ux.ScenarioError, match="ctr out of range for 'a'"):
        replace(_SLOTS, ctr={"a": (0.5, 1.5)})


_PRICES = {"view": 0.5, "click": 1.0}
_REALIZED = {"view": 1, "click": 0}
_HUGE = f"{'1' + '0' * 36}..."  # ``brief`` of 10**400


@pytest.mark.parametrize(
    "call, issues",
    [
        (lambda: ux.settle_general(_PRICES, _PLAN, ["view", "click"]), ["realized events must be a mapping, got ['view', 'click']"]),
        (lambda: ux.settle_general(_PRICES, {"view": 0.05}, _REALIZED), ["plan must be a ShiftPlan of a mapping, got {'view': 0.05}"]),
        (lambda: ux.settle_general(None, _PLAN, _REALIZED), ["prices must be a mapping, got None"]),
        (
            lambda: ux.settle_general((), ux.ShiftPlan(None, "identity"), "view"),
            [
                "prices must be a mapping, got ()",
                "plan must be a ShiftPlan of a mapping, got ShiftPlan(shifted=None, strategy='ide...",
                "realized events must be a mapping, got 'view'",
            ],
        ),
        (
            lambda: ux.settle_general({"view": 10**400}, ux.ShiftPlan({"view": 0.0}, "identity"), {"view": 1}),
            [f"price for 'view' is beyond float range: {_HUGE}"],
        ),
        (lambda: ux.settle_classic("cpm_view", 1.0), ["rule must be a ClassicRule, got 'cpm_view'"]),
        (lambda: ux.settle_classic(ux.ClassicRule.CPM_VIEW, "1", v="0.1"), ["r must be a number, got '1'", "v must be a number, got '0.1'"]),
        (
            lambda: ux.settle_classic(None, 10**400, c=None, p=2.0),
            ["rule must be a ClassicRule, got None", f"r is beyond float range: {_HUGE}", "c must be a number, got None"],
        ),
    ],
    ids=["realized-list", "plan-dict", "prices-none", "all", "huge-price", "rule-string", "r-v-strings", "rule-r-c"],
)
def test_mistyped_settlement_arguments_are_itemized(call, issues):
    # each escaped as an AttributeError or a TypeError, a huge int as an OverflowError;
    # a string rule given a p was settled as cpm_both
    assert _issues(call) == tuple(issues)


_AMOUNTS = st.sampled_from([0.5, 2, -1.0, math.inf, math.nan, 10**400, -(10**400), "0.5", None, True, [0.5]])
_NOT_MAPPINGS = st.sampled_from([None, "view", 3, ["view", "click"], ("view", "click")])


def _per_event(values):
    """Mappings keyed to (view, click), keyed otherwise, or no mapping at all."""
    keys = st.sampled_from(["view", "click", "ghost"])
    return st.fixed_dictionaries({"view": values, "click": values}) | st.dictionaries(keys, values) | _NOT_MAPPINGS


@settings(max_examples=300, deadline=None)
@given(
    prices=_per_event(_AMOUNTS),
    plan=st.builds(ux.ShiftPlan, _per_event(_AMOUNTS), st.just("identity")) | _per_event(_AMOUNTS),
    realized=_per_event(st.sampled_from([0, 1, True, 2, 0.5, None, "1"])),
    rule=st.sampled_from([*ux.ClassicRule, "cpm_view", None]),
    r=_AMOUNTS,
    v=_AMOUNTS,
    c=_AMOUNTS,
    p=st.none() | unit | _AMOUNTS,
    clicked=st.booleans(),
)
def test_settlement_lets_only_value_errors_escape(prices, plan, realized, rule, r, v, c, p, clicked):
    _rejection(lambda: ux.settle_general(prices, plan, realized))
    _rejection(lambda: ux.settle_classic(rule, r, v, c, p, clicked))
