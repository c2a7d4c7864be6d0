"""First- and second-price position auctions over adjusted offers.

Slots are filled greedily from the top: each position is auctioned among the
remaining offers, ranked by expected adjusted value evaluated at that
position's click probabilities. Pricing scales the winner's own per-event
adjusted bids by a factor theta:

* first pricing:  theta = 1, so every per-event price equals the adjusted bid;
* second pricing: theta = (best competing value at this position) / (winner's
  value), so the winner's expected payment equals the next value, the
  standard second-price property, and no per-event price exceeds the
  corresponding nonnegative adjusted bid.

The reserve is a finite expected-value floor >= 0: offers below it cannot
win, and it stands in for the next value when competition runs out.

Values are plain left folds, one slot's at a time, so memory grows with the
offers and their events, never with the slot count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Mapping, Sequence

from .model import (
    AdjustedOffer,
    AuctionOutcome,
    EventKind,
    ScenarioError,
    SlotAward,
    brief,
    is_finite,
    is_number,
    require_same_keys,
)

FIRST_PRICE = "first"
SECOND_PRICE = "second"

_AD_ID = attrgetter("ad_id")
_EVENT_ID = attrgetter("event_id")
_VALUE = itemgetter(1)


@dataclass(frozen=True, slots=True)
class SlotModel:
    """Slot count plus per-ad, per-slot click probabilities; the one owner of
    every slot rule, for the CLI and library callers alike.

    ``k`` is an int >= 1 (not a bool). ``ctr`` is a mapping, and
    ``ctr[ad_id][j]`` is the click probability for that ad when shown in
    slot j+1. Ads absent from ``ctr`` keep their declared click probability
    in every slot. Each row is a list or tuple of k numbers (``is_number``) in
    [0, 1], nonincreasing: lower slots never click better. Each row is kept
    as a tuple of floats, so rows read from JSON and rows built in Python
    compare equal. Raises ScenarioError on the first rule broken.
    """

    k: int
    ctr: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        k, ctr = self.k, self.ctr
        if isinstance(k, bool) or not isinstance(k, int):
            raise ScenarioError([f"'k' must be an integer, got {brief(k)}"])
        if k < 1:
            raise ScenarioError([f"slot count must be >= 1, got {brief(k)}"])
        if not isinstance(ctr, Mapping):
            raise ScenarioError([f"'ctr_matrix' must be an object, got {brief(ctr)}"])
        rows = {}
        for ad_id, row in ctr.items():
            if not isinstance(row, (list, tuple)):
                raise ScenarioError([f"ctr row for '{ad_id}' must be an array, got {brief(row)}"])
            if len(row) != k:
                raise ScenarioError([f"ctr row for '{ad_id}' has {len(row)} entries, expected {brief(k)}"])
            # one pass; an entry above the one before it is worded only if
            # every entry of the row is a number in range
            before, ordered = 1.0, True
            for p in row:
                if type(p) is not float and not is_number(p):
                    raise ScenarioError([f"ctr entry for '{ad_id}' must be a number, got {brief(p)}"])
                if not 0.0 <= p <= before:
                    if not 0.0 <= p <= 1.0:
                        raise ScenarioError([f"ctr out of range for '{ad_id}': {brief(p)}"])
                    ordered = False
                before = p
            if not ordered:
                raise ScenarioError([f"ctr row for '{ad_id}' must be nonincreasing across slots"])
            rows[ad_id] = tuple(map(float, row))
        object.__setattr__(self, "ctr", rows)

    def click_probability(self, ad_id: str, slot: int) -> float | None:
        """Click probability override for ``ad_id`` in 1-based ``slot``, if any.

        Raises ScenarioError, naming the ad and the slot, unless ``slot`` is
        an int in 1..k.
        """
        if type(slot) is not int or not 1 <= slot <= self.k:
            raise ScenarioError([f"offer '{ad_id}': slot {brief(slot)} is not in 1..{brief(self.k)}"])
        row = self.ctr.get(ad_id)
        return None if row is None else row[slot - 1]


# The market without a slot model: one slot, every ad at its declared click probability.
_ONE_SLOT = SlotModel(1)


def pricing_rule_issues(rule: str) -> list[str]:
    """The pricing rule is first or second; an empty list when it is."""
    if rule in (FIRST_PRICE, SECOND_PRICE):
        return []
    return [f"unknown pricing rule {rule!r}"]


def reserve_issues(reserve: float) -> list[str]:
    """The reserve rule: a finite expected-value floor >= 0; an empty list when it holds."""
    if is_number(reserve) and is_finite(reserve) and reserve >= 0.0:
        return []
    return [f"reserve must be a finite number >= 0, got {brief(reserve)}"]


def slot_model_issues(slots: SlotModel | None) -> list[str]:
    """Slots are a SlotModel or None; an empty list when they are."""
    if slots is None or isinstance(slots, SlotModel):
        return []
    return [f"slots must be a SlotModel or None, got {brief(slots)}"]


def _read(offer: AdjustedOffer, what: str, event_id: str, value: object, issues: list[str]) -> float | None:
    """An adjusted bid or a probability that is not a float, as a float if it is a number
    (``is_number``; an int beyond float range as an infinity), else None with its issue,
    worded by ``what`` and the event id, put in ``issues``."""
    if not is_number(value):
        issues.append(f"offer '{offer.ad_id}': {what} '{event_id}' must be a number, got {brief(value)}")
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def value_at_slot(offer: AdjustedOffer, slots: SlotModel | None, slot: int) -> float:
    """Expected adjusted value, a float, with click probabilities taken from the slot
    model. Each adjusted bid and probability is read as the auction reads it: a number
    as a float (an int beyond float range as an infinity), anything else a ScenarioError
    issue, one per event. Raises ScenarioError for an ``offer`` that is not an
    ``AdjustedOffer`` and ``slots`` that are not a SlotModel or None; KeyMismatchError,
    naming the ad, for adjusted bids not keyed to their events; and ScenarioError, from
    ``SlotModel.click_probability``, for a slot not in 1..k, with k 1 when ``slots`` is None."""
    issues = [] if isinstance(offer, AdjustedOffer) else [f"offer must be an AdjustedOffer, got {brief(offer)}"]
    issues += slot_model_issues(slots)
    if issues:
        raise ScenarioError(issues)
    events, adjusted = offer.events, offer.adjusted
    ids = tuple(map(_EVENT_ID, events))
    if tuple(adjusted) != ids:  # bids keyed out of event order are re-keyed once
        require_same_keys(ids, adjusted, f"offer '{offer.ad_id}': adjusted bids")
        adjusted = {eid: adjusted[eid] for eid in ids}
    override = (slots or _ONE_SLOT).click_probability(offer.ad_id, slot)
    total = 0.0
    for ev, bid in zip(events, adjusted.values()):
        p = ev.probability
        if type(bid) is not float and (bid := _read(offer, "adjusted bid on", ev.event_id, bid, issues)) is None:
            continue  # one issue per event
        if type(p) is not float and (p := _read(offer, "probability of", ev.event_id, p, issues)) is None:
            continue
        total += bid * (override if (override is not None and ev.kind is EventKind.CLICK) else p)
    if issues:
        raise ScenarioError(issues)
    return total


def run_first_price(
    offers: Sequence[AdjustedOffer],
    slots: SlotModel | None = None,
    reserve: float = 0.0,
) -> AuctionOutcome:
    """Fill slots greedily; every winner pays its own adjusted bid per event."""
    return _run(offers, slots, reserve, FIRST_PRICE)


def run_second_price(
    offers: Sequence[AdjustedOffer],
    slots: SlotModel | None = None,
    reserve: float = 0.0,
) -> AuctionOutcome:
    """Fill slots greedily; each winner's prices are scaled to the next value."""
    return _run(offers, slots, reserve, SECOND_PRICE)


def _run(offers: Sequence[AdjustedOffer], slots: SlotModel | None, reserve: float, rule: str) -> AuctionOutcome:
    """Both pricing rules in one greedy loop over the slots.

    Reproduces the slot-by-slot greedy auction that calls ``value_at_slot``
    per offer and slot, bit for bit on finite values, reading each bid and
    probability once per ad; no offers give no winners.
    Raises ScenarioError on a bad reserve, slots that are not a SlotModel or
    None, offers that are not a tuple or list, each entry that is not an
    ``AdjustedOffer``, each ad_id that is not a string, each repeated ad_id,
    each event whose adjusted bid or probability is not a number, and each ad
    whose value is not finite at the first slot where any value is not;
    KeyMismatchError, naming the ad, for adjusted bids not keyed to their events.
    """
    issues = reserve_issues(reserve) + slot_model_issues(slots)
    if not isinstance(offers, (tuple, list)):  # the loop below would use up a generator
        issues.append(f"offers must be a tuple or list, got {brief(offers)}")
        offers = ()
    for i, offer in enumerate(offers):
        if not isinstance(offer, AdjustedOffer):
            issues.append(f"offers[{i}] must be an AdjustedOffer, got {brief(offer)}")
        elif not isinstance(offer.ad_id, str):
            issues.append(f"ad_id must be a string, got {brief(offer.ad_id)}")
    if issues:
        raise ScenarioError(issues)
    reserve = float(reserve)  # a numpy reserve would price every winner in numpy floats

    # Offers whose expected impact exceeds their value never enter the ranking.
    # Offers stay in ad_id order, so the first of equal values is the tie-break.
    remaining = [o for o in offers if o.expected_value >= 0.0]
    remaining.sort(key=_AD_ID)
    ad_ids = list(map(_AD_ID, remaining))
    repeated = {a for a, b in zip(ad_ids, ad_ids[1:]) if a == b}
    if repeated:
        raise ScenarioError([f"duplicate ad_id '{ad_id}'" for ad_id in sorted(repeated)])
    slots = slots or _ONE_SLOT
    k, rows = slots.k, slots.ctr

    # An ad's fold up to its first click event is its head, the same in every
    # slot. An ad with a ctr row keeps the row and the rest of its events as
    # (bid, probability) terms, None where the row replaces the probability.
    heads, tails = [], []
    for offer in remaining:
        events, adjusted = offer.events, offer.adjusted
        ids = tuple(map(_EVENT_ID, events))
        if tuple(adjusted) != ids:  # as in value_at_slot
            require_same_keys(ids, adjusted, f"offer '{offer.ad_id}': adjusted bids")
            adjusted = {eid: adjusted[eid] for eid in ids}
        row = rows.get(offer.ad_id)
        head, terms = 0.0, None
        for e, bid in zip(events, adjusted.values()):
            p = e.probability
            if type(bid) is not float and (bid := _read(offer, "adjusted bid on", e.event_id, bid, issues)) is None:
                continue  # one issue per event
            if type(p) is not float and (p := _read(offer, "probability of", e.event_id, p, issues)) is None:
                continue
            if terms is not None:
                terms.append((bid, None if e.kind is EventKind.CLICK else p))
            elif row is not None and e.kind is EventKind.CLICK:
                terms = [(bid, None)]
            else:
                head += bid * p
        heads.append(head)
        tails.append(None if terms is None else (row, terms))
    if issues:
        raise ScenarioError(issues)

    def column(slot: int) -> list[float]:
        """Each unplaced ad's value in ``slot``, in ad_id order: its head, then
        its terms folded left to right, the additions ``value_at_slot`` makes."""
        values = []
        for value, tail in zip(heads, tails):
            if tail is not None:
                row, terms = tail
                click = row[slot - 1]
                for bid, p in terms:
                    value += bid * (click if p is None else p)
            values.append(value)
        if not all(map(math.isfinite, values)):
            broken = [a for a, value in zip(ad_ids, values) if not math.isfinite(value)]
            raise ScenarioError([f"offer '{ad_id}': value in a slot is not finite" for ad_id in broken])
        return values

    winners: list[SlotAward] = []
    slot = 0
    # Each offer fills at most one slot, and is valued in each slot until then.
    for slot in range(1, min(k, len(remaining)) + 1):
        live = column(slot)
        own_value = max(live)  # the first of the best in ad_id order
        if own_value < reserve:
            break
        best = live.index(own_value)
        winner = remaining.pop(best)
        del ad_ids[best], heads[best], tails[best], live[best]

        if rule == FIRST_PRICE:
            theta = 1.0
        else:
            # competitors only; with none left the reserve prices the slot
            next_value = max(max(live, default=reserve), reserve)
            theta = next_value / own_value if own_value > 0.0 else 0.0
        prices = {e.event_id: theta * float(winner.adjusted[e.event_id]) for e in winner.events}
        winners.append(SlotAward(winner.ad_id, slot, prices, own_value, theta))

    ranking = [(w.ad_id, w.value) for w in winners]
    # The unplaced offers by their value in slot k, which the loop holds if it
    # reached slot k; the sort is stable, so ties stay in ad_id order.
    ranking += sorted(zip(ad_ids, live if slot == k else column(k)), key=_VALUE, reverse=True)
    return AuctionOutcome(pricing_rule=rule, ranking=tuple(ranking), winners=tuple(winners))
