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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter, is_, not_
from typing import Mapping, Sequence

import numpy as np

from .model import (
    AdjustedOffer,
    AuctionOutcome,
    EventKind,
    ScenarioError,
    SlotAward,
    brief,
    event_bids,
    flat_events,
    fold_columns,
    padded,
    require_same_keys,
)

FIRST_PRICE = "first"
SECOND_PRICE = "second"

_AD_ID = attrgetter("ad_id")
_ADJUSTED = attrgetter("adjusted")
_KIND = attrgetter("kind")
_PROBABILITY = attrgetter("probability")


@dataclass(frozen=True)
class SlotModel:
    """Slot count plus per-ad, per-slot click probabilities.

    ``ctr[ad_id][j]`` is the click probability for that ad when shown in slot
    j+1. Ads absent from ``ctr`` keep their declared click probability in
    every slot. Each row is a list or tuple of k int or float entries in
    [0, 1], nonincreasing: lower slots never click better. Raises
    ScenarioError on the first rule broken.
    """

    k: int
    ctr: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ScenarioError([f"slot count must be >= 1, got {self.k}"])
        for ad_id, row in self.ctr.items():
            if not isinstance(row, (list, tuple)):
                raise ScenarioError([f"ctr row for '{ad_id}' must be an array, got {brief(row)}"])
            if len(row) != self.k:
                raise ScenarioError(
                    [f"ctr row for '{ad_id}' has {len(row)} entries, expected {self.k}"]
                )
            for p in row:
                if type(p) is not float and (type(p) is bool or not isinstance(p, (int, float))):
                    raise ScenarioError(
                        [f"ctr entry for '{ad_id}' must be a number, got {brief(p)}"]
                    )
                if not (0.0 <= p <= 1.0):
                    raise ScenarioError([f"ctr out of range for '{ad_id}': {p!r}"])
            for a, b in zip(row, row[1:]):
                if b > a:
                    raise ScenarioError(
                        [f"ctr row for '{ad_id}' must be nonincreasing across slots"]
                    )

    def click_probability(self, ad_id: str, slot: int) -> float | None:
        """Click probability override for ``ad_id`` in 1-based ``slot``, if any."""
        row = self.ctr.get(ad_id)
        return None if row is None else row[slot - 1]


def pricing_rule_issues(rule: str) -> list[str]:
    """The pricing rule is first or second; an empty list when it is."""
    if rule in (FIRST_PRICE, SECOND_PRICE):
        return []
    return [f"unknown pricing rule {rule!r}"]


def reserve_issues(reserve: float) -> list[str]:
    """The reserve rule: a finite expected-value floor >= 0; an empty list when it holds."""
    if math.isfinite(reserve) and reserve >= 0.0:
        return []
    return [f"reserve must be a finite number >= 0, got {reserve!r}"]


def value_at_slot(offer: AdjustedOffer, slots: SlotModel | None, slot: int) -> float:
    """Expected adjusted value with click probabilities taken from the slot model.
    Raises KeyMismatchError, naming the ad, for adjusted bids not keyed to their events."""
    ids = [e.event_id for e in offer.events]
    require_same_keys(ids, offer.adjusted, f"offer '{offer.ad_id}': adjusted bids")
    override = slots.click_probability(offer.ad_id, slot) if slots else None
    total = 0.0
    for ev in offer.events:
        p = override if (override is not None and ev.kind is EventKind.CLICK) else ev.probability
        total += offer.adjusted[ev.event_id] * p
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


@np.errstate(over="ignore", invalid="ignore")  # _run rejects non-finite values
def _slot_values(
    offers: Sequence[AdjustedOffer], slots: SlotModel | None, columns: Sequence[int]
) -> np.ndarray:
    """``value_at_slot`` of every offer in each 1-based slot of ``columns``: a row per slot.

    Each value is a left-to-right fold over the offer's events in declared
    order, with every click event's probability replaced by the ad's ctr row
    when it has one, exactly as ``value_at_slot`` sums. Raises
    KeyMismatchError, naming the ad, for adjusted bids not keyed to their events.
    """
    events, ids, widths = flat_events(offers)
    bids, keyed = event_bids(list(map(_ADJUSTED, offers)), ids, widths)
    for offer in compress(offers, map(not_, keyed)):
        value_at_slot(offer, None, 1)  # raises KeyMismatchError, naming the ad
    ctr = slots.ctr if slots else {}
    rows = list(map(ctr.get, map(_AD_ID, offers)))
    # the kind whose probability an ad's ctr row replaces: none without a row
    replaced = [None if row is None else EventKind.CLICK for row in rows]
    clicks = map(is_, map(_KIND, events), chain.from_iterable(map(repeat, replaced, widths)))
    B = padded(np.array(bids, dtype=float), widths)
    P = padded(np.fromiter(map(_PROBABILITY, events), dtype=float, count=len(events)), widths)
    C = padded(np.fromiter(clicks, dtype=bool, count=len(events)), widths)
    R = np.array([0.0 if row is None else row[j - 1] for j in columns for row in rows], dtype=float)
    terms = B * np.where(C, R.reshape(len(columns), len(offers), 1), P)  # slot x offer x event
    return fold_columns(terms)


def _run(
    offers: Sequence[AdjustedOffer],
    slots: SlotModel | None,
    reserve: float,
    rule: str,
) -> AuctionOutcome:
    """Both pricing rules over one slots x offers value matrix.

    Reproduces the slot-by-slot greedy auction that calls ``value_at_slot``
    per offer and slot, bit for bit on finite values; no offers give no winners.
    Raises ScenarioError on a bad reserve, each repeated ad_id or non-finite slot value.
    """
    issues = reserve_issues(reserve)
    if issues:
        raise ScenarioError(issues)

    # Offers whose expected impact exceeds their value never enter the ranking.
    # Offers stay in ad_id order, so the first of equal values is the tie-break.
    remaining = sorted((o for o in offers if o.expected_value >= 0.0), key=_AD_ID)
    ad_ids = list(map(_AD_ID, remaining))
    repeated = {a for a, b in zip(ad_ids, ad_ids[1:]) if a == b}
    if repeated:
        raise ScenarioError([f"duplicate ad_id '{ad_id}'" for ad_id in sorted(repeated)])
    if not remaining:
        return AuctionOutcome(pricing_rule=rule, ranking=(), winners=())
    # Each offer fills at most one slot, and the leftover ranking reads slot k.
    k = slots.k if slots else 1
    filled = min(k, len(remaining))
    columns = [*range(1, filled + 1)] + ([k] if filled < k else [])
    values = _slot_values(remaining, slots, columns)
    broken = [ad_ids[i] for i in np.flatnonzero(~np.isfinite(values).all(axis=0))]
    if broken:
        raise ScenarioError([f"offer '{ad_id}': value in a slot is not finite" for ad_id in broken])

    winners: list[SlotAward] = []
    for slot in range(1, filled + 1):
        # Placed offers read -inf; every slot value is finite, so argmax
        # finds the best offer still unplaced, the first one among ties.
        live = values[slot - 1]
        row = int(live.argmax())
        own_value = float(live[row])
        if own_value < reserve:
            break
        winner = remaining[row]
        values[:, row] = -np.inf

        if rule == FIRST_PRICE:
            theta = 1.0
        else:
            # competitors only; with none left the reserve prices the slot
            next_value = max(float(live.max()), reserve)
            theta = next_value / own_value if own_value > 0.0 else 0.0

        prices = {e.event_id: theta * winner.adjusted[e.event_id] for e in winner.events}
        winners.append(
            SlotAward(
                ad_id=winner.ad_id,
                slot=slot,
                prices=prices,
                value=own_value,
                price_factor=theta,
            )
        )

    ranking = [(w.ad_id, w.value) for w in winners]
    # Placed offers sort last; ties stay in ad_id order.
    left = np.argsort(-values[-1], kind="stable")[: len(remaining) - len(winners)]
    ranking.extend(zip([ad_ids[i] for i in left.tolist()], values[-1, left].tolist()))

    return AuctionOutcome(pricing_rule=rule, ranking=tuple(ranking), winners=tuple(winners))
