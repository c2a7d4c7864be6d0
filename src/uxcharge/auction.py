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

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, is_, is_not
from typing import Mapping, Sequence

import numpy as np

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
_ADJUSTED = attrgetter("adjusted")
_EVENTS = attrgetter("events")
_EVENT_ID = attrgetter("event_id")
_KIND = attrgetter("kind")
_PROBABILITY = attrgetter("probability")


@dataclass(frozen=True)
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


def value_at_slot(offer: AdjustedOffer, slots: SlotModel | None, slot: int) -> float:
    """Expected adjusted value with click probabilities taken from the slot model.
    Raises KeyMismatchError, naming the ad, for adjusted bids not keyed to their
    events, and ScenarioError, from ``SlotModel.click_probability``, for a slot
    not in 1..k."""
    events, adjusted = offer.events, offer.adjusted
    require_same_keys(tuple(map(_EVENT_ID, events)), adjusted, f"offer '{offer.ad_id}': adjusted bids")
    override = slots.click_probability(offer.ad_id, slot) if slots else None
    total = 0.0
    for ev in events:
        p = override if (override is not None and ev.kind is EventKind.CLICK) else ev.probability
        total += adjusted[ev.event_id] * p
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


# The auction's layout is the offers x events matrix: row i holds offer i's
# entries in declared event order, then zeros up to the widest offer, which
# leave ``fold_columns`` unchanged.


def fold_columns(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``x``, each taken left to right like
    ``model.fold_sum``. ``np.sum`` and ``@`` reorder the additions; this
    column loop keeps the bits of the per-offer fold."""
    total = np.zeros(x.shape[:-1])
    for i in range(x.shape[-1]):
        total += x[..., i]
    return total


def padded(flat: np.ndarray, widths: list[int]) -> np.ndarray:
    """The offers x events matrix of a flat column: row i holds offer i's
    ``widths[i]`` entries, then zeros up to the widest offer."""
    n, width = len(widths), max(widths, default=0)
    if len(flat) == n * width:
        return flat.reshape(n, width)
    matrix = np.zeros((n, width), dtype=flat.dtype)
    matrix[np.arange(width) < np.array(widths)[:, None]] = flat
    return matrix


@np.errstate(over="ignore", invalid="ignore")  # _run rejects non-finite values
def _slot_values(
    offers: Sequence[AdjustedOffer], ad_ids: list[str], slots: SlotModel | None, columns: Sequence[int]
) -> np.ndarray:
    """``value_at_slot`` of every offer, whose ids are ``ad_ids``, in each 1-based
    slot of ``columns``: a row per slot.

    Each value is a left-to-right fold over the offer's events in declared
    order, with every click event's probability replaced by the ad's ctr row
    when it has one, exactly as ``value_at_slot`` sums. Raises
    KeyMismatchError, naming the ad, for adjusted bids not keyed to their events.
    """
    per_offer = list(map(_EVENTS, offers))
    events = list(chain.from_iterable(per_offer))  # offer after offer
    ids, widths = list(map(_EVENT_ID, events)), list(map(len, per_offer))
    adjusted = list(map(_ADJUSTED, offers))
    if list(map(len, adjusted)) == widths and list(chain.from_iterable(adjusted)) == ids:
        # every mapping's keys are its offer's event ids in order
        bids = [amount for bid_map in adjusted for amount in bid_map.values()]
    else:
        for offer in offers:
            require_same_keys(
                tuple(map(_EVENT_ID, offer.events)), offer.adjusted, f"offer '{offer.ad_id}': adjusted bids"
            )
        bids = [offer.adjusted[e.event_id] for offer in offers for e in offer.events]
    rows = list(map((slots.ctr if slots else {}).get, ad_ids))
    has_row = np.fromiter(map(is_not, rows, repeat(None)), dtype=bool, count=len(rows))
    # each slot's ctr entry of each ad; 0.0, never read, for an ad without a row
    R = np.array([0.0 if row is None else row[j - 1] for j in columns for row in rows], dtype=float)
    clicks = np.fromiter(map(is_, map(_KIND, events), repeat(EventKind.CLICK)), dtype=bool, count=len(events))
    B = padded(np.array(bids, dtype=float), widths)
    P = padded(np.fromiter(map(_PROBABILITY, events), dtype=float, count=len(events)), widths)
    # the probability of each slot, offer and event: the ctr entry where it replaces the declared one
    Q = np.where(padded(clicks, widths) & has_row[:, None], R.reshape(len(columns), len(rows), 1), P)
    return fold_columns(np.multiply(B, Q, out=Q))


def _run(
    offers: Sequence[AdjustedOffer],
    slots: SlotModel | None,
    reserve: float,
    rule: str,
) -> AuctionOutcome:
    """Both pricing rules over one slots x offers value matrix.

    Reproduces the slot-by-slot greedy auction that calls ``value_at_slot``
    per offer and slot, bit for bit on finite values; no offers give no winners.
    Raises ScenarioError on a bad reserve, each ad_id that is not a string,
    each repeated ad_id or non-finite slot value.
    """
    issues = reserve_issues(reserve)
    issues += [f"ad_id must be a string, got {brief(a)}" for a in map(_AD_ID, offers) if not isinstance(a, str)]
    if issues:
        raise ScenarioError(issues)

    # Offers whose expected impact exceeds their value never enter the ranking.
    # Offers stay in ad_id order, so the first of equal values is the tie-break.
    remaining = [o for o in offers if o.expected_value >= 0.0]
    remaining.sort(key=_AD_ID)
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
    values = _slot_values(remaining, ad_ids, slots, columns)
    finite = np.isfinite(values)
    if not finite.all():
        broken = [ad_ids[i] for i in np.flatnonzero(~finite.all(axis=0))]
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
            next_value = max(float(live[live.argmax()]), reserve)
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
    last = values[-1]
    left = np.argsort(-last, kind="stable")[: len(remaining) - len(winners)].tolist()
    value = last.tolist()
    ranking.extend([(ad_ids[i], value[i]) for i in left])

    return AuctionOutcome(pricing_rule=rule, ranking=tuple(ranking), winners=tuple(winners))
