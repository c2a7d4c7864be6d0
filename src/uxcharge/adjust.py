"""Bid adjustment: subtract user-experience charges before the auction.

The five scalar functions cover the classic price-type/charge combinations on
a two-event (view, click) offer. ``adjust_general`` handles arbitrary event
sets via a shift plan. Its adjusted value, like ``shift``'s expected charge
and shifted total, is one ``model.expected_sum``. The scalar forms are
independent transcriptions, not wrappers over the general method, so
agreement between the two is a real cross-check exercised by the test suite.

Adjusted bids may come out negative; callers decide exclusion (an offer whose
expected adjusted value is negative should not enter the auction) rather than
have values silently clamped here.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .model import (
    AdjustedOffer,
    EventSpec,
    Offer,
    ShiftPlan,
    expected_sum,
    fold_expected,
    require_same_keys,
)


def adjust_cpc_view(b: float, p: float, v: float) -> float:
    """Per-view auction value for a per-click bid b with per-view charge v."""
    return b * p - v


def adjust_cpm_view(b: float, v: float) -> float:
    """Per-view auction value for a per-view bid b with per-view charge v."""
    return b - v


def adjust_cpm_click(b: float, p: float, c: float) -> float:
    """Per-view auction value for a per-view bid b with per-click charge c."""
    return b - c * p


def adjust_cpc_both(b: float, p: float, v: float, c: float) -> float:
    """Per-view auction value for a per-click bid b with both charges."""
    return (b - c) * p - v


def adjust_cpm_both(b: float, p: float, v: float, c: float) -> float:
    """Per-view auction value for a per-view bid b with both charges."""
    return b - v - c * p


def expected_value(bids: Mapping[str, float], events: Sequence[EventSpec]) -> float:
    """Sum of bid * probability over ``events`` in declared order (``model.expected_sum``):
    the offer's value to the auction, equal to the slot-1 value ``auction.value_at_slot``
    computes for an ad without a ctr row."""
    return expected_sum(bids, events, "bids")


def adjust_general(offer: Offer, plan: ShiftPlan) -> AdjustedOffer:
    """Enter bid minus shifted charge per event; works for any price type.

    Bids and plan must be keyed to the offer's event set. The returned offer
    satisfies adjusted[i] == bids[i] - shifted[i] exactly and carries the
    ``expected_value`` of the adjusted bids over the offer's events.
    """
    ids, bids, shifted = offer.event_ids, offer.bids, plan.shifted
    require_same_keys(ids, bids, "offer bids")
    require_same_keys(ids, shifted, "shift plan")
    # keyed to the events by construction, since the bids are
    adjusted = {eid: bids[eid] - shifted[eid] for eid in ids}
    return AdjustedOffer(
        ad_id=offer.ad_id,
        events=offer.events,
        adjusted=adjusted,
        expected_value=fold_expected(adjusted, offer.events),
    )
