"""Bid adjustment: subtract user-experience charges before the auction.

The five scalar functions cover the classic price-type/charge combinations on
a two-event (view, click) offer. ``adjust_general`` handles arbitrary event
sets via a shift plan. The scalar forms are independent transcriptions, not
wrappers over the general method, so agreement between the two is a real
cross-check exercised by the test suite.

Adjusted bids may come out negative; callers decide exclusion (an offer whose
expected adjusted value is negative should not enter the auction) rather than
have values silently clamped here.
"""

from __future__ import annotations

from typing import Mapping

from .model import AdjustedOffer, Offer, ShiftPlan, fold_sum, require_same_keys


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


def expected_value(bids: Mapping[str, float], probs: Mapping[str, float]) -> float:
    """Sum of bid * probability over events; the offer's value to the auction.

    Both mappings must carry exactly the same keys. Summation runs left to
    right in the key order of ``probs``, which ``Offer.probabilities`` gives
    in declared event order, so the result equals the slot-1 value
    ``auction.value_at_slot`` computes for an ad without a ctr row.
    """
    require_same_keys(tuple(probs), bids, "bids")
    return fold_sum(bids[eid] * p for eid, p in probs.items())


def adjust_general(offer: Offer, plan: ShiftPlan) -> AdjustedOffer:
    """Enter bid minus shifted charge per event; works for any price type.

    The plan must be keyed to the offer's event set. The returned offer
    satisfies adjusted[i] == bids[i] - shifted[i] exactly and carries the
    expected value of the adjusted bids under the offer's probabilities.
    """
    ids = offer.event_ids
    require_same_keys(ids, offer.bids, "offer bids")
    require_same_keys(ids, plan.shifted, "shift plan")
    adjusted = {eid: offer.bids[eid] - plan.shifted[eid] for eid in ids}
    return AdjustedOffer(
        ad_id=offer.ad_id,
        events=offer.events,
        adjusted=adjusted,
        expected_value=expected_value(adjusted, offer.probabilities),
    )
