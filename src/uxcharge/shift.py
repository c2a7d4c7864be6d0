"""Charge shifting: redistribute per-event charges without changing expectations.

A shift plan replaces the charge schedule c with charges d satisfying
sum(d_i * p_i) == sum(c_i * p_i), which leaves both the offer's adjusted
expected value and the winner's expected payment unchanged. Three
constructions are provided:

* identity      - d = c, the straightforward method.
* single-event  - the whole expected charge lands on one event (how a
                  per-view charge becomes a per-click surcharge v/p).
* proportional  - the expected charge is spread over a chargeable set in
                  proportion to bids, so the per-event cap d_i <= b_i holds
                  exactly when the total expected charge fits within the
                  offer's expected value.

Events with zero probability never receive shifted charge: they contribute
nothing to the identity and a charge on them is uncollectable in expectation.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

from .adjust import expected_value
from .model import (
    VALIDATION_TOL,
    ChargeSchedule,
    EventSpec,
    KeyMismatchError,
    Offer,
    ShiftPlan,
    approx_eq,
    brief,
    expected_sum,
    fold_sum,
    require_same_keys,
)

_EVENT_ID = attrgetter("event_id")


def total_expected_charge(charges: ChargeSchedule, events: tuple[EventSpec, ...]) -> float:
    """Expected user-experience charge sum(c_i * p_i), summed in declared event order."""
    return expected_sum(charges.charges, events, "charge schedule")


def is_feasible(offer: Offer, charges: ChargeSchedule) -> bool:
    """Whether the expected charge fits within the offer's expected value.

    False means the ad's expected user-experience impact exceeds what the
    advertiser offers in expectation; such an ad should not be entered into
    the auction at all.
    """
    expected_charge = total_expected_charge(charges, offer.events)
    return expected_charge <= expected_value(offer.bids, offer.events) + VALIDATION_TOL


def shift_identity(charges: ChargeSchedule) -> ShiftPlan:
    """Keep every charge on the event that incurred it (d = c)."""
    return ShiftPlan(shifted=dict(charges.charges), strategy="identity")


def shift_single_event(
    charges: ChargeSchedule, events: tuple[EventSpec, ...], target: str
) -> ShiftPlan:
    """Move the whole expected charge onto one event.

    d_target = sum(c_i * p_i) / p_target, zero elsewhere. The target must
    have positive probability or the charge can never be collected.
    """
    for event in events:
        if event.event_id == target:
            break
    else:
        raise KeyMismatchError(f"target event '{target}' not in the event set")
    if event.probability <= 0.0:
        raise ValueError(
            f"cannot shift charges onto '{target}': event probability is zero"
        )
    total = total_expected_charge(charges, events)
    shifted = dict.fromkeys(map(_EVENT_ID, events), 0.0)
    shifted[target] = total / event.probability
    return ShiftPlan(shifted=shifted, strategy=f"single:{target}")


def shift_proportional(
    charges: ChargeSchedule, offer: Offer, chargeable: Iterable[str]
) -> ShiftPlan:
    """Spread the expected charge over ``chargeable`` events, weighted by bids.

    With E = sum(c_i * p_i) and W = sum of b_j * p_j over the chargeable set,
    each chargeable event gets d_i = E * b_i / W. Then sum(d_i * p_i) == E by
    construction, and d_i <= b_i for all i exactly when E <= W. ``chargeable``
    that is a str or not an iterable of str event ids raises ValueError.
    """
    ids = offer.event_ids
    require_same_keys(ids, offer.bids, "offer bids")
    named = None if isinstance(chargeable, str) or not isinstance(chargeable, Iterable) else tuple(chargeable)
    if named is None or not all(isinstance(eid, str) for eid in named):
        raise ValueError(f"chargeable must be an iterable of event ids, got {brief(chargeable)}")
    chargeable = set(named)
    unknown = chargeable - set(ids)
    if unknown:
        raise KeyMismatchError(f"chargeable events {sorted(unknown)} not in the event set")
    weight = fold_sum(offer.bids[e.event_id] * e.probability for e in offer.events if e.event_id in chargeable)
    if weight <= 0.0:
        raise ValueError("chargeable set carries zero expected bid; cannot spread charges")
    total = total_expected_charge(charges, offer.events)
    # weight fraction first: keeps d_i finite even for extreme bid scales
    shifted = {
        eid: (total * (offer.bids[eid] / weight)) if eid in chargeable else 0.0
        for eid in ids
    }
    return ShiftPlan(shifted=shifted, strategy="proportional")


def validate_plan(
    plan: ShiftPlan,
    charges: ChargeSchedule,
    offer: Offer,
    nonnegative_bids: bool = False,
) -> list[str]:
    """Check the expected-charge identity and, optionally, the per-event cap.

    The identity sum(d_i * p_i) == sum(c_i * p_i) is checked to the standard
    validation tolerance. With ``nonnegative_bids`` on, additionally require
    d_i <= b_i per event so every adjusted bid stays nonnegative. Returns the
    violations, an empty list when the plan passes.
    """
    ids = offer.event_ids
    require_same_keys(ids, offer.bids, "offer bids")
    violations: list[str] = []

    shifted_total = expected_sum(plan.shifted, offer.events, "shift plan")
    charge_total = total_expected_charge(charges, offer.events)
    if not approx_eq(shifted_total, charge_total):
        violations.append(
            f"expected shifted charge {shifted_total!r} != expected charge {charge_total!r}"
        )

    if nonnegative_bids:
        for eid in ids:
            cap = offer.bids[eid] + VALIDATION_TOL * max(1.0, abs(offer.bids[eid]))
            if plan.shifted[eid] > cap:
                violations.append(
                    f"shifted charge on '{eid}' ({plan.shifted[eid]!r}) exceeds bid "
                    f"({offer.bids[eid]!r})"
                )

    return violations
