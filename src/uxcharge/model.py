"""Domain model: events, offers, charges, shift plans, and settlements.

All value objects are frozen dataclasses; nothing mutates after construction,
so instances are safe to share across threads. Construction is permissive
(invalid offers can be built, and ``validate_offer`` lists their violations,
an empty list when valid), while derived objects such as ``AdjustedOffer``
are produced only by the operations that guarantee their invariants. The
``*_from_dict`` readers take every JSON number through ``number`` and every
id through ``text``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Tolerance for money/probability identities checked during validation.
VALIDATION_TOL = 1e-9


def approx_eq(x: float, y: float, tol: float = VALIDATION_TOL) -> bool:
    """True when x and y agree to ``tol``, relative above unit magnitude."""
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def fold_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right.

    Every float sum in the pipeline goes through here or ``fold_columns``,
    over an offer's events in declared order. Builtin ``sum()`` compensates
    rounding from Python 3.12 on, and ``np.sum``, ``@`` and ``dot`` reorder
    the additions by numpy version and BLAS/SIMD dispatch; none is used.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def fold_columns(x: np.ndarray) -> np.ndarray:
    """Sums over axis 1 of ``x``, each taken left to right like ``fold_sum``.

    For a 2-D array these are the row sums. ``np.sum`` and ``@`` reorder the
    additions; this column loop keeps the bits of the scalar fold, so array
    and per-offer paths agree exactly. Zero padding at the end of a row
    leaves its sum unchanged.
    """
    total = np.zeros(x.shape[:1] + x.shape[2:])
    for i in range(x.shape[1]):
        total += x[:, i]
    return total


class KeyMismatchError(ValueError):
    """Per-event collections are not keyed to the same event ids."""


class EventKind(str, Enum):
    VIEW = "view"
    CLICK = "click"
    CONVERSION = "conversion"
    CUSTOM = "custom"


class PriceType(str, Enum):
    CPM = "cpm"
    CPC = "cpc"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class EventSpec:
    """One observable event (view, click, conversion, custom) and its probability."""

    event_id: str
    kind: EventKind
    probability: float


@dataclass(frozen=True)
class Offer:
    """An advertiser's per-event bids over an event set.

    ``bids`` maps event_id to the amount the advertiser pays when that event
    occurs. A CPM offer bids only on its view event, a CPC offer only on its
    click event; hybrid offers may bid on any subset.
    """

    ad_id: str
    price_type: PriceType
    events: tuple[EventSpec, ...]
    bids: Mapping[str, float]

    @property
    def event_ids(self) -> tuple[str, ...]:
        return tuple(e.event_id for e in self.events)

    @property
    def probabilities(self) -> dict[str, float]:
        return {e.event_id: e.probability for e in self.events}


@dataclass(frozen=True)
class ChargeSchedule:
    """Per-event user-experience charges, keyed by event id. All charges >= 0."""

    charges: Mapping[str, float]

    def for_events(self, events: tuple[EventSpec, ...]) -> dict[str, float]:
        """Restrict to one ad's event set, defaulting absent events to zero."""
        return {e.event_id: float(self.charges.get(e.event_id, 0.0)) for e in events}


@dataclass(frozen=True)
class ShiftPlan:
    """Redistributed per-event charges with the same expected total as the source.

    ``strategy`` is a label: "identity", "single:<event_id>", or "proportional".
    """

    shifted: Mapping[str, float]
    strategy: str


@dataclass(frozen=True)
class AdjustedOffer:
    """Per-event bids after subtracting shifted charges; what enters the auction.

    Carries the event specs so auctions can re-evaluate the offer under
    slot-specific click probabilities.
    """

    ad_id: str
    events: tuple[EventSpec, ...]
    adjusted: Mapping[str, float]
    expected_value: float

    @property
    def probabilities(self) -> dict[str, float]:
        return {e.event_id: e.probability for e in self.events}


@dataclass(frozen=True)
class SlotAward:
    """One winner: the slot it won, its per-event prices, and pricing detail.

    ``price_factor`` is the ratio applied to the winner's adjusted bids
    (1.0 under first pricing, next-value/own-value under second pricing).
    """

    ad_id: str
    slot: int
    prices: Mapping[str, float]
    value: float
    price_factor: float


@dataclass(frozen=True)
class AuctionOutcome:
    """Ranking and slot awards produced by one auction run."""

    pricing_rule: str
    ranking: tuple[tuple[str, float], ...]
    winners: tuple[SlotAward, ...]

    def award_for(self, ad_id: str) -> SlotAward | None:
        for award in self.winners:
            if award.ad_id == ad_id:
                return award
        return None


@dataclass(frozen=True)
class Settlement:
    """Itemized realized charge: line_items[i] = (price_i + shifted_i) * realized_i."""

    ad_id: str
    realized: Mapping[str, int]
    line_items: Mapping[str, float]
    total: float


def require_same_keys(reference: tuple[str, ...], mapping: Mapping[str, float], what: str) -> None:
    """Raise KeyMismatchError unless ``mapping`` is keyed exactly by ``reference``."""
    missing = [k for k in reference if k not in mapping]
    extra = [k for k in mapping if k not in reference]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unknown {sorted(extra)}")
        raise KeyMismatchError(f"{what} not keyed to the event set: {', '.join(parts)}")


def validate_offer(offer: Offer) -> list[str]:
    """Check every offer invariant; the list of violations is empty when valid.

    Checks: unique event ids, probabilities in [0, 1], exactly one view event
    with probability 1, a finite bid entry (>= 0) for every event and no stray
    entries, and price-type discipline (CPM bids only on the view event,
    CPC only on the click event).
    """
    violations: list[str] = []

    seen: set[str] = set()
    for ev in offer.events:
        if ev.event_id in seen:
            violations.append(f"duplicate event id '{ev.event_id}'")
        seen.add(ev.event_id)

    for ev in offer.events:
        if not (0.0 <= ev.probability <= 1.0):
            violations.append(
                f"probability out of range for '{ev.event_id}': {ev.probability!r}"
            )

    views = [e for e in offer.events if e.kind is EventKind.VIEW]
    if not views:
        violations.append("missing view event")
    elif len(views) > 1:
        violations.append("more than one view event")
    else:
        if not approx_eq(views[0].probability, 1.0):
            violations.append(
                f"view event must have probability 1, got {views[0].probability!r}"
            )

    ids = offer.event_ids
    for eid in ids:
        if eid not in offer.bids:
            violations.append(f"missing bid for event '{eid}'")
    for key in offer.bids:
        if key not in ids:
            violations.append(f"bid keyed to unknown event '{key}'")
    for key, amount in offer.bids.items():
        if not math.isfinite(amount):
            violations.append(f"non-finite bid on '{key}': {amount!r}")
        elif amount < 0.0:
            violations.append(f"negative bid on '{key}': {amount!r}")

    kind_by_id = {e.event_id: e.kind for e in offer.events}
    if offer.price_type is PriceType.CPM:
        allowed = EventKind.VIEW
    elif offer.price_type is PriceType.CPC:
        allowed = EventKind.CLICK
    else:
        allowed = None
    if allowed is not None:
        for key, amount in offer.bids.items():
            if amount > 0.0 and kind_by_id.get(key) is not allowed:
                violations.append(
                    f"{offer.price_type.value} offer bids on non-{allowed.value} event '{key}'"
                )

    return violations


# --- serialization -----------------------------------------------------------
#
# Dict forms round-trip structurally: parsing the dict emitted for any valid
# value reproduces an equal value. The CLI layers JSON on top of these.


def brief(value: object) -> str:
    """``repr`` of a rejected value, cut to 40 characters (huge integers too)."""
    shown = repr(value)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def number(value: object, what: str, key: str | None = None) -> float:
    """A JSON int or float as a finite float; else ValueError naming ``what`` and ``key``."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return value
    elif kind is int:
        try:
            return float(value)
        except OverflowError:
            pass
    # a bool, string, null, non-finite value or int beyond float range; format only now
    name = what if key is None else f"{what} {key!r}"
    raise ValueError(f"{name} must be a finite number, got {brief(value)}")


def text(value: object, what: str) -> str:
    """A JSON string; ValueError naming ``what`` otherwise."""
    if type(value) is str:
        return value
    raise ValueError(f"{what} must be a string, got {brief(value)}")


def event_to_dict(event: EventSpec) -> dict:
    return {"id": event.event_id, "kind": event.kind.value, "prob": event.probability}


def event_from_dict(doc: Mapping) -> EventSpec:
    event_id = text(doc["id"], "event 'id'")
    return EventSpec(event_id, EventKind(doc["kind"]), number(doc["prob"], "'prob' of", event_id))


def offer_to_dict(offer: Offer) -> dict:
    return {
        "ad_id": offer.ad_id,
        "price_type": offer.price_type.value,
        "events": [event_to_dict(e) for e in offer.events],
        "bids": {eid: float(offer.bids[eid]) for eid in offer.bids},
    }


def offer_from_dict(doc: Mapping, events: tuple[EventSpec, ...] = ()) -> Offer:
    """Parse an offer over its own "events", else ``events``; absent bids default to 0."""
    if not isinstance(doc, Mapping):
        raise TypeError(f"offer must be an object, got {brief(doc)}")
    if "events" in doc:
        events = tuple(event_from_dict(e) for e in doc["events"])
    raw = doc.get("bids", {})
    if not isinstance(raw, Mapping):
        raise TypeError("'bids' must be an object")
    bids = {e.event_id: number(raw.get(e.event_id, 0.0), "bid on", e.event_id) for e in events}
    # stray keys stay, for validate_offer to itemize
    bids.update({k: number(v, "bid on", k) for k, v in raw.items() if k not in bids})
    return Offer(
        ad_id=text(doc["ad_id"], "'ad_id'"),
        price_type=PriceType(doc["price_type"]),
        events=events,
        bids=bids,
    )


def charges_to_dict(schedule: ChargeSchedule) -> dict:
    return {eid: float(amount) for eid, amount in schedule.charges.items()}


def charges_from_dict(doc: Mapping) -> ChargeSchedule:
    if not isinstance(doc, Mapping):
        raise TypeError(f"charge schedule must be an object, got {brief(doc)}")
    return ChargeSchedule(charges={k: number(v, "charge on", k) for k, v in doc.items()})
