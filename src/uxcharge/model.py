"""Domain model: events, offers, charges, shift plans, and settlements.

All value objects are frozen dataclasses; nothing mutates after construction,
so instances are safe to share across threads. Construction is permissive
(invalid offers can be built, and ``validate_offer`` lists their violations,
an empty list when valid), while derived objects such as ``AdjustedOffer``
are produced only by the operations that guarantee their invariants. The
``*_from_dict`` readers take every JSON number through ``number``, every
id through ``text`` and every kind and price type through ``member``, and
raise ValueError only.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import attrgetter, methodcaller
from typing import Any

import numpy as np

# Tolerance for money/probability identities checked during validation.
VALIDATION_TOL = 1e-9

#: The one version of the scenario, ``adjust`` and report documents.
FORMAT_VERSION = 1


def approx_eq(x: float, y: float) -> bool:
    """True when x and y agree to ``VALIDATION_TOL``, relative above unit magnitude.

    An infinity agrees only with itself: its bound would be infinite too.
    """
    return x == y or abs(x - y) <= VALIDATION_TOL * max(1.0, abs(x), abs(y)) < math.inf


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
    """Sums over the last axis of ``x``, each taken left to right like ``fold_sum``.

    For a 2-D array these are the row sums. ``np.sum`` and ``@`` reorder the
    additions; this column loop keeps the bits of the scalar fold, so array
    and per-offer paths agree exactly. Zero padding at the end of a row
    leaves its sum unchanged.
    """
    total = np.zeros(x.shape[:-1])
    for i in range(x.shape[-1]):
        total += x[..., i]
    return total


# The array passes (validation, adjustment, the auction) share one layout, the
# offers x events matrix: row i holds offer i's entries in declared event order,
# then zeros up to the widest offer, which leave ``fold_columns`` unchanged.

_EVENTS = attrgetter("events")
_EVENT_ID = attrgetter("event_id")
_VALUES = methodcaller("values")


def flat_events(offers: Sequence[Offer | AdjustedOffer]) -> tuple[list[EventSpec], list[str], list[int]]:
    """Every offer's events in one list, offer after offer, their ids, and each offer's count."""
    per_offer = list(map(_EVENTS, offers))
    events = list(chain.from_iterable(per_offer))
    return events, list(map(_EVENT_ID, events)), list(map(len, per_offer))


def event_bids(
    bid_maps: Sequence[Mapping[str, float]], ids: list[str], widths: list[int]
) -> tuple[list, list[bool]]:
    """The amounts of each mapping (``Offer.bids``, ``AdjustedOffer.adjusted``)
    in its offer's event order, in one list like ``ids``, and whether each
    mapping is ``keyed`` to its offer's event ids.

    A mapping that is not keyed, a repeated event id included, gives zeros.
    """
    if list(map(len, bid_maps)) == widths and list(chain.from_iterable(bid_maps)) == ids:
        # every mapping's keys are its offer's event ids in order, so those are unique
        return list(chain.from_iterable(map(_VALUES, bid_maps))), [True] * len(bid_maps)
    amounts: list = []
    found: list[bool] = []
    start = 0
    for bid_map, width in zip(bid_maps, widths):
        row = ids[start:start + width]
        start += width
        found.append(keyed(row, bid_map))
        amounts += [bid_map[eid] for eid in row] if found[-1] else [0.0] * width
    return amounts, found


def padded(flat: np.ndarray, widths: list[int]) -> np.ndarray:
    """The offers x events matrix of a flat column: row i holds offer i's
    ``widths[i]`` entries, then zeros up to the widest offer."""
    n, width = len(widths), max(widths, default=0)
    if len(flat) == n * width:
        return flat.reshape(n, width)
    matrix = np.zeros((n, width), dtype=flat.dtype)
    matrix[np.arange(width) < np.array(widths)[:, None]] = flat
    return matrix


class KeyMismatchError(ValueError):
    """A per-event mapping is not ``keyed`` to its event set (a missing or unknown
    key, or a repeated event id); raised wherever an offer enters the library."""


class ScenarioError(ValueError):
    """Invalid input; ``issues`` itemizes every problem found, one string each.

    Raised where each rule is checked: the CLI's command-line and document
    readers, ``sim.prepare``, ``auction.SlotModel`` (every slot rule: k, the
    ctr rows, and a slot index outside 1..k), the auctions (bad reserve,
    repeated ad_id, non-finite slot value), ``sim.run_auction`` (unknown
    pricing rule) and ``sim.run_scenario``.
    """

    def __init__(self, issues: Sequence[str]):
        super().__init__("; ".join(issues))
        self.issues = tuple(issues)


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


@dataclass(frozen=True)
class ChargeSchedule:
    """Per-event user-experience charges, keyed by event id. All charges >= 0."""

    charges: Mapping[str, float]


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


@dataclass(frozen=True)
class Settlement:
    """Itemized realized charge: line_items[i] = (price_i + shifted_i) * realized_i."""

    ad_id: str
    realized: Mapping[str, int]
    line_items: Mapping[str, float]
    total: float


def keyed(ids: Sequence[str], mapping: Mapping) -> bool:
    """Whether ``mapping`` is keyed to the event set ``ids``: its keys are
    exactly the ids, and no id repeats, so each event counts once."""
    return len(mapping) == len(ids) and mapping.keys() == set(ids)


def require_same_keys(reference: Sequence[str], mapping: Mapping[str, float], what: str) -> None:
    """Raise KeyMismatchError, prefixed with ``what``, unless ``mapping`` is
    ``keyed`` to the event set ``reference``; a repeated id is worded first."""
    if keyed(reference, mapping):
        return
    repeated = sorted({k for k in reference if reference.count(k) > 1})
    if repeated:
        raise KeyMismatchError(f"{what}: event ids repeat in the event set: {repeated}")
    missing = [k for k in reference if k not in mapping]
    extra = [k for k in mapping if k not in reference]
    parts = []
    if missing:
        parts.append(f"missing {sorted(missing)}")
    if extra:
        parts.append(f"unknown {sorted(extra)}")
    raise KeyMismatchError(f"{what} not keyed to the event set: {', '.join(parts)}")


def expected_sum(amounts: Mapping[str, float], events: Sequence[EventSpec], what: str) -> float:
    """Sum of amount * probability over ``events``, folded in declared order, with
    ``amounts`` keyed to the events (``require_same_keys``, prefixed with ``what``):
    an ad's expected charge, offer value, shifted total or adjusted value."""
    require_same_keys(list(map(_EVENT_ID, events)), amounts, what)
    return fold_sum(amounts[e.event_id] * e.probability for e in events)


def event_set_issues(events: Sequence[EventSpec]) -> list[str]:
    """Check an event set's invariants; the list of violations is empty when valid.

    Checks: unique event ids, probabilities in [0, 1], and exactly one view
    event, with probability 1. Scenario offers and ``adjust`` records share it.
    """
    violations: list[str] = []

    seen: set[str] = set()
    for ev in events:
        if ev.event_id in seen:
            violations.append(f"duplicate event id '{ev.event_id}'")
        seen.add(ev.event_id)

    for ev in events:
        if not (0.0 <= ev.probability <= 1.0):
            violations.append(
                f"probability out of range for '{ev.event_id}': {ev.probability!r}"
            )

    views = [e for e in events if e.kind is EventKind.VIEW]
    if not views:
        violations.append("missing view event")
    elif len(views) > 1:
        violations.append("more than one view event")
    else:
        if not approx_eq(views[0].probability, 1.0):
            violations.append(
                f"view event must have probability 1, got {views[0].probability!r}"
            )
    return violations


def validate_offer(offer: Offer) -> list[str]:
    """Check every offer invariant; the list of violations is empty when valid.

    Checks: the event set (``event_set_issues``), a finite bid entry (>= 0)
    for every event and no stray entries, and price-type discipline (CPM
    bids only on the view event, CPC only on the click event).
    """
    violations = event_set_issues(offer.events)

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


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def text(value: object, what: str) -> str:
    """A JSON string of Unicode text; ValueError naming ``what`` otherwise.

    An unpaired ``\\ud800``-style escape reads as a lone surrogate, which no
    UTF-8 output (the CSV summary) can encode.
    """
    if type(value) is str and (value.isascii() or not _SURROGATE.search(value)):
        return value
    raise ValueError(f"{what} must be a string of Unicode text, got {brief(value)}")


def member(value: object, kind: type[Enum], what: str) -> Any:
    """The member of the enum ``kind`` with this value; else ValueError naming ``what``."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(m.value for m in kind)
        raise ValueError(f"{what} must be one of {allowed}, got {brief(value)}") from None


def event_to_dict(event: EventSpec) -> dict:
    return {"id": event.event_id, "kind": event.kind.value, "prob": event.probability}


def require_fields(doc: object, fields: tuple[str, ...]) -> None:
    """ValueError unless ``doc`` is a JSON object holding every one of ``fields``."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"must be an object, got {brief(doc)}")
    for field in fields:
        if field not in doc:
            raise ValueError("missing field " + ", ".join(repr(f) for f in fields if f not in doc))


def event_from_dict(doc: Mapping) -> EventSpec:
    require_fields(doc, ("id", "kind", "prob"))
    event_id = text(doc["id"], "event 'id'")
    kind = member(doc["kind"], EventKind, "'kind'")
    return EventSpec(event_id, kind, number(doc["prob"], "'prob' of", event_id))


def read_each(doc: Mapping, key: str, read: Callable[[Any], Any], issues: list[str]) -> list:
    """``read`` of each entry of the array ``doc[key]``; problems go to ``issues``."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        issues.append(f"{key!r} must be an array")
        return []
    values = []
    for i, entry in enumerate(entries):
        try:
            values.append(read(entry))
        except ValueError as exc:
            issues.append(f"{key}[{i}]: {exc}")
    return values


def read_events(doc: Mapping) -> tuple[EventSpec, ...]:
    """The events of ``doc["events"]``; ValueError itemizes every bad entry."""
    issues: list[str] = []
    events = read_each(doc, "events", event_from_dict, issues)
    if issues:
        raise ValueError("; ".join(issues))
    return tuple(events)


def offer_to_dict(offer: Offer) -> dict:
    return {
        "ad_id": offer.ad_id,
        "price_type": offer.price_type.value,
        "events": [event_to_dict(e) for e in offer.events],
        "bids": {eid: float(offer.bids[eid]) for eid in offer.bids},
    }


def offer_from_dict(doc: Mapping, events: tuple[EventSpec, ...] = ()) -> Offer:
    """Parse an offer over its own "events", else ``events``; absent bids default to 0."""
    require_fields(doc, ("ad_id", "price_type"))
    if "events" in doc:
        events = read_events(doc)
    raw = doc.get("bids", {})
    if not isinstance(raw, Mapping):
        raise ValueError(f"'bids' must be an object, got {brief(raw)}")
    bids = {e.event_id: number(raw.get(e.event_id, 0.0), "bid on", e.event_id) for e in events}
    # stray keys stay, for validate_offer to itemize
    bids.update({k: number(v, "bid on", k) for k, v in raw.items() if k not in bids})
    return Offer(
        ad_id=text(doc["ad_id"], "'ad_id'"),
        price_type=member(doc["price_type"], PriceType, "'price_type'"),
        events=events,
        bids=bids,
    )


def charges_from_dict(doc: Mapping) -> ChargeSchedule:
    if not isinstance(doc, Mapping):
        raise ValueError(f"charge schedule must be an object, got {brief(doc)}")
    return ChargeSchedule(charges={k: number(v, "charge on", k) for k, v in doc.items()})
