"""Domain model: events, offers, charges, shift plans, and settlements.

All value objects are frozen, slotted dataclasses with no ``__dict__``;
nothing mutates after construction, so instances are safe to share across
threads. Construction is permissive (invalid offers can be built, and
``validate_offer`` lists their violations, an empty list when valid), while
derived objects such as ``AdjustedOffer`` are produced only by the operations
that guarantee their invariants. The ``*_from_dict`` readers are the one
scenario reader: every JSON number goes through ``number`` and every id
through ``text`` (a finite float or an ASCII id passes inline), every kind and
price type through ``member``, one dict lookup. Each helper words every
failure of its field, so the readers raise ValueError only.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from operator import attrgetter
from typing import Any

# Tolerance for money/probability identities checked during validation.
VALIDATION_TOL = 1e-9

#: The one version of the scenario, ``adjust`` and report documents.
FORMAT_VERSION = 1


def approx_eq(x: float, y: float) -> bool:
    """True when x and y agree to ``VALIDATION_TOL``, relative above unit magnitude.

    An infinity agrees only with itself: its bound would be infinite too.
    """
    return x == y or abs(x - y) <= VALIDATION_TOL * max(1.0, abs(x), abs(y)) < math.inf


def is_number(value: object) -> bool:
    """A real number and not a bool, as every bid, probability, charge and
    reserve must be; the readers take JSON's ints and floats (``number``)."""
    return type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))


def is_finite(value: Real) -> bool:
    """Whether a number is finite in float range: an int beyond it is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def fold_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right.

    Every float sum in the pipeline is such a fold from 0.0, over an offer's
    events in declared order: this one, the loop of ``expected_sum``,
    ``fold_expected``, ``sim.prepare`` or ``auction.value_at_slot``, or the
    auction's head-then-terms fold of each ad's value in a slot.
    Builtin ``sum()`` compensates rounding from Python 3.12 on, and
    ``np.sum``, ``@`` and ``dot`` reorder the additions by numpy version and
    BLAS/SIMD dispatch; none is used.
    """
    total = 0.0
    for x in values:
        total += x
    return total


_EVENT_ID = attrgetter("event_id")


class KeyMismatchError(ValueError):
    """A per-event mapping is not ``keyed`` to its event set (a missing or unknown
    key, or a repeated event id); raised wherever an offer enters the library."""


class ScenarioError(ValueError):
    """Invalid input; ``issues`` itemizes every problem found, one string each.

    Raised where each rule is checked: the CLI's command-line and document
    readers, ``sim.prepare``, ``auction.SlotModel`` (every slot rule: k, the
    ctr rows, and a slot index outside 1..k), the auctions (mistyped
    arguments, bad reserve, repeated ad_id, a bid or probability that is not
    a number, non-finite slot value), ``require_amounts`` (the oracles and
    ``settle.settle_general``), the settlements' mistyped arguments, the
    oracles' probability check and ``sim.run_scenario``.
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


#: The one event kind a CPM or CPC offer may bid on; a hybrid offer may bid on any.
PAID_KIND = {PriceType.CPM: EventKind.VIEW, PriceType.CPC: EventKind.CLICK, PriceType.HYBRID: None}


@dataclass(frozen=True, slots=True)
class EventSpec:
    """One observable event (view, click, conversion, custom) and its probability."""

    event_id: str
    kind: EventKind
    probability: float


@dataclass(frozen=True, slots=True)
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
        return tuple(map(_EVENT_ID, self.events))


@dataclass(frozen=True, slots=True)
class ChargeSchedule:
    """Per-event user-experience charges, keyed by event id. All charges >= 0."""

    charges: Mapping[str, float]


@dataclass(frozen=True, slots=True)
class ShiftPlan:
    """Redistributed per-event charges with the same expected total as the source.

    ``strategy`` is a label: "identity", "single:<event_id>", or "proportional".
    """

    shifted: Mapping[str, float]
    strategy: str


@dataclass(frozen=True, slots=True)
class AdjustedOffer:
    """Per-event bids after subtracting shifted charges; what enters the auction.

    Carries the event specs so auctions can re-evaluate the offer under
    slot-specific click probabilities.
    """

    ad_id: str
    events: tuple[EventSpec, ...]
    adjusted: Mapping[str, float]
    expected_value: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class AuctionOutcome:
    """Ranking and slot awards produced by one auction run."""

    pricing_rule: str
    ranking: tuple[tuple[str, float], ...]
    winners: tuple[SlotAward, ...]


@dataclass(frozen=True, slots=True)
class Settlement:
    """Itemized realized charge: line_items[i] = (price_i + shifted_i) * realized_i."""

    ad_id: str
    realized: Mapping[str, int]
    line_items: Mapping[str, float]
    total: float


def keyed(ids: Sequence[str], mapping: Mapping) -> bool:
    """Whether ``mapping`` is keyed to the event set ``ids``: its keys are
    exactly the ids, and no id repeats, so each event counts once.

    Keys in the ids' own order pass at once: a mapping's keys never repeat.
    """
    return len(mapping) == len(ids) and (tuple(mapping) == tuple(ids) or mapping.keys() == set(ids))


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


def is_amount(value: object) -> bool:
    """Whether a price, shift amount or settlement input sums as a float: a
    number (``is_number``) that is a float or within float range."""
    return type(value) is float or (is_number(value) and (isinstance(value, float) or is_finite(value)))


def amount_issue(what: str, amount: object) -> str:
    """The issue of an ``amount`` that is not ``is_amount``, named by ``what``."""
    if is_number(amount):
        return f"{what} is beyond float range: {brief(amount)}"
    return f"{what} must be a number, got {brief(amount)}"


def require_amounts(ids: Sequence[str], prices: Mapping, shifted: Mapping) -> None:
    """Raise ScenarioError naming each event, in the order of ``ids``, whose price
    or shift amount is not ``is_amount``; the oracles and settlement share it."""
    issues = [
        amount_issue(f"{what} for '{eid}'", amounts[eid])
        for eid in ids
        for what, amounts in (("price", prices), ("shift amount", shifted))
        if not is_amount(amounts[eid])
    ]
    if issues:
        raise ScenarioError(issues)


def expected_sum(amounts: Mapping[str, float], events: Sequence[EventSpec], what: str) -> float:
    """Sum of amount * probability over ``events``, folded in declared order, with
    ``amounts`` keyed to the events (``require_same_keys``, prefixed with ``what``):
    an ad's expected charge, offer value, shifted total or adjusted value."""
    total = 0.0
    if len(amounts) == len(events):
        # keys in event order are keyed (``keyed``'s first case): check and fold in one pass
        for (key, amount), event in zip(amounts.items(), events):
            if key != event.event_id:
                break
            total += amount * event.probability
        else:
            return total
    require_same_keys(tuple(map(_EVENT_ID, events)), amounts, what)
    return fold_expected(amounts, events)


def fold_expected(amounts: Mapping[str, float], events: Sequence[EventSpec]) -> float:
    """``expected_sum`` of ``amounts`` already keyed to ``events``: the products
    folded left to right from 0.0, the additions ``fold_sum`` makes."""
    total = 0.0
    for e in events:
        total += amounts[e.event_id] * e.probability
    return total


def validate_offer(offer: Offer) -> list[str]:
    """Check every offer invariant; the list of violations is empty when valid.

    Checks: a str ``ad_id``, events a tuple of ``EventSpec`` with str ids and
    bids a mapping, each check that needs a mistyped one skipped; in one loop
    over the events, unique ids, ``EventKind`` kinds, probabilities in [0, 1]
    and a bid for each, then one view event, with probability 1; then, in one
    loop over the bids, no stray entries, each a finite number >= 0, and the
    price type, a ``PriceType``, and its discipline (CPM bids only on the view
    event, CPC only on the click event). The one validator:
    ``sim.validate_scenario`` calls it for each.
    """
    violations: list[str] = []
    events, bids = offer.events, offer.bids
    if not isinstance(offer.ad_id, str):
        violations.append(f"ad_id must be a string, got {brief(offer.ad_id)}")
    if not isinstance(events, tuple):
        violations.append(f"events must be a tuple of EventSpec, got {brief(events)}")
        events = None
    elif bad := [e for e in events if not isinstance(e, EventSpec)]:
        violations += [f"event must be an EventSpec, got {brief(e)}" for e in bad]
        events = None
    if not isinstance(bids, Mapping):
        violations.append(f"bids must be a mapping, got {brief(bids)}")
        bids = None

    # kind_of: each id's kind, a repeated id keeping its last, and so the ids seen;
    # views: the view events' probabilities
    kind_of, id_issues, issues, missing, views = {}, [], [], [], []
    string_ids = True
    for ev in events if events is not None else ():
        eid, kind, p = ev.event_id, ev.kind, ev.probability
        if not isinstance(eid, str):
            id_issues.append(f"event id must be a string, got {brief(eid)}")
            string_ids = False
        else:
            if eid in kind_of:
                id_issues.append(f"duplicate event id '{eid}'")
            kind_of[eid] = kind
            if bids is not None and eid not in bids:
                missing.append(f"missing bid for event '{eid}'")
        if kind is EventKind.VIEW:
            views.append(p)
        elif type(kind) is not EventKind:
            issues.append(f"kind of '{eid}' must be an EventKind, got {brief(kind)}")
        if not is_number(p):
            issues.append(f"probability of '{eid}' must be a number, got {brief(p)}")
        elif not (0.0 <= p <= 1.0):
            issues.append(f"probability out of range for '{eid}': {p!r}")
    if events is not None:
        if len(views) != 1:
            issues.append("more than one view event" if views else "missing view event")
        elif is_number(p := views[0]) and not (is_finite(p) and approx_eq(p, 1.0)):  # not a number: worded above
            issues.append(f"view event must have probability 1, got {p!r}")
        violations += id_issues + issues
    if events is None or bids is None or not string_ids:
        kind_of = None  # the bid key and price type checks need the events, the bids and string ids
    else:
        violations += missing

    typed = type(offer.price_type) is PriceType
    allowed = PAID_KIND[offer.price_type] if typed and kind_of is not None else None
    unknown, amounts, unpaid = [], [], []
    for key, amount in bids.items() if bids is not None else ():
        if kind_of is not None and key not in kind_of:
            unknown.append(f"bid keyed to unknown event '{key}'")
        if not is_number(amount):
            amounts.append(f"bid on '{key}' must be a number, got {brief(amount)}")
            continue
        if not is_finite(amount):
            amounts.append(f"non-finite bid on '{key}': {brief(amount)}")
        elif amount < 0.0:
            amounts.append(f"negative bid on '{key}': {amount!r}")
        if allowed is not None and amount > 0.0 and kind_of.get(key) is not allowed:
            unpaid.append(f"{offer.price_type.value} offer bids on non-{allowed.value} event '{key}'")

    mistyped = [] if typed else [f"price type must be a PriceType, got {brief(offer.price_type)}"]
    return violations + unknown + amounts + mistyped + unpaid


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


@functools.cache
def _members(kind: type[Enum]) -> dict:
    """Each member of the enum ``kind`` by its value and by itself; built once per enum."""
    return {**{m.value: m for m in kind}, **{m: m for m in kind}}


def member(value: object, kind: type[Enum], what: str) -> Any:
    """The member of the enum ``kind`` with this value, or ``value`` itself if
    it is one; else ValueError naming ``what``."""
    # a JSON scalar or a member hashes without raising; nothing else is a key
    found = _members(kind).get(value) if isinstance(value, (str, int, float, Enum)) else None
    if found is None:
        allowed = ", ".join(m.value for m in kind)
        raise ValueError(f"{what} must be one of {allowed}, got {brief(value)}")
    return found


def event_to_dict(event: EventSpec) -> dict:
    return {"id": event.event_id, "kind": event.kind.value, "prob": event.probability}


def require_fields(doc: object, fields: tuple[str, ...]) -> None:
    """ValueError unless ``doc`` is a JSON object holding every one of ``fields``."""
    if type(doc) is not dict and not isinstance(doc, Mapping):
        raise ValueError(f"must be an object, got {brief(doc)}")
    for field in fields:
        if field not in doc:
            raise ValueError("missing field " + ", ".join(repr(f) for f in fields if f not in doc))


def event_from_dict(doc: Mapping) -> EventSpec:
    require_fields(doc, ("id", "kind", "prob"))
    event_id, prob = doc["id"], doc["prob"]
    if type(event_id) is not str or not event_id.isascii():  # text words the rest
        event_id = text(event_id, "event 'id'")
    kind = member(doc["kind"], EventKind, "'kind'")
    if type(prob) is not float or prob - prob != 0.0:  # not a finite float: number's rule
        prob = number(prob, "'prob' of", event_id)
    return EventSpec(event_id, kind, prob)


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
        entries = doc["events"]
        if not isinstance(entries, list):
            read_events(doc)  # raises: 'events' must be an array
        try:
            events = tuple(map(event_from_dict, entries))
        except ValueError:
            read_events(doc)  # raises, itemizing every bad entry
    raw = doc.get("bids", {})
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise ValueError(f"'bids' must be an object, got {brief(raw)}")
    bids = {}
    for event in events:
        eid = event.event_id
        amount = raw.get(eid, 0.0)
        bids[eid] = amount if type(amount) is float and amount - amount == 0.0 else number(amount, "bid on", eid)
    if not raw.keys() <= bids.keys():  # stray keys stay, for validate_offer to itemize
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
