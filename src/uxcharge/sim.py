"""Expectation oracles, seeded Monte Carlo, and the end-to-end scenario runner.

``expected_payment`` is the closed form sum((r_i + d_i) * p_i). The
enumeration oracle recomputes it by brute force over every joint event
outcome and must agree to working precision under any supported outcome
model, since the expectation depends on marginals only. Monte Carlo draws
from counter-based Philox substreams keyed by (seed, substream), so per-ad
streams are independent. Enumeration broadcasts one axis per event over all
2^n outcomes at once. Monte Carlo draws a call's trials in order, in units
of rows of raw Philox words, and tests each word against an integer
threshold that gives the same hits as its uniform; a call keeps one float64
per trial plus one unit and one block, not trials x events uniforms.
``run_scenario`` runs each winner's three oracles as one task, on up to
``_WORKERS`` threads; numpy draws and does most array work without the GIL,
so the winners overlap.
Both oracles return a non-finite result quietly, in any thread: each sets
its own numpy error state, which is per thread.

Every sum runs strictly left to right, over an offer's events in declared
order and over outcomes or trials in order; never ``@``, ``np.sum`` or
``np.prod``, whose order follows numpy's and BLAS's run-time dispatch.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import attrgetter, eq, is_
from typing import Iterable, Mapping, Sequence

import numpy as np

from .auction import FIRST_PRICE, SECOND_PRICE, SlotModel, pricing_rule_issues, reserve_issues
from .auction import run_first_price, run_second_price
from .model import (
    FORMAT_VERSION,
    VALIDATION_TOL,
    AdjustedOffer,
    AuctionOutcome,
    ChargeSchedule,
    EventKind,
    EventSpec,
    Offer,
    PriceType,
    ScenarioError,
    ShiftPlan,
    brief,
    event_bids,
    flat_events,
    fold_columns,
    fold_sum,
    padded,
    require_same_keys,
    validate_offer,
)
from .shift import shift_identity, shift_proportional, shift_single_event

# The per-offer chain is_feasible -> build_plan -> adjust_general stays
# importable from here: it is the public per-offer API and the reference that
# prepare's batch pass reproduces bit for bit.
from .adjust import adjust_general  # noqa: F401
from .shift import is_feasible, total_expected_charge  # noqa: F401

#: Enumeration stays exact and fast at desk scale up to this many events; it keeps
#: 2.5 float64 arrays of 2^n outcomes, so a call at the limit peaks near 20 MiB.
ENUMERATION_LIMIT = 20

#: Monte Carlo keeps one float64 per trial; at this many, one 20-event funnel
#: call peaks near 9 MiB (tracemalloc).
TRIALS_LIMIT = 1_000_000

#: Trials in Monte Carlo's units in flight, together.
_BLOCK = 8192

#: Threads that run winners' oracles in ``run_scenario``: the CPUs this process
#: may run on, at most two, the only count timed (2-vCPU host). Each Monte
#: Carlo call draws in units of ``_BLOCK // _WORKERS`` rows, so the units of
#: concurrent winners hold one block between them. CPU quotas are not read:
#: two threads pinned to one CPU took about as long as one thread.
_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    2,
)


class OutcomeModel(Enum):
    """Joint law of realized events; expectations do not depend on the choice."""

    INDEPENDENT = "independent"
    FUNNEL = "funnel"


def expected_payment(
    prices: Mapping[str, float],
    shifted: Mapping[str, float],
    events: tuple[EventSpec, ...],
) -> float:
    """Winner's expected charge: sum((price + shifted) * probability) in declared event order."""
    amounts = _amounts(prices, shifted, events)
    return fold_sum(amount * ev.probability for amount, ev in zip(amounts, events))


def _amounts(
    prices: Mapping[str, float], shifted: Mapping[str, float], events: tuple[EventSpec, ...]
) -> list[float]:
    """Each event's charge if it occurs, price + shifted, in declared event order.

    The three oracles' shared preamble. Raises KeyMismatchError unless both
    mappings are keyed to the events.
    """
    ids = tuple(ev.event_id for ev in events)
    require_same_keys(ids, prices, "prices")
    require_same_keys(ids, shifted, "shift amounts")
    return [prices[eid] + shifted[eid] for eid in ids]


_FUNNEL_ORDER = (EventKind.VIEW, EventKind.CLICK, EventKind.CONVERSION)


def _funnel_chain(
    events: tuple[EventSpec, ...], model: OutcomeModel
) -> tuple[list[int], list[float], list[int]]:
    """Decompose events into the outcome model's chain and independent leftovers.

    Under the independent model every event is a leftover. Under the funnel
    model, funnel-kind events form a chain in view -> click -> conversion
    order; each stage occurs only if the previous one did, with conditional
    probability chosen to reproduce the declared marginal. Custom events stay
    independent. Raises if marginals cannot be reproduced (increasing along
    the chain, or positive below a zero stage) or a funnel kind repeats.
    """
    if model is not OutcomeModel.FUNNEL:
        return [], [], list(range(len(events)))
    by_kind: dict[EventKind, int] = {}
    for idx, ev in enumerate(events):
        if ev.kind in _FUNNEL_ORDER:
            if ev.kind in by_kind:
                raise ValueError(f"funnel model requires at most one {ev.kind.value} event")
            by_kind[ev.kind] = idx
    chain = [by_kind[kind] for kind in _FUNNEL_ORDER if kind in by_kind]

    conditionals: list[float] = []
    prev_p = 1.0
    for idx in chain:
        p = events[idx].probability
        if prev_p <= 0.0:
            if p > 0.0:
                raise ValueError(
                    f"funnel model cannot give '{events[idx].event_id}' probability {p!r} "
                    "below a zero-probability stage"
                )
            q = 0.0
        else:
            q = p / prev_p
            if q > 1.0 + 1e-12:
                raise ValueError(
                    "funnel model needs nonincreasing probabilities along "
                    f"view -> click -> conversion; '{events[idx].event_id}' breaks the chain"
                )
            q = min(q, 1.0)
        conditionals.append(q)
        prev_p = p

    in_chain = set(chain)
    custom = [i for i in range(len(events)) if i not in in_chain]
    return chain, conditionals, custom


def enumerate_expected_payment(
    prices: Mapping[str, float],
    shifted: Mapping[str, float],
    events: tuple[EventSpec, ...],
    model: OutcomeModel = OutcomeModel.INDEPENDENT,
) -> float:
    """Exact expected charge by summing probability * charge over all outcomes.

    Independent of the closed form on purpose: it averages the realized
    charge sum((r_i + d_i) * e_i) over the full joint law of e, broadcast
    over one boolean axis per event. Each outcome's probability is a product
    over chain stages, then independent events; its charge and the weighted
    total, over outcomes in index order, are left folds. Factors and charge
    terms are selected on the boolean axes, which for finite inputs equals
    the arithmetic e_i * q + (1 - e_i) * (1 - q) and e_i * amount.
    An infinite amount, or a charge beyond float range, gives a non-finite
    result without a warning.
    """
    amounts = _amounts(prices, shifted, events)
    n = len(events)
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration oracle is limited to {ENUMERATION_LIMIT} events, got {n}"
        )

    chain, conditionals, custom = _funnel_chain(events, model)
    # Event i is axis n - 1 - i, so outcome k ravels to index k with bit i set
    # when event i occurred.
    e = [np.array([False, True]).reshape((2,) + (1,) * i) for i in range(n)]
    charge, prob, occurred = np.zeros(()), np.ones(()), True
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total is returned
        for ei, amount in zip(e, amounts):
            charge = charge + np.where(ei, amount, 0.0)
        for i, q in zip(chain, conditionals):
            ei = e[i]
            prob = prob * np.where(occurred, np.where(ei, q, 1.0 - q), np.where(ei, 0.0, 1.0))
            occurred = occurred & ei
        for i in custom:
            p = events[i].probability
            prob = prob * np.where(e[i], p, 1.0 - p)
        weighted = np.multiply(prob, charge, out=prob).ravel()
        return float(np.add.accumulate(weighted, out=weighted)[-1])


def _substream_rng(seed: int, substream: tuple[int, ...]) -> np.random.Generator:
    """The (seed, substream) Philox stream."""
    entropy = [int(seed), *(int(s) for s in substream)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _threshold(q: float) -> int:
    """The integer t with ``word >> 11 < t`` exactly when the uniform
    ``(word >> 11) * 2**-53`` is below ``q``: ``ceil(q * 2**53)``, clamped to
    [0, 2**53], and 0 (never) for nan."""
    if not q > 0.0:
        return 0
    if q >= 1.0:
        return 1 << 53
    return math.ceil(q * 2.0**53)  # scaling by 2**53 is exact


def monte_carlo_payment(
    prices: Mapping[str, float],
    shifted: Mapping[str, float],
    events: tuple[EventSpec, ...],
    model: OutcomeModel = OutcomeModel.INDEPENDENT,
    trials: int = 10000,
    seed: int = 0,
    substream: tuple[int, ...] = (),
) -> tuple[float, float]:
    """Sampled mean and standard error of the winner's realized charge.

    Deterministic for a fixed (seed, substream); the stderr is the sample
    standard deviation over the square root of the trial count (0.0 for a
    single trial), and non-finite if an amount or a trial's charge is.
    Trials are drawn in units of ``_BLOCK // _WORKERS`` rows, one row of
    raw Philox words per trial; event i occurs in a trial when its uniform
    falls below its (conditional) probability, tested on the words against
    ``_threshold``. Each trial's charge is a fold over the events' hit
    columns in declared order, and both reductions over all trials are
    sequential prefix sums, so the bits depend on the samples alone, not on
    the unit size or numpy's or BLAS's summation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    amounts = np.array(_amounts(prices, shifted, events), dtype=float)[:, None]

    chain, conditionals, custom = _funnel_chain(events, model)
    n = len(events)
    probabilities = [ev.probability for ev in events]  # chain stages take their conditionals
    for idx, q in zip(chain, conditionals):
        probabilities[idx] = q
    thresholds = np.array(list(map(_threshold, probabilities)), dtype=np.uint64)
    bits = _substream_rng(seed, substream).bit_generator
    totals = np.empty(trials)
    unit = _BLOCK // _WORKERS  # the units of concurrent winners hold one block
    # numpy's error state is per thread; a non-finite total is returned
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, trials, unit):
            block = totals[start:start + unit]
            rows = len(block)
            words = bits.random_raw(rows * n)
            np.right_shift(words, np.uint64(11), out=words)
            hits = np.ascontiguousarray((words.reshape(rows, n) < thresholds).T)
            for before, after in zip(chain, chain[1:]):
                np.logical_and(hits[after], hits[before], out=hits[after])
            charges = np.multiply(hits, amounts, out=words.view(float).reshape(n, rows))
            block[:] = 0.0
            for i in range(n):
                block += charges[i]
            del words, hits, charges  # freed before the next unit is drawn
    if trials == 1:
        return float(totals[0]), 0.0
    # An overflow is summed again below; a non-finite total gives a non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        mean, squares = _moments(totals)
        scale = 0
        if math.isinf(squares):
            # Squares are inf, not nan, only if every total is finite but a sum
            # overflowed: redo both in units of 2**scale, which is exact. Scaled
            # totals stay below 2**256, so even a million squares sum in range.
            scale = math.frexp(max(float(totals.max()), -float(totals.min())))[1] - 256
            mean, squares = _moments(np.ldexp(totals, -scale, out=totals))
    return mean * 2.0**scale, math.sqrt(squares / (trials - 1)) / math.sqrt(trials) * 2.0**scale


def _moments(totals: np.ndarray) -> tuple[float, float]:
    """Mean and summed squared deviations of ``totals``, each a sequential
    prefix sum taken in one buffer, a ``_BLOCK`` of trials at a time."""
    spare = np.empty(min(len(totals), _BLOCK))

    def carried_sum(term) -> float:
        running = None
        for start in range(0, len(totals), _BLOCK):
            block = term(totals[start:start + _BLOCK], spare[:len(totals) - start])
            if running is not None:
                block[0] += running  # the sum goes on from where the last block stopped
            running = np.add.accumulate(block, out=block)[-1]
        return float(running)

    mean = carried_sum(lambda x, out: np.positive(x, out=out)) / len(totals)
    return mean, carried_sum(lambda x, out: np.square(np.subtract(x, mean, out=out), out=out))


# --- scenario runner ---------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one end-to-end run needs; immutable and reusable."""

    offers: tuple[Offer, ...]
    charges: ChargeSchedule
    pricing_rule: str = SECOND_PRICE
    strategy: str = "identity"
    slots: SlotModel | None = None
    reserve: float = 0.0
    model: OutcomeModel = OutcomeModel.INDEPENDENT
    trials: int = 10000
    seed: int = 0


def _parse_strategy(strategy: str) -> tuple[str, str | None]:
    if strategy == "identity" or strategy == "proportional":
        return strategy, None
    target = strategy[len("single:"):] if strategy.startswith("single:") else ""
    if target:
        return "single", target
    raise ValueError(
        f"unknown strategy {strategy!r}; expected identity, single:<event>, or proportional"
    )


def target_issues(strategy: str, events: Sequence[EventSpec]) -> list[str]:
    """The rule of a ``single:<event>`` strategy for one ad's events, which
    have unique ids: its target is one of them, with probability above zero.

    Empty for any other strategy; ``validate_scenario`` words an unknown one.
    Scenario offers and the records of an ``adjust`` document share it.
    """
    try:
        kind, target = _parse_strategy(strategy)
    except ValueError:
        return []
    if kind != "single":
        return []
    for event in events:
        if event.event_id == target:
            if event.probability <= 0.0:
                return [f"strategy target event '{target}' has zero probability"]
            return []
    return [f"strategy target event '{target}' not declared"]


_AD_ID = attrgetter("ad_id")
_BIDS = attrgetter("bids")
_PRICE_TYPE = attrgetter("price_type")
_KIND = attrgetter("kind")
_PROBABILITY = attrgetter("probability")


def _floats(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as a float array, each non-float as 0.0, and which were floats."""
    if set(map(type, values)) <= {float}:
        return np.array(values, dtype=float), np.ones(len(values), dtype=bool)
    is_float = [type(v) is float for v in values]
    array = np.array([v if ok else 0.0 for v, ok in zip(values, is_float)], dtype=float)
    return array, np.array(is_float, dtype=bool)


def _is(values: Iterable, member: Enum) -> np.ndarray:
    """Which of ``values`` are ``member`` itself, as ``validate_offer`` tests it."""
    return np.fromiter(map(is_, values, repeat(member)), dtype=bool)


def _clean_offers(
    offers: Sequence[Offer], events: list[EventSpec], ids: list[str], widths: list[int]
) -> list[bool]:
    """Whether ``validate_offer`` passes each offer, decided over arrays of
    the offers' flattening (``flat_events``).

    False means only "not shown clean": ``validate_scenario`` then asks
    ``validate_offer``, the reference, to word each violation. An offer is
    clean when its event ids are unique and its bids keyed to exactly them
    (``event_bids``), it has exactly one view event, and every one of its
    entries passes the predicates over the flat bid, probability and kind
    columns: float bids and probabilities, finite bids >= 0, probabilities
    in [0, 1], a view probability within ``approx_eq`` of 1, and a bid
    above 0 only on the view of a CPM offer or the click of a CPC offer.
    """
    bids, keyed = event_bids(list(map(_BIDS, offers)), ids, widths)
    rows = np.repeat(np.arange(len(offers)), widths)  # the offer of each entry
    B, bid_is_float = _floats(bids)
    P, prob_is_float = _floats(list(map(_PROBABILITY, events)))
    kinds = list(map(_KIND, events))
    view, click = _is(kinds, EventKind.VIEW), _is(kinds, EventKind.CLICK)
    price_types = list(map(_PRICE_TYPE, offers))
    cpm, cpc = _is(price_types, PriceType.CPM)[rows], _is(price_types, PriceType.CPC)[rows]
    with np.errstate(invalid="ignore"):  # a nan fails every comparison, quietly
        bad = (
            ~(bid_is_float & prob_is_float)
            | ~((B >= 0.0) & (B < math.inf))
            | ~((P >= 0.0) & (P <= 1.0))
            | (view & ~(np.abs(P - 1.0) <= VALIDATION_TOL))
            | (((cpm & ~view) | (cpc & ~click)) & (B > 0.0))
        )
    clean = np.array(keyed, dtype=bool) & (np.bincount(rows[view], minlength=len(offers)) == 1)
    clean[rows[bad]] = False
    return clean.tolist()


def _offer_issues(config: ScenarioConfig, clean: list[bool]) -> list[str]:
    """Each offer's issues, in offer order: a repeated ad_id, the violations
    ``validate_offer`` finds in an offer not shown clean, too many events,
    and for a valid offer the strategy target and the outcome model."""
    issues: list[str] = []
    seen_ads: set[str] = set()
    for offer, shown_clean in zip(config.offers, clean):
        if offer.ad_id in seen_ads:
            issues.append(f"duplicate ad_id '{offer.ad_id}'")
        seen_ads.add(offer.ad_id)

        violations = [] if shown_clean else validate_offer(offer)
        issues.extend(f"offer '{offer.ad_id}': {v}" for v in violations)
        if len(offer.events) > ENUMERATION_LIMIT:
            issues.append(f"offer '{offer.ad_id}': more than {ENUMERATION_LIMIT} events")
        if not violations:
            issues.extend(
                f"offer '{offer.ad_id}': {v}" for v in target_issues(config.strategy, offer.events)
            )
            try:
                _funnel_chain(offer.events, config.model)
            except ValueError as exc:
                issues.append(f"offer '{offer.ad_id}': {exc}")
    return issues


def _is_int(value: object) -> bool:
    """An int and not a bool, as trials and seed must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_scenario(config: ScenarioConfig) -> list[str]:
    """Itemize every configuration problem; an empty list means runnable.

    Only offers that ``_clean_offers`` cannot show clean go to
    ``validate_offer``, and the offers are walked one by one only when some
    offer has something to itemize, or a ``single:<event>`` strategy or the
    funnel model has a rule for each; the issues and their order are the
    same either way.
    """
    issues: list[str] = []

    issues.extend(pricing_rule_issues(config.pricing_rule))
    if not _is_int(config.trials):
        issues.append(f"trials must be an integer, got {brief(config.trials)}")
    elif config.trials < 1:
        issues.append(f"trials must be >= 1, got {config.trials}")
    elif config.trials > TRIALS_LIMIT:
        issues.append(f"trials must be <= {TRIALS_LIMIT}, got {config.trials}")
    if not _is_int(config.seed):
        issues.append(f"seed must be an integer, got {brief(config.seed)}")
    elif config.seed < 0:
        issues.append(f"seed must be >= 0, got {config.seed}")
    if not isinstance(config.model, OutcomeModel):
        issues.append(f"model must be an OutcomeModel, got {brief(config.model)}")
    issues.extend(reserve_issues(config.reserve))

    try:
        kind, _ = _parse_strategy(config.strategy)
    except ValueError as exc:
        issues.append(str(exc))
        kind = "identity"

    events, ids, widths = flat_events(config.offers)
    clean = _clean_offers(config.offers, events, ids, widths)
    ad_ids = list(map(_AD_ID, config.offers))
    seen_ads = set(ad_ids)
    if (
        not all(clean)
        or len(seen_ads) < len(ad_ids)
        or max(widths, default=0) > ENUMERATION_LIMIT
        or kind == "single"
        or config.model is OutcomeModel.FUNNEL
    ):
        issues.extend(_offer_issues(config, clean))

    if config.slots is not None and config.offers:
        undeclared = [ad for ad in config.slots.ctr if ad not in seen_ads]
        issues.extend(f"slots: ctr row keyed to ad {ad!r} declared by no offer" for ad in undeclared)

    known_ids = set(ids)
    for eid, amount in config.charges.charges.items():
        if config.offers and eid not in known_ids:
            issues.append(f"charge keyed to event '{eid}' declared by no offer")
        if not math.isfinite(amount):
            issues.append(f"non-finite charge on '{eid}': {amount!r}")
        elif amount < 0.0:
            issues.append(f"negative charge on '{eid}': {amount!r}")

    return issues


def build_plan(strategy: str, offer: Offer, charges: ChargeSchedule) -> ShiftPlan:
    """Construct the shift plan a strategy label names, for one ad.

    The proportional strategy spreads charges over the ad's bid-carrying
    events; for a feasible ad with no such events the expected charge is
    necessarily zero, so the zero plan stands in.
    """
    kind, target = _parse_strategy(strategy)
    if kind == "identity":
        return shift_identity(charges)
    if kind == "single":
        return shift_single_event(charges, offer.events, target)
    ids, bids = offer.event_ids, offer.bids
    require_same_keys(ids, bids, "offer bids")
    chargeable = {e.event_id for e in offer.events if bids[e.event_id] * e.probability > 0.0}
    if not chargeable:
        return ShiftPlan(shifted=dict.fromkeys(ids, 0.0), strategy="proportional")
    return shift_proportional(charges, offer, chargeable)


def _batch_adjust(
    offers: Sequence[Offer], charges: ChargeSchedule, strategy: str
) -> tuple:
    """Feasibility, shift plan and adjustment for every offer in one array pass.

    Rows are offers; columns are an offer's events in declared order, zero
    padded to the widest offer (``model.padded``). Reproduces ``is_feasible`` ->
    ``build_plan`` -> ``adjust_general`` bit for bit on a valid scenario:
    every sum is a left-to-right column fold in declared event order.
    Returns, as lists, the flat event ids and each offer's count
    (``flat_events``), the expected charges, the feasibility verdicts, the
    shifted charges and adjusted bids (padded rows) and the expected
    adjusted values.
    """
    kind, target = _parse_strategy(strategy)
    events, ids, widths = flat_events(offers)
    bids, _ = event_bids(list(map(_BIDS, offers)), ids, widths)
    amounts = list(map(charges.charges.get, ids, repeat(0.0)))
    B, P, C = (
        padded(np.array(x, dtype=float), widths)
        for x in (bids, list(map(_PROBABILITY, events)), amounts)
    )
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        BP = B * P
        expected_charge = fold_columns(C * P)
        feasible = expected_charge <= fold_columns(BP) + VALIDATION_TOL
        if kind == "identity":
            D = C
        elif kind == "single":
            # one target event per offer (validate_scenario), so one per row in row order
            is_target = padded(np.fromiter(map(eq, ids, repeat(target)), dtype=bool), widths)
            D = np.zeros_like(B)
            D[is_target] = expected_charge / P[is_target]
        else:
            chargeable = BP > 0.0
            weight = fold_columns(np.where(chargeable, BP, 0.0))
            share = np.divide(B, weight[:, None], out=np.zeros_like(B), where=chargeable)
            D = np.where(chargeable, expected_charge[:, None] * share, 0.0)
        A = B - D
        adjusted_value = fold_columns(A * P)
    return (
        ids,
        widths,
        expected_charge.tolist(),
        feasible.tolist(),
        D.tolist(),
        A.tolist(),
        adjusted_value.tolist(),
    )


def prepare(config: ScenarioConfig) -> tuple[list[dict], list[AdjustedOffer]]:
    """Validate, then take every ad through feasibility, charge shift and adjustment.

    Returns one report record per offer, in offer order, with its shift plan
    and the reason for each exclusion; and the adjusted offers that enter the
    auction. Raises ScenarioError on an invalid scenario or overflowing offers.
    """
    issues = validate_scenario(config)
    if issues:
        raise ScenarioError(issues)

    flat_ids, widths, charge, feasible, shifted, adjusted, value = _batch_adjust(
        config.offers, config.charges, config.strategy
    )
    # Every offer reports its expected charge, a feasible one its plan, bids and
    # value. Bids are finite, so a non-finite shifted charge or adjusted bid
    # makes the adjusted value non-finite too.
    overflow = [
        f"offer '{offer.ad_id}': expected charge, shift plan or adjusted value"
        " overflows float range"
        for offer, c, ok, v in zip(config.offers, charge, feasible, value)
        if not math.isfinite(c) or (ok and not math.isfinite(v))
    ]
    if overflow:
        raise ScenarioError(overflow)
    records: list[dict] = []
    included: list[AdjustedOffer] = []
    start = 0
    for row, (offer, width) in enumerate(zip(config.offers, widths)):
        ids = flat_ids[start:start + width]
        start += width
        record = {
            "ad_id": offer.ad_id,
            "price_type": offer.price_type.value,
            "total_expected_charge": charge[row],
            "feasible": feasible[row],
            "excluded": False,
            "exclusion_reason": None,
            "shift_plan": None,
            "adjusted_bids": None,
            "expected_adjusted_value": None,
            "slot": None,
            "price_factor": None,
            "prices": None,
            "expected_payment": None,
            "enumerated_payment": None,
            "mc_mean": None,
            "mc_stderr": None,
        }
        records.append(record)

        if not feasible[row]:
            record["excluded"] = True
            record["exclusion_reason"] = (
                "expected user-experience charge exceeds expected offer value"
            )
            continue

        record["shift_plan"] = dict(zip(ids, shifted[row]))
        record["adjusted_bids"] = dict(zip(ids, adjusted[row]))
        record["expected_adjusted_value"] = value[row]
        if value[row] < 0.0:
            record["excluded"] = True
            record["exclusion_reason"] = "expected adjusted value is negative"
            continue
        included.append(
            AdjustedOffer(offer.ad_id, offer.events, record["adjusted_bids"], value[row])
        )

    return records, included


def run_auction(
    offers: Sequence[AdjustedOffer],
    pricing_rule: str,
    slots: SlotModel | None,
    reserve: float,
) -> AuctionOutcome:
    """Run the position auction under ``pricing_rule``; the auction checks the reserve.

    Raises ScenarioError on an unknown pricing rule.
    """
    issues = pricing_rule_issues(pricing_rule)
    if issues:
        raise ScenarioError(issues)
    runner = run_first_price if pricing_rule == FIRST_PRICE else run_second_price
    return runner(offers, slots, reserve)


def run_scenario(config: ScenarioConfig) -> dict:
    """Run the whole pipeline and return a JSON-ready report.

    Per ad: feasibility verdict, shift plan, adjusted bids, auction result,
    and for winners the expected payment three ways (closed form, exact
    enumeration, Monte Carlo). Deterministic for fixed config and seed:
    each winner's three oracles run as one task, on a pool of ``_WORKERS``
    threads when there are two winners or more, and land in winner order.
    Raises ScenarioError naming each winner whose oracles overflow float range.
    """
    records, included = prepare(config)
    outcome = run_auction(included, config.pricing_rule, config.slots, config.reserve)

    index = {offer.ad_id: i for i, offer in enumerate(config.offers)}
    winners = [(award, index[award.ad_id]) for award in outcome.winners]

    def oracles(winner: tuple) -> tuple[float, float, float, float]:
        """One winner's closed form, enumeration, and Monte Carlo mean and stderr."""
        award, row = winner
        prices, shifted, events = award.prices, records[row]["shift_plan"], config.offers[row].events
        return (
            expected_payment(prices, shifted, events),
            enumerate_expected_payment(prices, shifted, events, config.model),
            *monte_carlo_payment(
                prices,
                shifted,
                events,
                config.model,
                trials=config.trials,
                seed=config.seed,
                substream=(row,),
            ),
        )

    if _WORKERS == 1 or len(winners) < 2:
        results = list(map(oracles, winners))
    else:
        with ThreadPoolExecutor(_WORKERS) as pool:
            results = list(pool.map(oracles, winners))  # in winner order; re-raises a task's exception
    issues = []
    for (award, row), result in zip(winners, results):
        record = records[row]
        record["slot"] = award.slot
        record["price_factor"] = award.price_factor
        record["prices"] = award.prices
        (
            record["expected_payment"],
            record["enumerated_payment"],
            record["mc_mean"],
            record["mc_stderr"],
        ) = result
        if not all(map(math.isfinite, result)):
            issues.append(f"offer '{award.ad_id}': expected payment oracles overflow float range")
    if issues:
        raise ScenarioError(issues)

    report = {
        "format_version": FORMAT_VERSION,
        "pricing_rule": config.pricing_rule,
        "strategy": config.strategy,
        "model": config.model.value,
        "trials": config.trials,
        "seed": config.seed,
        "reserve": config.reserve,
        "slots": None
        if config.slots is None
        else {
            "k": config.slots.k,
            "ctr_matrix": {ad: list(row) for ad, row in sorted(config.slots.ctr.items())},
        },
        "ranking": [[ad_id, value] for ad_id, value in outcome.ranking],
        "winners": [{"ad_id": w.ad_id, "slot": w.slot} for w in outcome.winners],
        "ads": records,
    }
    return report
