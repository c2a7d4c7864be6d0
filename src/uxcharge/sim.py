"""Expectation oracles, seeded Monte Carlo, and the end-to-end scenario runner.

``expected_payment`` is the closed form sum((r_i + d_i) * p_i). The
enumeration oracle recomputes it by brute force over every joint event
outcome and must agree to working precision under any supported outcome
model, since the expectation depends on marginals only. Monte Carlo draws
from counter-based Philox substreams keyed by (seed, substream), so per-ad
streams are independent and a parallel run partitioned by trial blocks
reproduces the serial stream exactly.

Every sum runs strictly left to right, over an offer's events in declared
order and over outcomes or trials in order; never ``@``, ``np.sum`` or
``np.prod``, whose order follows numpy's and BLAS's run-time dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .auction import SlotModel, run_first_price, run_second_price
from .model import (
    VALIDATION_TOL,
    AdjustedOffer,
    AuctionOutcome,
    ChargeSchedule,
    EventKind,
    EventSpec,
    Offer,
    ShiftPlan,
    fold_columns,
    fold_sum,
    require_same_keys,
    validate_offer,
)
from .shift import shift_identity, shift_proportional, shift_single_event

# The per-offer chain is_feasible -> build_plan -> adjust_general stays
# importable from here: it is the public per-offer API and the reference that
# prepare's batch pass reproduces bit for bit.
from .adjust import adjust_general  # noqa: F401
from .shift import is_feasible, total_expected_charge  # noqa: F401

#: Enumeration stays exact and fast at desk scale up to this many events.
ENUMERATION_LIMIT = 20

_CHUNK = 1 << 16


class OutcomeModel(Enum):
    """Joint law of realized events; expectations do not depend on the choice."""

    INDEPENDENT = "independent"
    FUNNEL = "funnel"


class ScenarioError(ValueError):
    """Invalid input; ``issues`` itemizes every problem found, one string each.

    Raised once per input boundary: ``cli.parse_scenario_doc``, the CLI's
    ``adjust``-document reader, ``prepare`` and ``run_auction``.
    """

    def __init__(self, issues: Sequence[str]):
        super().__init__("; ".join(issues))
        self.issues = tuple(issues)


def expected_payment(
    prices: Mapping[str, float],
    shifted: Mapping[str, float],
    probs: Mapping[str, float],
) -> float:
    """Winner's expected charge: sum((price + shifted) * probability) in ``probs`` order."""
    ids = tuple(probs)
    require_same_keys(ids, prices, "prices")
    require_same_keys(ids, shifted, "shift amounts")
    return fold_sum((prices[eid] + shifted[eid]) * p for eid, p in probs.items())


_FUNNEL_ORDER = (EventKind.VIEW, EventKind.CLICK, EventKind.CONVERSION)


def _funnel_chain(
    events: tuple[EventSpec, ...],
) -> tuple[list[int], list[float], list[int]]:
    """Decompose events into the funnel chain and independent leftovers.

    Funnel-kind events form a chain in view -> click -> conversion order;
    each stage occurs only if the previous one did, with conditional
    probability chosen to reproduce the declared marginal. Custom events stay
    independent. Raises if marginals cannot be reproduced (increasing along
    the chain, or positive below a zero stage) or a funnel kind repeats.
    """
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


def _model_chain(
    events: tuple[EventSpec, ...], model: OutcomeModel
) -> tuple[list[int], list[float], list[int]]:
    """``_funnel_chain`` under the funnel model; every event independent otherwise."""
    if model is OutcomeModel.FUNNEL:
        return _funnel_chain(events)
    return [], [], list(range(len(events)))


def enumerate_expected_payment(
    prices: Mapping[str, float],
    shifted: Mapping[str, float],
    events: tuple[EventSpec, ...],
    model: OutcomeModel = OutcomeModel.INDEPENDENT,
) -> float:
    """Exact expected charge by summing probability * charge over all outcomes.

    Independent of the closed form on purpose: it averages the realized
    charge sum((r_i + d_i) * e_i) over the full joint law of e. Each
    outcome's probability is a product over chain stages, then independent
    events; its charge and the weighted total are left folds.
    """
    ids = tuple(ev.event_id for ev in events)
    require_same_keys(ids, prices, "prices")
    require_same_keys(ids, shifted, "shift amounts")
    n = len(events)
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration oracle is limited to {ENUMERATION_LIMIT} events, got {n}"
        )

    amounts = [prices[eid] + shifted[eid] for eid in ids]
    chain, conditionals, custom = _model_chain(events, model)
    count = 1 << n
    total = 0.0
    for start in range(0, count, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        e = [((idx >> bit) & 1).astype(np.float64) for bit in range(n)]
        charge, prob, occurred = np.zeros(len(idx)), np.ones(len(idx)), np.ones(len(idx))
        for ei, amount in zip(e, amounts):
            charge += ei * amount
        for i, q in zip(chain, conditionals):
            ei = e[i]
            prob *= occurred * (ei * q + (1.0 - ei) * (1.0 - q)) + (1.0 - occurred) * (1.0 - ei)
            occurred = occurred * ei
        for i in custom:
            prob *= e[i] * events[i].probability + (1.0 - e[i]) * (1.0 - events[i].probability)
        weighted = prob * charge
        weighted[0] += total  # continue the running sum across chunks
        total = float(np.add.accumulate(weighted)[-1])
    return total


def _substream_rng(seed: int, substream: tuple[int, ...]) -> np.random.Generator:
    entropy = [int(seed), *(int(s) for s in substream)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _sample_hits(
    events: tuple[EventSpec, ...],
    model: OutcomeModel,
    trials: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Sample the model's joint law from one (trials, n_events) block of uniforms.

    Returns one boolean column of hits per event, in declared order.
    """
    u = rng.random((trials, len(events)))
    chain, conditionals, custom = _model_chain(events, model)
    hits = [None] * len(events)
    occurred = np.ones(trials, dtype=bool)
    for idx, q in zip(chain, conditionals):
        occurred = hits[idx] = occurred & (u[:, idx] < q)
    for idx in custom:
        hits[idx] = u[:, idx] < events[idx].probability
    return hits


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
    single trial). Each trial's charge is a fold over the events' hit columns
    in declared order, and both reductions are sequential prefix sums, so the
    bits depend on the samples alone, not on numpy's or BLAS's summation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ids = tuple(ev.event_id for ev in events)
    require_same_keys(ids, prices, "prices")
    require_same_keys(ids, shifted, "shift amounts")

    hits = _sample_hits(events, model, trials, _substream_rng(seed, substream))
    totals = np.zeros(trials)
    for hit, eid in zip(hits, ids):
        totals += hit * (prices[eid] + shifted[eid])
    mean = float(np.add.accumulate(totals)[-1]) / trials
    if trials == 1:
        return mean, 0.0
    deviations = totals - mean
    squares = float(np.add.accumulate(deviations * deviations)[-1])
    return mean, math.sqrt(squares / (trials - 1)) / math.sqrt(trials)


# --- scenario runner ---------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one end-to-end run needs; immutable and reusable."""

    offers: tuple[Offer, ...]
    charges: ChargeSchedule
    pricing_rule: str = "second"
    strategy: str = "identity"
    slots: SlotModel | None = None
    reserve: float = 0.0
    model: OutcomeModel = OutcomeModel.INDEPENDENT
    trials: int = 10000
    seed: int = 0


def _parse_strategy(strategy: str) -> tuple[str, str | None]:
    if strategy == "identity" or strategy == "proportional":
        return strategy, None
    if strategy.startswith("single:") and strategy.split(":", 1)[1]:
        return "single", strategy.split(":", 1)[1]
    raise ValueError(
        f"unknown strategy {strategy!r}; expected identity, single:<event>, or proportional"
    )


def _reserve_issues(reserve: float) -> list[str]:
    if math.isfinite(reserve) and reserve >= 0.0:
        return []
    return [f"reserve must be a finite number >= 0, got {reserve!r}"]


def validate_scenario(config: ScenarioConfig) -> list[str]:
    """Itemize every configuration problem; an empty list means runnable."""
    issues: list[str] = []

    if config.pricing_rule not in ("first", "second"):
        issues.append(f"unknown pricing rule {config.pricing_rule!r}")
    if config.trials < 1:
        issues.append(f"trials must be >= 1, got {config.trials}")
    if config.seed < 0:
        issues.append(f"seed must be >= 0, got {config.seed}")
    issues.extend(_reserve_issues(config.reserve))

    try:
        kind, target = _parse_strategy(config.strategy)
    except ValueError as exc:
        issues.append(str(exc))
        kind, target = "identity", None

    seen_ads: set[str] = set()
    for offer in config.offers:
        if offer.ad_id in seen_ads:
            issues.append(f"duplicate ad_id '{offer.ad_id}'")
        seen_ads.add(offer.ad_id)

        violations = validate_offer(offer)
        issues.extend(f"offer '{offer.ad_id}': {v}" for v in violations)
        if len(offer.events) > ENUMERATION_LIMIT:
            issues.append(f"offer '{offer.ad_id}': more than {ENUMERATION_LIMIT} events")
        if not violations:
            if kind == "single":
                probs = offer.probabilities
                if target not in probs:
                    issues.append(
                        f"offer '{offer.ad_id}': strategy target event '{target}' not declared"
                    )
                elif probs[target] <= 0.0:
                    issues.append(
                        f"offer '{offer.ad_id}': strategy target event '{target}' has zero probability"
                    )
            if config.model is OutcomeModel.FUNNEL:
                try:
                    _funnel_chain(offer.events)
                except ValueError as exc:
                    issues.append(f"offer '{offer.ad_id}': {exc}")

    known_ids = {eid for offer in config.offers for eid in offer.event_ids}
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
    probs = offer.probabilities
    chargeable = {eid for eid in offer.event_ids if offer.bids[eid] * probs[eid] > 0.0}
    if not chargeable:
        return ShiftPlan(shifted={eid: 0.0 for eid in offer.event_ids}, strategy="proportional")
    return shift_proportional(charges, offer, chargeable)


def _batch_adjust(
    offers: Sequence[Offer],
    event_ids: Sequence[tuple[str, ...]],
    charges: ChargeSchedule,
    strategy: str,
) -> tuple:
    """Feasibility, shift plan and adjustment for every offer in one array pass.

    Rows are offers, with ``event_ids`` holding each offer's ids; columns are
    an offer's events in declared order, zero padded to the widest offer.
    Reproduces ``is_feasible`` -> ``build_plan`` -> ``adjust_general`` bit
    for bit on a valid scenario: every sum is a left-to-right column fold in
    declared event order. Returns, as lists, the expected charges, the
    feasibility verdicts, the shifted charges and adjusted bids (padded rows)
    and the expected adjusted values.
    """
    kind, target = _parse_strategy(strategy)
    n = len(offers)
    width = max((len(offer.events) for offer in offers), default=0)
    pad = [0.0] * width
    bids, probs, amounts, targets = [], [], [], []
    for offer, ids in zip(offers, event_ids):
        tail = pad[len(ids):]
        bids += [offer.bids[eid] for eid in ids] + tail
        probs += [e.probability for e in offer.events] + tail
        amounts += [float(charges.charges.get(eid, 0.0)) for eid in ids] + tail
        if kind == "single":
            targets.append(ids.index(target))

    B, P, C = (np.array(x, dtype=float).reshape(n, width) for x in (bids, probs, amounts))
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        BP = B * P
        expected_charge = fold_columns(C * P)
        feasible = expected_charge <= fold_columns(BP) + VALIDATION_TOL
        if kind == "identity":
            D = C
        elif kind == "single":
            rows, cols = np.arange(n), np.array(targets, dtype=np.intp)
            D = np.zeros((n, width))
            D[rows, cols] = expected_charge / P[rows, cols]
        else:
            chargeable = BP > 0.0
            weight = fold_columns(np.where(chargeable, BP, 0.0))
            share = np.divide(B, weight[:, None], out=np.zeros_like(B), where=chargeable)
            D = np.where(chargeable, expected_charge[:, None] * share, 0.0)
        A = B - D
        adjusted_value = fold_columns(A * P)
    return (
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
    auction. Raises ScenarioError on an invalid scenario.
    """
    issues = validate_scenario(config)
    if issues:
        raise ScenarioError(issues)

    event_ids = [offer.event_ids for offer in config.offers]
    charge, feasible, shifted, adjusted, value = _batch_adjust(
        config.offers, event_ids, config.charges, config.strategy
    )
    records: list[dict] = []
    included: list[AdjustedOffer] = []
    for row, (offer, ids) in enumerate(zip(config.offers, event_ids)):
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
    """Run the position auction; with no offers, an outcome with no winners.

    Raises ScenarioError unless the reserve is a finite number >= 0.
    """
    issues = _reserve_issues(reserve)
    if issues:
        raise ScenarioError(issues)
    if not offers:
        return AuctionOutcome(pricing_rule=pricing_rule, ranking=(), winners=())
    runner = run_first_price if pricing_rule == "first" else run_second_price
    return runner(offers, slots, reserve)


def run_scenario(config: ScenarioConfig) -> dict:
    """Run the whole pipeline and return a JSON-ready report.

    Per ad: feasibility verdict, shift plan, adjusted bids, auction result,
    and for winners the expected payment three ways (closed form, exact
    enumeration, Monte Carlo). Deterministic for fixed config and seed.
    """
    records, included = prepare(config)
    outcome = run_auction(included, config.pricing_rule, config.slots, config.reserve)

    index = {offer.ad_id: i for i, offer in enumerate(config.offers)}
    for award in outcome.winners:
        row = index[award.ad_id]
        record, offer = records[row], config.offers[row]
        prices, shifted = award.prices, record["shift_plan"]
        record["slot"] = award.slot
        record["price_factor"] = award.price_factor
        record["prices"] = prices
        record["expected_payment"] = expected_payment(prices, shifted, offer.probabilities)
        record["enumerated_payment"] = enumerate_expected_payment(
            prices, shifted, offer.events, config.model
        )
        mean, stderr = monte_carlo_payment(
            prices,
            shifted,
            offer.events,
            config.model,
            trials=config.trials,
            seed=config.seed,
            substream=(row,),
        )
        record["mc_mean"] = mean
        record["mc_stderr"] = stderr

    report = {
        "format_version": 1,
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
