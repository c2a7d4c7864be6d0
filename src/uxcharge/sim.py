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
``run_scenario`` calls the auction of its pricing rule, then runs each
winner's three oracles as one task on a pool of ``_WORKERS`` threads; numpy
draws and does most array work without the GIL, so the winners overlap.
Both oracles return a non-finite result quietly, in any thread: each sets
its own numpy error state, which is per thread. Only the oracles, and
``run_scenario`` before its pool starts, import numpy, so importing the package
or running an auction does not. ``ScenarioConfig`` is frozen and slotted.

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
from typing import Mapping

from .auction import FIRST_PRICE, SECOND_PRICE, SlotModel, pricing_rule_issues, reserve_issues, slot_model_issues
from .auction import run_first_price, run_second_price
from .model import (
    FORMAT_VERSION,
    VALIDATION_TOL,
    AdjustedOffer,
    ChargeSchedule,
    EventKind,
    EventSpec,
    Offer,
    ScenarioError,
    ShiftPlan,
    brief,
    fold_sum,
    is_finite,
    is_number,
    require_amounts,
    require_same_keys,
    validate_offer,
)
from .shift import shift_identity, shift_proportional, shift_single_event

# The per-offer chain is_feasible -> build_plan -> adjust_general stays
# importable from here: it is the public per-offer API, the reference that
# prepare's per-offer loop reproduces bit for bit, and bench/spans.py wraps
# these bindings.
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
    """Winner's expected charge: sum((price + shifted) * probability) in declared event order,
    each probability read through ``float``."""
    amounts = _amounts(prices, shifted, events)
    return fold_sum(amount * float(ev.probability) for amount, ev in zip(amounts, events))


def _amounts(
    prices: Mapping[str, float], shifted: Mapping[str, float], events: tuple[EventSpec, ...]
) -> list[float]:
    """Each event's charge if it occurs, price + shifted, in declared event order.

    The three oracles' shared preamble. Raises KeyMismatchError unless both
    mappings are keyed to the events, and ScenarioError (``require_amounts``)
    for each amount that is not a number or is an int beyond float range,
    then for each event whose probability is not one; an infinite amount
    gives the oracles a non-finite result.
    """
    ids = tuple(ev.event_id for ev in events)
    require_same_keys(ids, prices, "prices")
    require_same_keys(ids, shifted, "shift amounts")
    require_amounts(ids, prices, shifted)
    issues = [
        f"probability of '{ev.event_id}' must be a number, got {brief(ev.probability)}"
        for ev in events
        if type(ev.probability) is not float and not is_number(ev.probability)
    ]
    if issues:
        raise ScenarioError(issues)
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
    the chain, or positive below a zero stage) or a funnel kind repeats, and
    ScenarioError if ``model`` is not an ``OutcomeModel``.
    """
    if model is not OutcomeModel.FUNNEL:
        if model is not OutcomeModel.INDEPENDENT:
            raise ScenarioError(run_flag_issues(model, 1, 0))
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
    import numpy as np
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


def _substream_rng(seed: int, substream: tuple[int, ...]):
    """The (seed, substream) Philox stream, a ``numpy.random.Generator``."""
    import numpy as np
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


def _is_int(value: object) -> bool:
    """An int and not a bool, as trials and seed must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def run_flag_issues(model: OutcomeModel, trials: int, seed: int) -> list[str]:
    """The run flags' rules, an empty list when they hold: trials an int in
    1..``TRIALS_LIMIT``, seed an int >= 0 and model an ``OutcomeModel``.
    ``validate_scenario`` and ``monte_carlo_payment`` share them."""
    issues = []
    if not _is_int(trials):
        issues.append(f"trials must be an integer, got {brief(trials)}")
    elif trials < 1:
        issues.append(f"trials must be >= 1, got {trials}")
    elif trials > TRIALS_LIMIT:
        issues.append(f"trials must be <= {TRIALS_LIMIT}, got {trials}")
    if not _is_int(seed):
        issues.append(f"seed must be an integer, got {brief(seed)}")
    elif seed < 0:
        issues.append(f"seed must be >= 0, got {seed}")
    if not isinstance(model, OutcomeModel):
        issues.append(f"model must be an OutcomeModel, got {brief(model)}")
    return issues


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
    the unit size or numpy's or BLAS's summation. Raises ScenarioError,
    itemized by ``run_flag_issues``, on a bad model, trial count or seed.
    """
    import numpy as np
    issues = run_flag_issues(model, trials, seed)
    if issues:
        raise ScenarioError(issues)
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


def _moments(totals) -> tuple[float, float]:
    """Mean and summed squared deviations of the float64 array ``totals``, each a
    sequential prefix sum taken in one buffer, a ``_BLOCK`` of trials at a time."""
    import numpy as np
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


@dataclass(frozen=True, slots=True)
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
    target = strategy[len("single:"):] if isinstance(strategy, str) and strategy.startswith("single:") else ""
    if target:
        return "single", target
    raise ValueError(
        f"unknown strategy {strategy!r}; expected identity, single:<event>, or proportional"
    )


def validate_scenario(config: ScenarioConfig) -> list[str]:
    """Itemize every configuration problem; an empty list means runnable.

    One loop checks each offer for a repeated ad_id, the offer rules
    (``validate_offer``) and the event limit, then a valid offer for the
    rules of a ``single:<event>`` strategy and of the funnel model, when
    chosen.
    """
    issues: list[str] = []

    issues.extend(pricing_rule_issues(config.pricing_rule))
    issues.extend(run_flag_issues(config.model, config.trials, config.seed))
    issues.extend(reserve_issues(config.reserve))

    try:
        kind, target = _parse_strategy(config.strategy)
    except ValueError as exc:
        issues.append(str(exc))
        kind = "identity"

    offers = config.offers
    if not isinstance(offers, (tuple, list)):
        issues.append(f"offers must be a tuple or list, got {brief(offers)}")
        offers = ()
    funnel = config.model is OutcomeModel.FUNNEL
    seen_ads: set[str] = set()
    known_ids: set[str] = set()
    for i, offer in enumerate(offers):
        if not isinstance(offer, Offer):
            issues.append(f"offers[{i}] must be an Offer, got {brief(offer)}")
            continue
        ad_id, events = offer.ad_id, offer.events
        if isinstance(ad_id, str):  # else validate_offer words it
            if ad_id in seen_ads:
                issues.append(f"duplicate ad_id '{ad_id}'")
            seen_ads.add(ad_id)

        violations = validate_offer(offer)
        issues.extend(f"offer '{ad_id}': {v}" for v in violations)
        if isinstance(events, tuple):  # else validate_offer words it
            known_ids.update(e.event_id for e in events if isinstance(e, EventSpec) and isinstance(e.event_id, str))
            if len(events) > ENUMERATION_LIMIT:
                issues.append(f"offer '{ad_id}': more than {ENUMERATION_LIMIT} events")
        if violations:
            continue
        if kind == "single":  # a valid offer's event ids are unique
            p = next((e.probability for e in events if e.event_id == target), None)
            if p is None:
                issues.append(f"offer '{ad_id}': strategy target event '{target}' not declared")
            elif p <= 0.0:
                issues.append(f"offer '{ad_id}': strategy target event '{target}' has zero probability")
        if funnel:
            try:
                _funnel_chain(events, config.model)
            except ValueError as exc:
                issues.append(f"offer '{ad_id}': {exc}")

    slots = config.slots
    issues.extend(slot_model_issues(slots))
    if isinstance(slots, SlotModel) and offers:
        undeclared = [ad for ad in slots.ctr if ad not in seen_ads]
        issues.extend(f"slots: ctr row keyed to ad {ad!r} declared by no offer" for ad in undeclared)

    charges = config.charges
    if not isinstance(charges, ChargeSchedule) or not isinstance(charges.charges, Mapping):
        issues.append(f"charges must be a ChargeSchedule of a mapping, got {brief(charges)}")
        return issues
    for eid, amount in charges.charges.items():
        if offers and eid not in known_ids:
            issues.append(f"charge keyed to event '{eid}' declared by no offer")
        if not is_number(amount):
            issues.append(f"charge on '{eid}' must be a number, got {brief(amount)}")
        elif not is_finite(amount):
            issues.append(f"non-finite charge on '{eid}': {brief(amount)}")
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


#: The fields of a record that only a winner fills, in report order.
_WINNER_FIELDS = dict.fromkeys(
    ("slot", "price_factor", "prices", "expected_payment", "enumerated_payment", "mc_mean", "mc_stderr")
)


def prepare(config: ScenarioConfig) -> tuple[list[dict], list[AdjustedOffer]]:
    """Validate, then take each ad through feasibility, charge shift and adjustment.

    One loop over the offers folds each one's expected charge and value, shift
    plan, adjusted bids and value in declared event order, bit for bit as
    ``is_feasible`` -> ``build_plan`` -> ``adjust_general``. A charge the
    schedule does not list reads as 0.0; every amount goes through ``float``.

    Returns one report record per offer, in offer order, with its shift plan
    and the reason for each exclusion; and the adjusted offers that enter the
    auction. Raises ScenarioError on an invalid scenario or overflowing offers.
    """
    issues = validate_scenario(config)
    if issues:
        raise ScenarioError(issues)

    kind, target = _parse_strategy(config.strategy)
    charge_on = config.charges.charges.get
    records: list[dict] = []
    included: list[AdjustedOffer] = []
    overflow: list[str] = []
    for offer in config.offers:
        bids, rows = offer.bids, []
        charge = value = 0.0
        for event in offer.events:
            eid = event.event_id
            b, p, c = float(bids[eid]), float(event.probability), float(charge_on(eid, 0.0))
            charge += c * p
            value += b * p
            rows.append((eid, b, p, c))
        ids, B, P, C = zip(*rows)  # a valid offer has a view event
        feasible = charge <= value + VALIDATION_TOL
        record = {
            "ad_id": offer.ad_id,
            "price_type": offer.price_type.value,
            "total_expected_charge": charge,
            "feasible": feasible,
            "excluded": False,
            "exclusion_reason": None,
            "shift_plan": None,
            "adjusted_bids": None,
            "expected_adjusted_value": None,
            **_WINNER_FIELDS,
        }
        records.append(record)

        if feasible:
            if kind == "identity":
                D = C
            elif kind == "single":
                # the target has probability above 0 (validate_scenario)
                D = [charge / p if eid == target else 0.0 for eid, p in zip(ids, P)]
            else:  # proportional: the events with b * p > 0 fold to the value, as every other b * p is 0
                D = [charge * (b / value) if b * p > 0.0 else 0.0 for b, p in zip(B, P)]
            adjusted, adjusted_value = {}, 0.0
            for eid, b, p, d in zip(ids, B, P, D):
                adjusted[eid] = a = b - d
                adjusted_value += a * p
            record["shift_plan"] = dict(zip(ids, D))
            record["adjusted_bids"] = adjusted
            record["expected_adjusted_value"] = adjusted_value
            if adjusted_value < 0.0:
                record["excluded"] = True
                record["exclusion_reason"] = "expected adjusted value is negative"
            else:
                included.append(AdjustedOffer(offer.ad_id, offer.events, adjusted, adjusted_value))
        else:
            record["excluded"] = True
            record["exclusion_reason"] = "expected user-experience charge exceeds expected offer value"

        # Bids are finite, so a non-finite shifted charge or adjusted bid makes
        # the adjusted value non-finite too.
        if not math.isfinite(charge) or (feasible and not math.isfinite(adjusted_value)):
            overflow.append(f"offer '{offer.ad_id}': expected charge, shift plan or adjusted value overflows float range")
    if overflow:
        raise ScenarioError(overflow)
    return records, included


def run_scenario(config: ScenarioConfig) -> dict:
    """Run the whole pipeline and return a JSON-ready report.

    Per ad: feasibility verdict, shift plan, adjusted bids, auction result,
    and for winners the expected payment three ways (closed form, exact
    enumeration, Monte Carlo). Deterministic for fixed config and seed:
    each winner's three oracles run as one task, on a pool of ``_WORKERS``
    threads, and land in winner order. ``prepare`` checks the pricing rule.
    Raises ScenarioError naming each winner whose oracles overflow float range.
    """
    records, included = prepare(config)
    # numpy is first imported here, not by an oracle in a pool thread: each
    # pool thread allocates from its own malloc arena, and an import there
    # raised the bulk-simulate benchmark's peak RSS by 1-2 MB.
    import numpy  # noqa: F401
    run = run_first_price if config.pricing_rule == FIRST_PRICE else run_second_price
    outcome = run(included, config.slots, config.reserve)

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
        "reserve": float(config.reserve),  # the reserve the auction ran with
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
