"""Seeded input generators for the benchmark workloads.

Generators use only the standard library and never import ``uxcharge``: they
emit a scenario document (plain JSON data) for the ``simulate`` workloads and
plain request records for ``auction-stream``. The same (workload, seed, sizes)
always yields the same inputs, because every draw comes from one
``random.Random`` seeded with a string, which CPython hashes with SHA-512
rather than with the per-process string hash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Per-event user-experience charges shared by every ad of a scenario.
FUNNEL_CHARGES = {"view": 0.02, "click": 0.15, "conversion": 0.4}
CUSTOM_CHARGE = 0.05
# Fraction of ads made infeasible (expected charge above expected bid value).
INFEASIBLE_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """One named workload: its input sizes and the pipeline settings it runs."""

    name: str
    kind: str  # "simulate" (CLI calls on one scenario) or "stream" (library auctions)
    offers: int  # offers per scenario or per auction request
    slots: int
    custom_events: int  # custom events per offer, beyond view/click/conversion
    strategy: str
    pricing: str
    model: str = "independent"
    trials: int = 0  # Monte Carlo trials per winner (simulate workloads)
    requests: int = 0  # distinct auction requests in the pool (stream workload)


WORKLOADS = {
    w.name: w
    for w in (
        # Per-offer Python work and canonical JSON dominate; oracles are <1%.
        Workload(
            "bulk-simulate", "simulate", offers=10_000, slots=10, custom_events=0,
            strategy="proportional", pricing="second", model="independent", trials=10_000,
        ),
        # Monte Carlo and enumeration dominate; parse, auction and serialize are tiny.
        Workload(
            "oracle-heavy", "simulate", offers=64, slots=16, custom_events=13,
            strategy="identity", pricing="first", model="funnel", trials=200_000,
        ),
        # Many small auctions from one closed-loop caller: fixed cost per call dominates.
        Workload(
            "auction-stream", "stream", offers=24, slots=3, custom_events=0,
            strategy="single:click", pricing="second", requests=1_000,
        ),
    )
}


def _rng(workload: Workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}")


def _event_ids(custom_events: int) -> list[tuple[str, str]]:
    ids = [("view", "view"), ("click", "click"), ("conversion", "conversion")]
    ids += [(f"custom{i:02d}", "custom") for i in range(custom_events)]
    return ids


def _charges(custom_events: int) -> dict[str, float]:
    charges = dict(FUNNEL_CHARGES)
    # every other custom event carries a charge, so identity plans are mixed
    charges.update({f"custom{i:02d}": CUSTOM_CHARGE for i in range(0, custom_events, 2)})
    return charges


def _hybrid_offer(
    rng: random.Random, ad_id: str, custom_events: int, charges: dict, infeasible: bool
) -> dict:
    """A hybrid offer with its own event probabilities and bids on every event.

    Probabilities never increase along view -> click -> conversion, so the
    offer is valid under both outcome models. Bids are scaled so that the
    expected bid value sits well above (feasible) or well below (infeasible)
    the expected charge, far from any tolerance edge.
    """
    p_click = rng.uniform(0.02, 0.3)
    probs = {"view": 1.0, "click": p_click, "conversion": p_click * rng.uniform(0.05, 0.5)}
    for i in range(custom_events):
        probs[f"custom{i:02d}"] = rng.uniform(0.05, 0.95)
    kinds = dict(_event_ids(custom_events))

    raw = {eid: rng.uniform(0.1, 1.0) / max(p, 0.05) for eid, p in probs.items()}
    expected_charge = sum(charges.get(eid, 0.0) * p for eid, p in probs.items())
    raw_value = sum(raw[eid] * p for eid, p in probs.items())
    ratio = rng.uniform(0.2, 0.7) if infeasible else rng.uniform(1.5, 6.0)
    scale = ratio * expected_charge / raw_value
    return {
        "ad_id": ad_id,
        "price_type": "hybrid",
        "events": [{"id": eid, "kind": kinds[eid], "prob": p} for eid, p in probs.items()],
        "bids": {eid: amount * scale for eid, amount in raw.items()},
    }


def _ctr_row(rng: random.Random, p_click: float, k: int) -> list[float]:
    """Per-slot click probabilities for one ad, nonincreasing down the page."""
    p = min(1.0, p_click * rng.uniform(0.8, 1.5))
    row = []
    for _ in range(k):
        row.append(p)
        p *= rng.uniform(0.6, 0.95)
    return row


def _offers_with_ctr(
    rng: random.Random, w: Workload, charges: dict, prefix: str
) -> tuple[list[dict], dict[str, list[float]]]:
    infeasible = set(rng.sample(range(w.offers), round(w.offers * INFEASIBLE_SHARE)))
    width = len(str(w.offers - 1))
    offers, ctr = [], {}
    for i in range(w.offers):
        ad_id = f"{prefix}{i:0{width}d}"
        offer = _hybrid_offer(rng, ad_id, w.custom_events, charges, i in infeasible)
        offers.append(offer)
        ctr[ad_id] = _ctr_row(rng, offer["events"][1]["prob"], w.slots)
    return offers, ctr


def scenario(w: Workload, seed: int) -> dict:
    """The scenario document a ``simulate`` workload runs, for one seed."""
    rng = _rng(w, seed)
    charges = _charges(w.custom_events)
    offers, ctr = _offers_with_ctr(rng, w, charges, "ad")
    return {
        "format_version": 1,
        "offers": offers,
        "charges": charges,
        "slots": {"k": w.slots, "ctr_matrix": ctr},
        "reserve": 0.0,
    }


def simulate_args(w: Workload, seed: int) -> list[str]:
    """Command-line settings of the ``simulate`` call, after the input path."""
    return [
        "--strategy", w.strategy,
        "--pricing", w.pricing,
        "--model", w.model,
        "--trials", str(w.trials),
        "--seed", str(seed % (1 << 31)),
    ]


def requests(w: Workload, seed: int) -> list[dict]:
    """The pool of independent auction requests of the ``stream`` workload.

    Each request carries its offers, charges, slot rows and, per slot, one
    uniform draw per event, from which the caller realizes the winner's
    events for settlement.
    """
    rng = _rng(w, seed)
    charges = _charges(w.custom_events)
    n_events = 3 + w.custom_events
    pool = []
    for r in range(w.requests):
        offers, ctr = _offers_with_ctr(rng, w, charges, f"r{r}-ad")
        draws = [[rng.random() for _ in range(n_events)] for _ in range(w.slots)]
        pool.append(
            {"offers": offers, "charges": charges, "k": w.slots, "ctr": ctr, "draws": draws}
        )
    return pool
