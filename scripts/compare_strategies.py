#!/usr/bin/env python3
"""Sweep shift strategies and pricing rules over one hybrid scenario.

Demonstrates the core invariance: whichever strategy redistributes the
charges, every ad's expected adjusted value, the auction ranking, and the
winners' expected payments come out the same. Only the realized per-trial
charges differ (visible in the Monte Carlo spread). Exits 1 unless, for
each pricing rule, every strategy gives identity's ranking and, to
``approx_eq``, its expected adjusted values and winners' expected payments.

Usage:
    python scripts/compare_strategies.py [--trials N] [--seed S]
"""

import argparse
import sys

import uxcharge as ux
from uxcharge.model import approx_eq
from uxcharge.sim import OutcomeModel, ScenarioConfig, run_scenario


def build_offers() -> tuple[ux.Offer, ...]:
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.2),
        ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.05),
    )
    return (
        ux.Offer("a1", ux.PriceType.HYBRID, events, {"view": 0.3, "click": 1.0, "conv": 4.0}),
        ux.Offer("a2", ux.PriceType.HYBRID, events, {"view": 0.1, "click": 2.0, "conv": 0.0}),
        ux.Offer("a3", ux.PriceType.CPM, events, {"view": 0.25, "click": 0.0, "conv": 0.0}),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    offers = build_offers()
    charges = ux.ChargeSchedule({"view": 0.05, "click": 0.3})

    broken = []
    for pricing in ("first", "second"):
        print(f"\n=== {pricing}-price auction ===")
        header = f"{'strategy':<14} {'ranking':<14} {'winner':<7} {'E[pay]':>9} {'mc mean':>9} {'mc se':>9}"
        print(header)
        print("-" * len(header))
        reference = None
        for strategy in ("identity", "single:click", "proportional"):
            config = ScenarioConfig(
                offers=offers,
                charges=charges,
                pricing_rule=pricing,
                strategy=strategy,
                model=OutcomeModel.FUNNEL,
                trials=args.trials,
                seed=args.seed,
            )
            report = run_scenario(config)
            # the ranking with each ad's expected adjusted value, then each winner's expected payment
            outcome = [*map(tuple, report["ranking"])]
            outcome += [(ad["ad_id"], ad["expected_payment"]) for ad in report["ads"] if ad["slot"] is not None]
            reference = reference or outcome  # identity's
            if len(outcome) != len(reference) or not all(
                ad == ref_ad and approx_eq(x, ref_x) for (ad, x), (ref_ad, ref_x) in zip(outcome, reference)
            ):
                broken.append(f"{pricing}-price {strategy}")
            ranking = ">".join(ad for ad, _ in report["ranking"])
            top = next(ad for ad in report["ads"] if ad["slot"] == 1)
            print(
                f"{strategy:<14} {ranking:<14} {top['ad_id']:<7} "
                f"{top['expected_payment']:>9.6f} {top['mc_mean']:>9.6f} {top['mc_stderr']:>9.6f}"
            )

    if broken:
        sys.exit(f"ranking, adjusted values or expected payments differ from identity's: {', '.join(broken)}")
    print(
        "\nExpected payments match across strategies; Monte Carlo means differ only "
        "within sampling error because realized charges land on different events."
    )


if __name__ == "__main__":
    main()
