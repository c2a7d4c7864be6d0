"""Expectation oracles, Monte Carlo behavior, and the scenario runner."""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge import sim
from uxcharge.sim import (
    _BLOCK,
    ENUMERATION_LIMIT,
    _substream_rng,
    OutcomeModel,
    ScenarioConfig,
    ScenarioError,
    enumerate_expected_payment,
    expected_payment,
    monte_carlo_payment,
    run_auction,
    run_scenario,
    validate_scenario,
)

from helpers import (
    close12,
    cpc_offer,
    cpm_offer,
    event_sets,
    fold_enumeration,
    fold_monte_carlo,
    money,
    two_events,
)

exact = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)

EVENTS = two_events(0.1)
PROBS = {"view": 1.0, "click": 0.1}


def test_expected_payment_examples():
    assert expected_payment(
        {"view": 0.1, "click": 0.9}, {"view": 0.05, "click": 0.1}, PROBS
    ) == exact(0.25)
    assert expected_payment(
        {"view": 0.0, "click": 0.0}, {"view": 0.0, "click": 0.0}, PROBS
    ) == 0.0
    assert expected_payment(
        {"view": 0.1, "click": 0.0}, {"view": 0.0, "click": 0.5}, PROBS
    ) == exact(0.15)


def test_expected_payment_rejects_key_mismatch():
    with pytest.raises(ux.KeyMismatchError):
        expected_payment({"view": 0.1}, {"view": 0.0}, PROBS)


@pytest.mark.parametrize("model", [OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL])
def test_enumeration_reproduces_closed_form(model):
    value = enumerate_expected_payment(
        {"view": 0.1, "click": 0.9}, {"view": 0.05, "click": 0.1}, EVENTS, model
    )
    assert value == exact(0.25)


def test_enumeration_single_certain_event():
    events = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0),)
    value = enumerate_expected_payment({"view": 0.3}, {"view": 0.2}, events)
    assert value == exact(0.5)


def test_enumeration_rejects_oversized_event_sets():
    events = tuple(
        ux.EventSpec(f"e{i}", ux.EventKind.CUSTOM, 0.5) for i in range(21)
    )
    zeros = {e.event_id: 0.0 for e in events}
    with pytest.raises(ValueError, match="limited to 20"):
        enumerate_expected_payment(zeros, zeros, events)


def test_funnel_model_reproduces_marginals():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.4),
        ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.1),
        ux.EventSpec("extra", ux.EventKind.CUSTOM, 0.7),
    )
    zeros = {e.event_id: 0.0 for e in events}
    for ev in events:
        indicator = dict(zeros, **{ev.event_id: 1.0})
        marginal = enumerate_expected_payment(indicator, zeros, events, OutcomeModel.FUNNEL)
        assert marginal == exact(ev.probability)


def test_funnel_model_rejects_increasing_chain():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.1),
        ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.5),
    )
    zeros = {e.event_id: 0.0 for e in events}
    with pytest.raises(ValueError, match="nonincreasing"):
        enumerate_expected_payment(zeros, zeros, events, OutcomeModel.FUNNEL)


@settings(max_examples=60, deadline=None)
@given(event_sets(), st.data())
def test_oracle_agrees_with_closed_form_under_both_models(events, data):
    prices = {e.event_id: data.draw(money, label=f"r-{e.event_id}") for e in events}
    shifted = {e.event_id: data.draw(money, label=f"d-{e.event_id}") for e in events}
    probs = {e.event_id: e.probability for e in events}
    closed = expected_payment(prices, shifted, probs)
    for model in OutcomeModel:
        assert close12(enumerate_expected_payment(prices, shifted, events, model), closed)


def test_monte_carlo_is_deterministic_for_fixed_seed():
    args = ({"view": 0.1, "click": 0.9}, {"view": 0.05, "click": 0.1}, EVENTS)
    first = monte_carlo_payment(*args, trials=5000, seed=7, substream=(3,))
    second = monte_carlo_payment(*args, trials=5000, seed=7, substream=(3,))
    assert first == second
    other_stream = monte_carlo_payment(*args, trials=5000, seed=7, substream=(4,))
    assert other_stream != first


def test_monte_carlo_single_trial_is_reproducible():
    args = ({"view": 0.1, "click": 0.9}, {"view": 0.05, "click": 0.1}, EVENTS)
    mean, stderr = monte_carlo_payment(*args, trials=1, seed=123)
    assert stderr == 0.0
    assert mean == monte_carlo_payment(*args, trials=1, seed=123)[0]


@pytest.mark.parametrize(
    "trials", [1, 2, 1000, 20000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
)
@pytest.mark.parametrize("model", [OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL])
def test_monte_carlo_reductions_are_sequential_sums(model, trials):
    prices = {"view": 0.1, "click": 0.9, "conv": 2.5}
    shifted = {"view": 0.05, "click": 0.1, "conv": 0.0}
    events = (*EVENTS, ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.03))
    seed, substream = 11, (2,)
    mean, stderr = monte_carlo_payment(
        prices, shifted, events, model, trials=trials, seed=seed, substream=substream
    )
    reference = fold_monte_carlo(prices, shifted, events, model, trials, seed, substream)
    assert (mean.hex(), stderr.hex()) == tuple(x.hex() for x in reference)
    if trials == 1:
        assert stderr == 0.0


@pytest.fixture
def threads(monkeypatch):
    """Sets the Monte Carlo thread count, with threads used however few the events and uniforms."""
    monkeypatch.setattr(sim, "_THREADED_EVENTS", 0)
    monkeypatch.setattr(sim, "_THREADED_UNIFORMS", 0)
    return lambda workers: monkeypatch.setattr(sim, "_WORKERS", workers)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL])
def test_monte_carlo_bits_do_not_depend_on_the_thread_count(model, workers, threads):
    threads(workers)
    unit = _BLOCK // workers  # rows a thread draws at a time
    prices = {"view": 0.1, "click": 0.9, "conv": 2.5}
    shifted = {"view": 0.05, "click": 0.1, "conv": 0.0}
    events = (*EVENTS, ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.03))
    # 4 * workers +- 1 trials give empty and few-row ranges; 10001 puts range edges inside units.
    for trials in (1, 4 * workers - 1, 4 * workers + 1, unit - 1, unit, unit + 1, _BLOCK + 3, 10001, 20000):
        mean, stderr = monte_carlo_payment(
            prices, shifted, events, model, trials=trials, seed=11, substream=(2,)
        )
        reference = fold_monte_carlo(prices, shifted, events, model, trials, 11, (2,))
        assert (mean.hex(), stderr.hex()) == tuple(x.hex() for x in reference), trials


def test_more_threads_than_cores_switching_often_fill_every_trial(threads):
    # Units write disjoint slices of one totals array; a row left unfilled or
    # filled from the wrong slice of the stream would change the bits.
    threads(8)
    prices = {"view": 0.1, "click": 0.9}
    shifted = {"view": 0.05, "click": 0.1}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mean, stderr = monte_carlo_payment(prices, shifted, EVENTS, trials=50_000, seed=8)
    finally:
        sys.setswitchinterval(interval)
    reference = fold_monte_carlo(prices, shifted, EVENTS, OutcomeModel.INDEPENDENT, 50_000, 8, ())
    assert (mean.hex(), stderr.hex()) == tuple(x.hex() for x in reference)


def test_threads_start_only_for_a_call_of_many_events_and_uniforms(monkeypatch):
    monkeypatch.setattr(sim, "_WORKERS", 2)
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", CountingPool)
    n = sim._THREADED_EVENTS
    few, enough = funnel_events(n - 1), funnel_events(n)
    least = sim._THREADED_UNIFORMS // n  # trials
    for events, trials in ((enough, least - 1), (few, least * n // (n - 1) + 1)):
        amounts = {e.event_id: 0.5 for e in events}
        monte_carlo_payment(amounts, amounts, events, trials=trials)
    assert pools == []
    amounts = {e.event_id: 0.5 for e in enough}
    monte_carlo_payment(amounts, amounts, enough, trials=least)
    assert pools == [2]


@pytest.mark.parametrize("steps", [0, 1, 3, 250])
def test_philox_advance_skips_four_raw_words_per_step(steps):
    raw = _substream_rng(9, (1,)).bit_generator.random_raw(4 * steps + 40)
    bits = _substream_rng(9, (1,)).bit_generator
    bits.advance(steps)
    assert bits.random_raw(40).tolist() == raw[4 * steps:].tolist()
    skipped = _substream_rng(9, (1,), skip=4 * steps).bit_generator
    assert skipped.random_raw(40).tolist() == raw[4 * steps:].tolist()


def test_a_skip_off_the_four_word_grid_is_rejected():
    with pytest.raises(ValueError, match="multiple of 4"):
        _substream_rng(9, (1,), skip=6)


def test_uniforms_are_the_top_53_bits_of_the_raw_philox_stream():
    # NEP 19 pins the raw stream only; this pins the float stream on every numpy.
    uniforms = _substream_rng(9, (1,)).random(1000)
    raw = _substream_rng(9, (1,)).bit_generator.random_raw(1000)
    assert uniforms.tolist() == ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


@pytest.mark.parametrize("rows", [(1, 1), (3, 4), (_BLOCK, 5)])
@pytest.mark.parametrize("n_events", [1, 3, 16])
def test_blockwise_draws_reproduce_the_one_shot_stream(rows, n_events):
    rng = _substream_rng(4, (2,))
    blocks = [rng.random((b, n_events)) for b in rows]
    whole = _substream_rng(4, (2,)).random((sum(rows), n_events))
    assert np.concatenate(blocks).tolist() == whole.tolist()


def test_squared_deviations_beyond_float_range_are_summed_rescaled():
    # Scaling an amount by a power of two scales the stderr by it exactly,
    # even where the squared deviations no longer fit in a float.
    zeros = {"view": 0.0, "click": 0.0}
    unit = monte_carlo_payment(zeros, {"view": 0.0, "click": 1.0}, EVENTS, trials=1000, seed=3)
    huge = monte_carlo_payment(zeros, {"view": 0.0, "click": 2.0**600}, EVENTS, trials=1000, seed=3)
    assert huge == (unit[0] * 2.0**600, unit[1] * 2.0**600)


def test_trial_totals_beyond_float_range_are_summed_rescaled():
    # Here the sum of the trial totals overflows too, not only their squares.
    zeros = {"view": 0.0, "click": 0.0}
    events = two_events(0.5)
    unit = monte_carlo_payment(zeros, {"view": 0.0, "click": 1.0}, events, trials=1000, seed=3)
    huge = monte_carlo_payment(zeros, {"view": 0.0, "click": 2.0**1020}, events, trials=1000, seed=3)
    assert huge == (unit[0] * 2.0**1020, unit[1] * 2.0**1020)


def funnel_events(n: int) -> tuple[ux.EventSpec, ...]:
    custom = [ux.EventSpec(f"c{i}", ux.EventKind.CUSTOM, 0.5) for i in range(n - 3)]
    return (*two_events(0.3), ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.05), *custom)


def monte_carlo_peak_mib(n_events: int, trials: int) -> float:
    events = funnel_events(n_events)
    amounts = {e.event_id: 0.5 for e in events}
    args = (amounts, amounts, events, OutcomeModel.FUNNEL)
    monte_carlo_payment(*args, trials=10)  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        monte_carlo_payment(*args, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_monte_carlo_memory_is_per_trial_plus_one_block(workers, threads):
    threads(workers)
    sixteen = monte_carlo_peak_mib(16, 200_000)
    assert sixteen < 5.0
    assert sixteen - monte_carlo_peak_mib(8, 200_000) < 1.0


@pytest.mark.parametrize("workers", [2, 4])
def test_running_units_hold_one_block_of_uniforms_between_them(workers, threads):
    threads(1)
    serial = monte_carlo_peak_mib(16, 200_000)
    threads(workers)
    assert monte_carlo_peak_mib(16, 200_000) < serial + 0.1


def mixed_event_set(n: int):
    """``n`` events in a declared order unlike the funnel's, with amounts of mixed magnitude.

    Funnel events keep nonincreasing probabilities, so the set is valid
    under both outcome models.
    """
    funnel = [
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.3),
        ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.07),
    ]
    custom = [
        ux.EventSpec(f"c{i}", ux.EventKind.CUSTOM, 0.05 + 0.9 * ((i * 0.618) % 1.0))
        for i in range(n - len(funnel))
    ]
    events = (*custom[:1], funnel[1], *custom[1:3], funnel[0], *custom[3:], funnel[2])
    prices = {e.event_id: 10.0 ** (i % 9 - 4) * (1.0 + i / 7.0) for i, e in enumerate(events)}
    shifted = {e.event_id: 10.0 ** -(i % 4) / 3.0 for i, e in enumerate(events)}
    return events, prices, shifted


# 13 and 14 events sit either side of 2^13 outcomes, a former block edge.
@pytest.mark.parametrize("n", [3, 4, 8, 13, 14, 16])
@pytest.mark.parametrize("model", [OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL])
def test_oracles_equal_pure_python_folds_in_declared_order(model, n):
    events, prices, shifted = mixed_event_set(n)
    enumerated = enumerate_expected_payment(prices, shifted, events, model)
    assert enumerated.hex() == fold_enumeration(prices, shifted, events, model).hex()
    for trials in (1, 3000):
        mean, stderr = monte_carlo_payment(
            prices, shifted, events, model, trials=trials, seed=5, substream=(n,)
        )
        reference = fold_monte_carlo(prices, shifted, events, model, trials, 5, (n,))
        assert (mean.hex(), stderr.hex()) == tuple(x.hex() for x in reference)


def enumeration_peak_mib(n_events: int) -> float:
    events, prices, shifted = mixed_event_set(n_events)
    tracemalloc.start()
    try:
        enumerate_expected_payment(prices, shifted, events, OutcomeModel.FUNNEL)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_enumeration_memory_is_two_and_a_half_outcome_arrays():
    assert enumeration_peak_mib(16) < 2.0
    assert enumeration_peak_mib(20) < 24.0


@pytest.mark.parametrize("model", [OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL])
def test_enumeration_at_the_limit_agrees_with_the_closed_form(model):
    events, prices, shifted = mixed_event_set(ENUMERATION_LIMIT)
    closed = expected_payment(prices, shifted, {e.event_id: e.probability for e in events})
    enumerated = enumerate_expected_payment(prices, shifted, events, model)
    assert abs(enumerated - closed) <= 1e-9 * abs(closed)


def test_enumeration_of_no_events_is_zero():
    assert enumerate_expected_payment({}, {}, ()) == 0.0


def test_monte_carlo_zero_amounts_give_zero():
    zeros = {"view": 0.0, "click": 0.0}
    mean, stderr = monte_carlo_payment(zeros, zeros, EVENTS, trials=1000, seed=5)
    assert mean == 0.0
    assert stderr == 0.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "events, amounts",
    [
        ((two_events(0.5)[0],), {"view": math.inf}),  # inf - inf in the moments
        (two_events(0.5), {"view": 0.0, "click": math.inf}),  # 0 * inf in a trial's fold
        (two_events(0.5), {"view": 1e308, "click": 1e308}),  # a trial's fold overflows
    ],
)
def test_oracles_return_a_non_finite_payment_without_a_warning(events, amounts, workers, threads):
    threads(workers)
    zeros = {eid: 0.0 for eid in amounts}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enumerated = enumerate_expected_payment(amounts, zeros, events)
        mean, stderr = monte_carlo_payment(amounts, zeros, events, trials=20000, seed=1)
    assert not any(map(math.isfinite, (enumerated, mean, stderr)))


def test_monte_carlo_rejects_nonpositive_trials():
    zeros = {"view": 0.0, "click": 0.0}
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo_payment(zeros, zeros, EVENTS, trials=0)


@pytest.mark.parametrize("model", [OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL])
def test_monte_carlo_converges_to_oracle(model):
    prices = {"view": 0.1, "click": 0.9}
    shifted = {"view": 0.05, "click": 0.1}
    oracle = enumerate_expected_payment(prices, shifted, EVENTS, model)
    mean, stderr = monte_carlo_payment(
        prices, shifted, EVENTS, model, trials=10**6, seed=42
    )
    assert abs(mean - oracle) <= 3.0 * stderr


def scenario_config(**overrides) -> ScenarioConfig:
    x = cpc_offer("x", 2.0, 0.1)
    y = cpm_offer("y", 0.15, 0.1)
    defaults = dict(
        offers=(x, y),
        charges=ux.ChargeSchedule({"view": 0.05}),
        pricing_rule="second",
        strategy="single:click",
        trials=20000,
        seed=42,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_run_scenario_worked_example():
    report = run_scenario(scenario_config())
    assert report["winners"] == [{"ad_id": "x", "slot": 1}]
    winner = report["ads"][0]
    assert winner["prices"]["click"] == exact(1.0)
    assert winner["prices"]["click"] + winner["shift_plan"]["click"] == exact(1.5)
    assert winner["expected_payment"] == exact(0.15)
    assert winner["enumerated_payment"] == exact(winner["expected_payment"])
    assert abs(winner["mc_mean"] - 0.15) <= 3.0 * winner["mc_stderr"]
    loser = report["ads"][1]
    assert loser["slot"] is None and loser["expected_payment"] is None


def test_run_scenario_reports_infeasible_ads_as_excluded():
    # charge 0.18 fits within x's expected value (0.2) but not y's (0.15)
    config = scenario_config(charges=ux.ChargeSchedule({"view": 0.18}))
    report = run_scenario(config)
    x, y = report["ads"]
    assert x["feasible"] and not x["excluded"]
    assert not y["feasible"] and y["excluded"]
    assert "exceeds expected offer value" in y["exclusion_reason"]
    assert y["shift_plan"] is None
    assert report["winners"] == [{"ad_id": "x", "slot": 1}]


def test_run_scenario_empty_offer_list():
    config = ScenarioConfig(offers=(), charges=ux.ChargeSchedule({}))
    report = run_scenario(config)
    assert report["ads"] == []
    assert report["ranking"] == []
    assert report["winners"] == []


def test_run_scenario_is_deterministic():
    assert run_scenario(scenario_config()) == run_scenario(scenario_config())


def test_run_scenario_strategies_preserve_winners_and_payments():
    reports = {
        strategy: run_scenario(scenario_config(strategy=strategy))
        for strategy in ("identity", "single:click", "proportional")
    }
    winners = {s: r["winners"] for s, r in reports.items()}
    assert winners["identity"] == winners["single:click"] == winners["proportional"]
    payments = [
        r["ads"][0]["expected_payment"] for r in reports.values()
    ]
    assert close12(payments[0], payments[1]) and close12(payments[1], payments[2])
    rankings = [[ad for ad, _ in r["ranking"]] for r in reports.values()]
    assert rankings[0] == rankings[1] == rankings[2]


def test_validate_scenario_itemizes_issues():
    bad_offer = ux.Offer(
        "x", ux.PriceType.CPC, two_events(1.3), {"view": 0.0, "click": -1.0}
    )
    config = ScenarioConfig(
        offers=(bad_offer, cpc_offer("x", 1.0, 0.1)),
        charges=ux.ChargeSchedule({"ghost": 0.1, "view": -0.5}),
        pricing_rule="third",
        strategy="nonsense",
        trials=0,
        seed=-1,
    )
    issues = validate_scenario(config)
    text = "\n".join(issues)
    assert "unknown pricing rule" in text
    assert "trials must be >= 1" in text
    assert "seed must be >= 0" in text
    assert "unknown strategy" in text
    assert "duplicate ad_id 'x'" in text
    assert "probability out of range" in text
    assert "negative bid" in text
    assert "negative charge on 'view'" in text
    assert "declared by no offer" in text


def test_prepare_rejects_a_ctr_row_for_an_undeclared_ad():
    config = scenario_config(slots=ux.SlotModel(1, {"ghost": (0.5,)}))
    with pytest.raises(ScenarioError) as excinfo:
        sim.prepare(config)
    assert excinfo.value.issues == ("slots: ctr row keyed to ad 'ghost' declared by no offer",)


def test_run_auction_rejects_an_unknown_pricing_rule():
    offer = ux.AdjustedOffer("x", EVENTS, {"view": 0.0, "click": 1.0}, 0.1)
    with pytest.raises(ScenarioError) as excinfo:
        run_auction([offer], "third", None, 0.0)
    assert excinfo.value.issues == ("unknown pricing rule 'third'",)
    assert excinfo.value.issues[0] in validate_scenario(scenario_config(pricing_rule="third"))


def test_run_scenario_raises_scenario_error_with_issues():
    config = scenario_config(trials=0)
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(config)
    assert any("trials" in issue for issue in excinfo.value.issues)


def test_validate_scenario_checks_single_target_per_ad():
    config = scenario_config(strategy="single:conv")
    issues = validate_scenario(config)
    assert any("target event 'conv' not declared" in issue for issue in issues)


def test_validate_scenario_checks_funnel_compatibility():
    events = (
        ux.EventSpec("view", ux.EventKind.VIEW, 1.0),
        ux.EventSpec("click", ux.EventKind.CLICK, 0.1),
        ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.9),
    )
    offer = ux.Offer("x", ux.PriceType.HYBRID, events, {"view": 0.1, "click": 0.0, "conv": 0.0})
    config = ScenarioConfig(
        offers=(offer,),
        charges=ux.ChargeSchedule({}),
        model=OutcomeModel.FUNNEL,
    )
    issues = validate_scenario(config)
    assert any("nonincreasing" in issue for issue in issues)
