"""Expectation oracles, Monte Carlo behavior, and the scenario runner."""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uxcharge as ux
from uxcharge import sim
from uxcharge.cli import dumps_canonical
from uxcharge.sim import (
    _BLOCK,
    ENUMERATION_LIMIT,
    TRIALS_LIMIT,
    _funnel_chain,
    _substream_rng,
    OutcomeModel,
    ScenarioConfig,
    ScenarioError,
    enumerate_expected_payment,
    expected_payment,
    monte_carlo_payment,
    run_flag_issues,
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
    hexed,
    money,
    reference_validate,
    two_events,
)

exact = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)

EVENTS = two_events(0.1)


def test_expected_payment_examples():
    assert expected_payment(
        {"view": 0.1, "click": 0.9}, {"view": 0.05, "click": 0.1}, EVENTS
    ) == exact(0.25)
    assert expected_payment(
        {"view": 0.0, "click": 0.0}, {"view": 0.0, "click": 0.0}, EVENTS
    ) == 0.0
    assert expected_payment(
        {"view": 0.1, "click": 0.0}, {"view": 0.0, "click": 0.5}, EVENTS
    ) == exact(0.15)


def test_expected_payment_rejects_key_mismatch():
    with pytest.raises(ux.KeyMismatchError):
        expected_payment({"view": 0.1}, {"view": 0.0}, EVENTS)


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
    closed = expected_payment(prices, shifted, events)
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


def winners_config(n_winners: int, model: OutcomeModel, trials: int) -> ScenarioConfig:
    """``n_winners`` hybrid offers over one 6-event set, each winning one of
    ``n_winners`` slots, the last declared first."""
    events, _, _ = mixed_event_set(6)
    offers = tuple(
        ux.Offer(f"a{i}", ux.PriceType.HYBRID, events, {e.event_id: 0.5 + i / 8.0 for e in events})
        for i in range(n_winners)
    )
    return ScenarioConfig(
        offers=offers,
        charges=ux.ChargeSchedule({"view": 0.05}),
        pricing_rule="first",
        slots=ux.SlotModel(n_winners),
        model=model,
        trials=trials,
        seed=11,
    )


def assert_winners_match_the_folds(report: dict, config: ScenarioConfig) -> None:
    """Every winner's Monte Carlo bits equal the pure-Python fold of its own substream."""
    rows = {offer.ad_id: row for row, offer in enumerate(config.offers)}
    assert [w["ad_id"] for w in report["winners"]] == [o.ad_id for o in reversed(config.offers)]
    for winner in report["winners"]:
        row = rows[winner["ad_id"]]
        record, events = report["ads"][row], config.offers[row].events
        reference = fold_monte_carlo(
            record["prices"], record["shift_plan"], events, config.model,
            config.trials, config.seed, (row,),
        )
        assert (record["mc_mean"].hex(), record["mc_stderr"].hex()) == tuple(x.hex() for x in reference)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [OutcomeModel.INDEPENDENT, OutcomeModel.FUNNEL])
def test_monte_carlo_bits_do_not_depend_on_the_thread_count(model, workers, monkeypatch):
    # _WORKERS sets both the winner threads and each call's unit of rows.
    monkeypatch.setattr(sim, "_WORKERS", workers)
    unit = _BLOCK // workers
    prices = {"view": 0.1, "click": 0.9, "conv": 2.5}
    shifted = {"view": 0.05, "click": 0.1, "conv": 0.0}
    events = (*EVENTS, ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.03))
    for trials in (1, 3, unit - 1, unit, unit + 1, _BLOCK + 3, 10001):
        mean, stderr = monte_carlo_payment(
            prices, shifted, events, model, trials=trials, seed=11, substream=(2,)
        )
        reference = fold_monte_carlo(prices, shifted, events, model, trials, 11, (2,))
        assert (mean.hex(), stderr.hex()) == tuple(x.hex() for x in reference), trials
    config = winners_config(3, model, 5001)
    assert_winners_match_the_folds(run_scenario(config), config)


def test_more_threads_than_cores_switching_often_fill_every_trial(monkeypatch):
    # Winner tasks finish in any order; a result written to another winner's
    # record, or a trial left unfilled, would change that winner's bits.
    monkeypatch.setattr(sim, "_WORKERS", 8)
    config = winners_config(8, OutcomeModel.INDEPENDENT, 3000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_scenario(config)
    finally:
        sys.setswitchinterval(interval)
    assert_winners_match_the_folds(report, config)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_overflow_in_two_winners_lists_both_in_winner_order(workers, monkeypatch):
    monkeypatch.setattr(sim, "_WORKERS", workers)
    # a and b tie and rank by ad_id; the charge on their view makes each
    # winner's amount inf. d declares its own view, so it is not charged.
    events = (ux.EventSpec("view", ux.EventKind.VIEW, 1.0), ux.EventSpec("sure", ux.EventKind.CUSTOM, 1.0))
    huge = {"view": 1.5e308, "sure": 1.5e308}
    d = ux.Offer("d", ux.PriceType.CPM, (ux.EventSpec("view2", ux.EventKind.VIEW, 1.0),), {"view2": 0.1})
    config = ScenarioConfig(
        offers=(ux.Offer("b", ux.PriceType.HYBRID, events, huge), d, ux.Offer("a", ux.PriceType.HYBRID, events, huge)),
        charges=ux.ChargeSchedule({"view": 1.5e308}),
        pricing_rule="first",
        slots=ux.SlotModel(3),
        trials=1000,
    )
    assert [w.ad_id for w in ux.run_first_price(sim.prepare(config)[1], config.slots).winners] == [
        "a", "b", "d"
    ]
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(config)
    assert excinfo.value.issues == (
        "offer 'a': expected payment oracles overflow float range",
        "offer 'b': expected payment oracles overflow float range",
    )


def test_uniforms_are_the_top_53_bits_of_the_raw_philox_stream():
    # NEP 19 pins the raw stream only; this pins the float stream on every numpy.
    uniforms = _substream_rng(9, (1,)).random(1000)
    raw = _substream_rng(9, (1,)).bit_generator.random_raw(1000)
    assert uniforms.tolist() == ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


THRESHOLD_PROBABILITIES = [
    0.0, -0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, 1.5, math.inf, -0.5, math.nan
]


@pytest.mark.parametrize("q", THRESHOLD_PROBABILITIES)
def test_integer_thresholds_hit_exactly_where_the_uniform_is_below_the_probability(q):
    t = sim._threshold(q)
    assert 0 <= t <= 2**53
    tops = np.array([k for k in (t - 1, t, t + 1) if 0 <= k < 2**53], dtype=np.uint64)
    words = (tops << np.uint64(11)) | np.uint64(0x7FF)  # the low 11 bits are dropped
    uniforms = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    with np.errstate(invalid="ignore"):
        assert ((words >> np.uint64(11)) < np.uint64(t)).tolist() == (uniforms < q).tolist()


def test_monte_carlo_takes_any_float_probability_as_the_float_compare_would():
    events = (
        EVENTS[0],
        *(ux.EventSpec(f"c{i}", ux.EventKind.CUSTOM, q) for i, q in enumerate(THRESHOLD_PROBABILITIES)),
    )
    amounts = {e.event_id: 1.0 + i for i, e in enumerate(events)}
    zeros = dict.fromkeys(amounts, 0.0)
    mean, stderr = monte_carlo_payment(amounts, zeros, events, trials=1000, seed=2)
    reference = fold_monte_carlo(amounts, zeros, events, OutcomeModel.INDEPENDENT, 1000, 2, ())
    assert (mean.hex(), stderr.hex()) == tuple(x.hex() for x in reference)


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
def test_monte_carlo_memory_is_per_trial_plus_one_block(workers, monkeypatch):
    monkeypatch.setattr(sim, "_WORKERS", workers)  # units of _BLOCK // workers rows
    sixteen = monte_carlo_peak_mib(16, 200_000)
    assert sixteen < 5.0
    assert sixteen - monte_carlo_peak_mib(8, 200_000) < 1.0


def run_peak_mib(config: ScenarioConfig) -> float:
    run_scenario(config)  # first-call allocations are not the run's
    tracemalloc.start()
    try:
        run_scenario(config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [2, 4])
def test_running_units_hold_one_block_of_uniforms_between_them(workers, monkeypatch):
    # Concurrent winners split one block of units, so each thread beyond the
    # first adds at most one winner's trial totals and enumeration arrays.
    events = funnel_events(16)
    trials = 200_000
    offers = tuple(
        ux.Offer(f"a{i}", ux.PriceType.HYBRID, events, {e.event_id: 1.0 + i for e in events})
        for i in range(4)
    )
    config = ScenarioConfig(
        offers=offers,
        charges=ux.ChargeSchedule({"view": 0.05}),
        pricing_rule="first",
        slots=ux.SlotModel(4),
        model=OutcomeModel.FUNNEL,
        trials=trials,
    )
    amounts = {e.event_id: 0.5 for e in events}
    tracemalloc.start()
    try:
        enumerate_expected_payment(amounts, amounts, events, OutcomeModel.FUNNEL)
        enumeration = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sim, "_WORKERS", 1)
    serial = run_peak_mib(config)
    monkeypatch.setattr(sim, "_WORKERS", workers)
    pooled = run_peak_mib(config)
    assert pooled - serial <= (workers - 1) * (trials * 8 / 2**20 + enumeration)


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
    closed = expected_payment(prices, shifted, events)
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
def test_oracles_return_a_non_finite_payment_without_a_warning(events, amounts, workers, monkeypatch):
    monkeypatch.setattr(sim, "_WORKERS", workers)
    zeros = {eid: 0.0 for eid in amounts}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enumerated = enumerate_expected_payment(amounts, zeros, events)
        mean, stderr = monte_carlo_payment(amounts, zeros, events, trials=20000, seed=1)
    assert not any(map(math.isfinite, (enumerated, mean, stderr)))


@pytest.mark.parametrize(
    "prices, shifted, issues",
    [
        ({"view": "0.1", "click": 0.0}, {"view": 0.0, "click": 0.0}, ["price for 'view' must be a number, got '0.1'"]),
        (
            {"view": 0.1, "click": None},
            {"view": True, "click": [0.5]},
            [
                "shift amount for 'view' must be a number, got True",
                "price for 'click' must be a number, got None",
                "shift amount for 'click' must be a number, got [0.5]",
            ],
        ),
        (
            {"view": 10**400, "click": 0.0},
            {"view": 0.0, "click": -(10**400)},
            [
                f"price for 'view' is beyond float range: {'1' + '0' * 36}...",
                f"shift amount for 'click' is beyond float range: {'-1' + '0' * 35}...",
            ],
        ),
    ],
)
def test_the_oracles_word_an_amount_that_is_not_a_number(prices, shifted, issues):
    # a string price raised "can only concatenate str (not "float") to str";
    # settle_general raised a bare TypeError, and an int beyond float range an OverflowError
    def settle(prices, shifted, events):
        return ux.settle_general(prices, ux.ShiftPlan(shifted, "identity"), dict.fromkeys(prices, 1))

    for oracle in (expected_payment, enumerate_expected_payment, monte_carlo_payment, settle):
        with pytest.raises(ScenarioError) as excinfo:
            oracle(prices, shifted, EVENTS)
        assert list(excinfo.value.issues) == issues


def test_monte_carlo_rejects_nonpositive_trials():
    zeros = {"view": 0.0, "click": 0.0}
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo_payment(zeros, zeros, EVENTS, trials=0)


@pytest.mark.parametrize(
    "flags, issue",
    [
        ({"seed": 1.9}, "seed must be an integer, got 1.9"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"trials": "10"}, "trials must be an integer, got '10'"),
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"trials": TRIALS_LIMIT + 1}, f"trials must be <= {TRIALS_LIMIT}, got {TRIALS_LIMIT + 1}"),
        ({"model": "funnel"}, "model must be an OutcomeModel, got 'funnel'"),
        ({"model": None}, "model must be an OutcomeModel, got None"),
    ],
)
def test_monte_carlo_obeys_the_scenario_run_flag_rules(flags, issue):
    # seed 1.9 used to draw seed 1's trials; trials 2.5, True or '10' raised a
    # numpy TypeError and seed -1 a numpy ValueError; a model string ran the
    # independent model
    zeros = {"view": 0.0, "click": 0.0}
    run = {"model": OutcomeModel.INDEPENDENT, "trials": 10, "seed": 0, **flags}
    assert run_flag_issues(**run) == [issue]
    with pytest.raises(ScenarioError) as excinfo:
        monte_carlo_payment(zeros, zeros, EVENTS, **run)
    assert excinfo.value.issues == (issue,)
    assert validate_scenario(scenario_config(**run)) == [issue]


@pytest.mark.parametrize("model", ["funnel", "independent", None])
def test_the_outcome_model_must_be_an_outcome_model(model):
    zeros = {"view": 0.0, "click": 0.0}
    issue = (f"model must be an OutcomeModel, got {model!r}",)
    for call in (
        lambda: _funnel_chain(EVENTS, model),
        lambda: enumerate_expected_payment(zeros, zeros, EVENTS, model),
    ):
        with pytest.raises(ScenarioError) as excinfo:
            call()
        assert excinfo.value.issues == issue


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


def floats_of(doc):
    """Every float-like leaf of a report (bools and ints are not)."""
    if isinstance(doc, dict):
        return [x for value in doc.values() for x in floats_of(value)]
    if isinstance(doc, (list, tuple)):
        return [x for value in doc for x in floats_of(value)]
    return [doc] if isinstance(doc, float) else []


@pytest.mark.parametrize("pricing_rule", ["first", "second"])
def test_numpy_probabilities_give_a_report_of_plain_floats_with_the_same_bits(pricing_rule):
    # expected_payment and the ranking values used to be numpy.float64
    conv = ux.EventSpec("conv", ux.EventKind.CONVERSION, 0.03)
    hybrid = ux.Offer("z", ux.PriceType.HYBRID, (*two_events(0.2), conv), {"view": 0.05, "click": 0.4, "conv": 2.0})
    offers = (cpc_offer("x", 2.0, 0.1), cpm_offer("y", 0.15, 0.1), hybrid)
    numpy_offers = tuple(
        ux.Offer(o.ad_id, o.price_type, tuple(ux.EventSpec(e.event_id, e.kind, np.float64(e.probability)) for e in o.events), o.bids)
        for o in offers
    )
    config = scenario_config(offers=offers, strategy="proportional", pricing_rule=pricing_rule, slots=ux.SlotModel(2), trials=500)
    expected = run_scenario(config)
    report = run_scenario(dataclasses.replace(config, offers=numpy_offers))
    assert [type(x) for x in floats_of(report)] == [float] * len(floats_of(report))
    assert len(report["winners"]) == 2
    assert hexed(report) == hexed(expected)


@pytest.mark.parametrize("pricing_rule", ["first", "second"])
def test_a_numpy_reserve_gives_a_report_of_plain_floats_with_the_same_bits(pricing_rule):
    # the reserve, and under second pricing the slot-2 winner's price_factor,
    # prices and expected_payment, used to be numpy.float64
    config = scenario_config(slots=ux.SlotModel(2), reserve=0.01, pricing_rule=pricing_rule, trials=500)
    expected = run_scenario(config)
    report = run_scenario(dataclasses.replace(config, reserve=np.float64(0.01)))
    assert [type(x) for x in floats_of(report)] == [float] * len(floats_of(report))
    assert len(report["winners"]) == 2
    assert hexed(report) == hexed(expected)
    assert dumps_canonical(report) == dumps_canonical(expected)


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


def test_run_scenario_rejects_an_unknown_pricing_rule():
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(scenario_config(pricing_rule="third"))
    assert excinfo.value.issues == ("unknown pricing rule 'third'",)
    assert list(excinfo.value.issues) == validate_scenario(scenario_config(pricing_rule="third"))


def test_run_scenario_raises_scenario_error_with_issues():
    config = scenario_config(trials=0)
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(config)
    assert any("trials" in issue for issue in excinfo.value.issues)


@pytest.mark.parametrize(
    "field, value, issue",
    [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", 1.9, "seed must be an integer, got 1.9"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", None, "seed must be an integer, got None"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("trials", True, "trials must be an integer, got True"),
        ("trials", "100", "trials must be an integer, got '100'"),
        ("model", "funnel", "model must be an OutcomeModel, got 'funnel'"),
        ("model", None, "model must be an OutcomeModel, got None"),
    ],
)
def test_a_mistyped_run_flag_is_one_issue(field, value, issue):
    # seed 1.5 used to draw seed 1's trials and report "seed": 1.5; trials 2.5
    # raised a numpy TypeError, and model "funnel" an AttributeError at report time
    config = scenario_config(**{field: value})
    assert validate_scenario(config) == [issue]
    assert reference_validate(config) == [issue]
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(config)
    assert excinfo.value.issues == (issue,)


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
