"""Property-based tests (hypothesis) on workload traffic models.

The determinism contract for the whole scenario harness rests on the
traffic layer: arrival schedules must be pure functions of ``(model,
seed)``, time-ordered, and confined to the horizon, for every model and
any reasonable parameters — not just the ones the goldens happen to use.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.workloads import TRAFFIC_MODELS
from repro.workloads.traffic import (
    FlashCrowdTraffic,
    HeavyTailTraffic,
)

MODEL_NAMES = sorted(TRAFFIC_MODELS)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
horizons = st.floats(min_value=1.0, max_value=120.0,
                     allow_nan=False, allow_infinity=False)
rates = st.floats(min_value=0.5, max_value=50.0,
                  allow_nan=False, allow_infinity=False)


@given(name=st.sampled_from(MODEL_NAMES), seed=seeds,
       horizon_s=horizons, rate_rps=rates)
@settings(max_examples=60)
def test_arrivals_are_nonnegative_monotone_and_bounded(
        name, seed, horizon_s, rate_rps):
    arrivals = TRAFFIC_MODELS[name].factory().arrivals(
        seed, horizon_s, rate_rps
    )
    previous = 0.0
    for arrival in arrivals:
        assert 0.0 <= arrival.at < horizon_s
        assert arrival.at >= previous  # non-decreasing: a schedule, not a set
        assert arrival.size > 0
        previous = arrival.at


@given(name=st.sampled_from(MODEL_NAMES), seed=seeds, rate_rps=rates)
@settings(max_examples=40)
def test_arrivals_are_reproducible_from_model_and_seed(name, seed, rate_rps):
    first = TRAFFIC_MODELS[name].factory().arrivals(seed, 30.0, rate_rps)
    again = TRAFFIC_MODELS[name].factory().arrivals(seed, 30.0, rate_rps)
    assert first == again


@given(name=st.sampled_from(MODEL_NAMES), seed=seeds)
@settings(max_examples=30)
def test_different_seeds_give_different_schedules(name, seed):
    model = TRAFFIC_MODELS[name].factory()
    assert model.arrivals(seed, 30.0, 5.0) != \
        model.arrivals(seed + 1, 30.0, 5.0)


@given(seed=seeds, horizon_s=horizons)
@settings(max_examples=40)
def test_heavy_tail_sizes_stay_within_declared_bounds(seed, horizon_s):
    model = HeavyTailTraffic()
    for arrival in model.arrivals(seed, horizon_s, 10.0):
        assert model.min_size <= arrival.size <= model.max_size


# Per-example false-failure probability of the spike-share check below.
SPIKE_TAIL_BOUND = 1e-9


@given(seed=seeds, horizon_s=horizons)
@settings(max_examples=40)
# 4 arrivals in the spike against 11 outside (9.6 vs 6.4 expected): at a
# 1 s horizon Poisson noise alone beats a fixed inside/outside rate margin.
@example(seed=1372197, horizon_s=1.0)
def test_flash_crowd_spike_window_matches_spec(seed, horizon_s):
    """The spike window sits where the spec says, and the share of arrivals
    inside it matches the spike multiplier within a stated tail bound."""
    model = FlashCrowdTraffic()
    start, end = model.spike_window(horizon_s)
    assert abs(start - model.spike_start_frac * horizon_s) < 1e-9
    assert abs((end - start) - model.spike_duration_frac * horizon_s) < 1e-9
    assert end <= horizon_s

    arrivals = model.arrivals(seed, horizon_s, 8.0)
    total = len(arrivals)
    if total == 0:
        return
    inside = sum(1 for a in arrivals if start <= a.at < end)
    # Inside and outside counts are independent Poisson, so given the total
    # the inside count is Binomial(total, share) with share the spike's part
    # of the expected arrivals (0.6 for the default 6x over 20% of the
    # horizon). Hoeffding: P(|inside/total - share| >= t) <= 2 exp(-2 total
    # t^2) = SPIKE_TAIL_BOUND. The check is loose at short horizons, where
    # few arrivals say little, and tight at long ones: with 6x it rules out
    # a spike below 2x the base rate from about 150 arrivals on.
    spike = model.multiplier * model.spike_duration_frac
    share = spike / (spike + 1.0 - model.spike_duration_frac)
    t = math.sqrt(math.log(2.0 / SPIKE_TAIL_BOUND) / (2.0 * total))
    assert abs(inside / total - share) < t


def test_spec_reports_closed_loop_flag():
    specs = {name: TRAFFIC_MODELS[name].factory().spec()
             for name in MODEL_NAMES}
    assert specs["closed_loop"]["closed_loop"] is True
    assert all(not specs[name]["closed_loop"]
               for name in MODEL_NAMES if name != "closed_loop")
