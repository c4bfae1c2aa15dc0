"""Property-based tests for the extension modules (predictors, battery, DRX)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.battery import Battery, DevicePowerBudget, project_lifetime
from repro.learning.predictors import (
    DecayedHistogramPredictor,
    ExponentialRatePredictor,
    SlidingWindowPredictor,
)
from repro.rrc.drx import DrxConfig, effective_tail_power

# -- strategies ----------------------------------------------------------------------

gaps = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=80,
)


# -- predictors ------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(gaps)
def test_sliding_window_weights_match_retained_gaps(gap_values):
    predictor = SlidingWindowPredictor(window_size=16)
    for gap in gap_values:
        predictor.observe(gap)
    kept, weights = predictor.weighted_gaps()
    assert len(kept) == len(weights) == min(len(gap_values), 16)
    assert predictor.sample_count == len(gap_values)


@settings(max_examples=60, deadline=None)
@given(gaps)
def test_decayed_histogram_mass_is_finite_and_positive(gap_values):
    predictor = DecayedHistogramPredictor()
    for gap in gap_values:
        predictor.observe(gap)
    kept, weights = predictor.weighted_gaps()
    assert all(w > 0 for w in weights)
    assert all(g >= 0 for g in kept)
    # Total decayed mass can never exceed the number of observations.
    assert sum(weights) <= len(gap_values) + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=40))
def test_exponential_rate_mean_within_observed_range(gap_values):
    predictor = ExponentialRatePredictor()
    for gap in gap_values:
        predictor.observe(gap)
    assert min(gap_values) - 1e-9 <= predictor.mean_gap <= max(gap_values) + 1e-9


# -- battery ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=100.0, max_value=5000.0),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_lifetime_projection_monotone_in_savings(capacity, radio, platform, saving):
    battery = Battery(capacity_mah=capacity)
    budget = DevicePowerBudget(radio_power_w=radio, platform_power_w=platform)
    projection = project_lifetime(battery, budget, saving)
    assert projection.scheme_hours >= projection.baseline_hours - 1e-9
    more = project_lifetime(battery, budget, min(saving + 0.04, 0.99))
    assert more.scheme_hours >= projection.scheme_hours - 1e-9


# -- DRX ---------------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_effective_tail_power_bounded_by_sleep_and_awake(awake_power, tail, sleep_fraction):
    config = DrxConfig(sleep_power_fraction=sleep_fraction)
    average = effective_tail_power(config, awake_power, tail)
    assert awake_power * sleep_fraction - 1e-9 <= average <= awake_power + 1e-9
