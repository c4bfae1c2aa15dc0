"""WaitEvaluator: MakeIdle's one-pass t_wait search against its reference loop.

The numpy pass must take the same decisions as the candidate-by-candidate
loop that runs without numpy — not close ones: the same ``(wait, gain)``
bit for bit, as Python floats, because the golden suites pin MakeIdle's
choices and every record downstream of them.  The same holds for the
sequence pass the vector kernel replays (``MakeIdlePolicy.dormancy_waits``):
a whole device's decisions at once must equal the policy driven packet
by packet.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MakeIdlePolicy
from repro.energy import model as model_module
from repro.energy.model import TailEnergyModel, WaitEvaluator
from repro.rrc import CARRIER_PROFILES
from repro.traces import Direction, Packet, PacketTrace

pytest.importorskip("numpy")

CARRIERS = sorted(CARRIER_PROFILES)
EVALUATORS = {
    key: WaitEvaluator(TailEnergyModel(CARRIER_PROFILES[key]), 24)
    for key in CARRIERS
}


def _boundary_gaps(key: str) -> tuple[float, ...]:
    """Gaps exactly on every branch point of the cost matrix."""
    profile = CARRIER_PROFILES[key]
    return (
        0.0,
        -0.0,  # a window accepts it (-0.0 < 0 is false)
        profile.t1,
        profile.t1 + profile.t2,
        TailEnergyModel(profile).t_threshold,
        *EVALUATORS[key].candidates,
    )


@st.composite
def windows(draw):
    key = draw(st.sampled_from(CARRIERS))
    gap = st.one_of(
        st.sampled_from(_boundary_gaps(key)),
        st.floats(min_value=0.0, max_value=120.0),
    )
    gaps = draw(st.lists(gap, min_size=2, max_size=200))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(
            st.floats(min_value=1e-6, max_value=10.0),
            min_size=len(gaps), max_size=len(gaps),
        ))
    return key, gaps, weights


@contextlib.contextmanager
def _fresh_evaluators():
    """Drop the shared evaluators on entry and on exit.

    Enter it after hiding numpy and leave it before numpy returns: the
    evaluators built in between have no numpy columns, and none of them
    serves a caller that sees numpy.
    """
    model_module.wait_evaluator.cache_clear()
    try:
        yield
    finally:
        model_module.wait_evaluator.cache_clear()


def _hexes(pair):
    assert [type(v) for v in pair] == [float, float]
    return [v.hex() for v in pair]


@settings(max_examples=300, deadline=None)
@given(windows())
def test_one_pass_matches_the_reference_loop_bit_for_bit(window):
    key, gaps, weights = window
    evaluator = EVALUATORS[key]
    assert _hexes(evaluator.best_wait(gaps, weights)) == _hexes(
        evaluator.best_wait_loop(gaps, weights)
    )


@pytest.mark.parametrize("numpy_path", [True, False], ids=["numpy", "loop"])
class TestTiesAndEmptyWindows:
    @pytest.fixture(autouse=True)
    def _path(self, numpy_path, monkeypatch):
        if not numpy_path:
            monkeypatch.setattr(model_module, "_np", None)
        with _fresh_evaluators():
            yield

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_window_ties_to_the_first_candidate(self, att_profile,
                                                         zero):
        policy = MakeIdlePolicy(window_size=20, min_samples=3)
        policy.prepare(PacketTrace([]), att_profile)
        for _ in range(20):
            policy.window.observe_gap(zero)
        # Every candidate costs 0.0, as does the status quo: all tie.
        assert _hexes(policy.best_wait()) == [(0.0).hex(), (0.0).hex()]
        assert policy.dormancy_wait(5.0) is None
        evaluator = WaitEvaluator(TailEnergyModel(att_profile), 24)
        weighted = evaluator.best_wait([zero] * 7, [0.5] * 7)
        assert _hexes(weighted) == [(0.0).hex(), (0.0).hex()]

    def test_empty_window_or_zero_weight_gains_nothing(self, att_profile):
        evaluator = WaitEvaluator(TailEnergyModel(att_profile), 24)
        assert evaluator.best_wait(()) == (0.0, 0.0)
        assert evaluator.best_wait((), ()) == (0.0, 0.0)
        assert evaluator.best_wait((30.0, 40.0), (0.0, 0.0)) == (0.0, 0.0)


def test_candidate_grid_spans_zero_to_t_threshold(any_profile):
    model = TailEnergyModel(any_profile)
    evaluator = WaitEvaluator(model, 24)
    assert len(evaluator.candidates) == 24
    assert evaluator.candidates[0] == 0.0
    assert evaluator.candidates[-1] == pytest.approx(model.t_threshold)
    with pytest.raises(ValueError):
        WaitEvaluator(model, 1)


@st.composite
def packet_times(draw):
    """0–300 packet times, many gaps on the cost matrix's branch points."""
    key = draw(st.sampled_from(CARRIERS))
    profile = CARRIER_PROFILES[key]
    gap = st.one_of(
        st.sampled_from((0.0, profile.t1, profile.t1 + profile.t2,
                         *EVALUATORS[key].candidates)),
        st.floats(min_value=0.0, max_value=120.0),
    )
    count = draw(st.integers(min_value=0, max_value=300))
    gaps = draw(st.lists(gap, min_size=max(0, count - 1),
                         max_size=max(0, count - 1)))
    now = draw(st.floats(min_value=0.0, max_value=50.0))
    times = [now] if count else []
    for step in gaps:
        now = now + step
        times.append(now)
    split = draw(st.integers(min_value=0, max_value=count))
    chunk = draw(st.sampled_from((1, 7, model_module._WINDOW_CHUNK)))
    return key, times, split, chunk


def _decisions(policy):
    decisions = []
    for decision in policy.wait_history:
        assert type(decision.time) is float
        assert type(decision.expected_gain) is float
        assert decision.wait is None or type(decision.wait) is float
        decisions.append((
            decision.time.hex(),
            None if decision.wait is None else decision.wait.hex(),
            decision.expected_gain.hex(),
        ))
    return decisions


def _window_state(policy, times):
    """The window's gaps, then its gaps after one more (later) packet."""
    state = [gap.hex() for gap in policy.window.samples]
    policy.window.observe((times[-1] if times else 0.0) + 1.0)
    return state, [gap.hex() for gap in policy.window.samples]


@pytest.mark.parametrize("numpy_path", [True, False], ids=["numpy", "loop"])
@pytest.mark.parametrize("min_samples", [2, 5])
@pytest.mark.parametrize("window_size", [2, 5, 100])
@settings(max_examples=25, deadline=None)
@given(drawn=packet_times())
def test_sequence_pass_matches_the_policy_packet_by_packet(
    drawn, window_size, min_samples, numpy_path
):
    """``dormancy_waits`` over a whole device equals observe_packet then
    dormancy_wait per packet: waits, ``float.hex`` gains, history and the
    window left behind.  ``window_size=2, min_samples=5`` never warms up.
    The pass also resumes from a window it left (two calls split at
    ``split``), scores its windows in chunks of any size, and without
    numpy scores each window with the loop."""
    key, times, split, chunk = drawn
    profile = CARRIER_PROFILES[key]
    with pytest.MonkeyPatch.context() as patch, _fresh_evaluators():
        patch.setattr(model_module, "_WINDOW_CHUNK", chunk)
        if not numpy_path:
            patch.setattr(model_module, "_np", None)
        reference = MakeIdlePolicy(window_size=window_size,
                                   min_samples=min_samples)
        reference.prepare(PacketTrace([]), profile)
        expected = []
        for time in times:
            reference.observe_packet(time, Packet(time, 100, Direction.UPLINK))
            expected.append(reference.dormancy_wait(time))
        policy = MakeIdlePolicy(window_size=window_size,
                                min_samples=min_samples)
        policy.prepare(PacketTrace([]), profile)
        waits = (policy.dormancy_waits(times[:split])
                 + policy.dormancy_waits(times[split:]))
    assert [None if w is None else w.hex() for w in waits] == [
        None if w is None else w.hex() for w in expected
    ]
    assert _decisions(policy) == _decisions(reference)
    if window_size < min_samples:
        assert all(w is None for w in waits)
    assert _window_state(policy, times) == _window_state(reference, times)


class TestSharedEvaluator:
    """One evaluator per (profile, candidate count), read-only."""

    def test_policies_on_equal_profiles_share_one_evaluator(self,
                                                            att_profile):
        from dataclasses import replace

        from repro.learning.predictors import (
            PredictiveMakeIdlePolicy,
            SlidingWindowPredictor,
        )

        equal = replace(att_profile)
        assert equal == att_profile and equal is not att_profile
        policies = [MakeIdlePolicy(), MakeIdlePolicy(window_size=30),
                    PredictiveMakeIdlePolicy(SlidingWindowPredictor(50))]
        for policy, profile in zip(policies, (att_profile, equal, equal)):
            policy.prepare(PacketTrace([]), profile)
        evaluators = {id(policy._evaluator) for policy in policies}
        assert len(evaluators) == 1
        assert policies[0]._evaluator is model_module.wait_evaluator(
            att_profile, 24)
        assert policies[0]._model is policies[0]._evaluator.model
        assert model_module.wait_evaluator(att_profile, 12) is not \
            policies[0]._evaluator

    def test_numpy_columns_are_read_only(self, att_profile):
        evaluator = model_module.wait_evaluator(att_profile, 24)
        for column in (evaluator._wait_column, evaluator._switch_column):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0, 0] = 1.0
