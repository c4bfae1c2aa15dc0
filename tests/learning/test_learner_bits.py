"""Bit pins: the learners match the straightforward reference in ``float.hex``.

Each release's arithmetic is done once (shared ``e^{-L}`` factors, one
mixture fold per α-expert, a kept Eq. 3 prediction, one loss-row call),
and every result must be the bits the reference
(:mod:`tests.learning.reference_learners`) computes by refolding
everything.  The losses include the extremes the learners must survive:
``0.0``, ``1e3``, ``inf`` and all-``inf`` rows.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CombinedPolicy, LearningMakeActive, MakeIdlePolicy
from repro.learning import (
    FixedShareExperts,
    LearnAlpha,
    MakeActiveLoss,
    aggregate_delay,
)
from repro.rrc import get_profile
from repro.sim import TraceSimulator
from repro.traces import generate_mixed_trace

from .reference_learners import (
    ReferenceFixedShare,
    ReferenceLearnAlpha,
    ReferenceLearningMakeActive,
    reference_makeactive_loss,
)

losses = st.one_of(
    st.just(0.0),
    st.just(1e3),
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)
alphas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def loss_rounds(draw, n_experts):
    row = st.lists(losses, min_size=n_experts, max_size=n_experts)
    all_inf = st.just([math.inf] * n_experts)
    return draw(st.lists(st.one_of(row, all_inf), min_size=1, max_size=15))


@st.composite
def learner_cases(draw):
    n_experts = draw(st.sampled_from([1, 2, 3, 12]))
    values = draw(st.lists(st.floats(min_value=0.0, max_value=20.0),
                           min_size=n_experts, max_size=n_experts))
    return values, draw(loss_rounds(n_experts))


def _hex(values):
    return [float(v).hex() for v in values]


def _fixed_share_state(weights, cumulative_loss, iterations):
    return _hex(weights), float(cumulative_loss).hex(), iterations


class TestFixedShareBits:
    @given(case=learner_cases(), alpha=alphas)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case, alpha):
        values, rounds = case
        learner = FixedShareExperts(values, alpha=alpha)
        reference = ReferenceFixedShare(values, alpha)
        for row in rounds:
            assert learner.loss_of_mixture(row).hex() == (
                reference.loss_of_mixture(row).hex())
            assert learner.update(row).hex() == reference.update(row).hex()
            assert _fixed_share_state(
                learner.weights, learner.cumulative_loss, learner.iterations
            ) == _fixed_share_state(
                reference.weights, reference.cumulative_loss, reference.iterations
            )
            assert float(learner.predict()).hex() == float(reference.predict()).hex()


def _learn_alpha_state(learner: LearnAlpha):
    rows = [
        _fixed_share_state(row.weights, row.cumulative_loss, row.iterations)
        for row in learner._sub_learners
    ]
    return (_hex(learner.alpha_weights), learner.iterations, rows,
            float(learner.predict()).hex())


def _reference_state(reference: ReferenceLearnAlpha):
    rows = [
        _fixed_share_state(row.weights, row.cumulative_loss, row.iterations)
        for row in reference.sub_learners
    ]
    return (_hex(reference.alpha_weights), reference.iterations, rows,
            float(reference.predict()).hex())


class TestLearnAlphaBits:
    @given(case=learner_cases(),
           alpha_grid=st.lists(alphas, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case, alpha_grid):
        values, rounds = case
        learner = LearnAlpha(values, alphas=alpha_grid)
        reference = ReferenceLearnAlpha(values, alpha_grid)
        assert _learn_alpha_state(learner) == _reference_state(reference)
        for row in rounds:
            assert float(learner.update(row)).hex() == (
                float(reference.update(row)).hex())
            assert _learn_alpha_state(learner) == _reference_state(reference)

    @given(rounds=loss_rounds(12))
    @settings(max_examples=50, deadline=None)
    def test_default_grid_and_reset(self, rounds):
        values = [float(i) for i in range(1, 13)]
        learner = LearnAlpha(values)
        reference = ReferenceLearnAlpha(values, learner.alphas)
        for row in rounds:
            learner.update(row)
            reference.update(row)
        assert _learn_alpha_state(learner) == _reference_state(reference)
        learner.reset()
        fresh = ReferenceLearnAlpha(values, learner.alphas)
        assert _learn_alpha_state(learner) == _reference_state(fresh)


def _recorded_hooks(duration: float):
    """The hook calls one MakeActive learner receives in a scalar replay."""
    events = []

    class Recorder(LearningMakeActive):
        def activation_delay(self, now):
            events.append(("ask", now))
            return super().activation_delay(now)

        def on_release(self, release_time, arrival_times):
            events.append(("release", release_time, tuple(arrival_times)))
            super().on_release(release_time, arrival_times)

    trace = generate_mixed_trace(["im", "email", "news"], duration=duration, seed=4)
    TraceSimulator(get_profile("att_hspa")).run(
        trace, CombinedPolicy(MakeIdlePolicy(window_size=50), Recorder()))
    return events


@pytest.fixture(scope="module")
def recorded_hooks():
    events = _recorded_hooks(9000.0)
    assert sum(1 for event in events if event[0] == "release") >= 200
    return events


def _record_hex(record):
    return (record.iteration, record.time.hex(), float(record.delay_used).hex(),
            record.buffered_sessions, record.mean_session_delay.hex())


class TestLearningMakeActiveBits:
    # Every fifth proposal dropped exercises the releases the learner was
    # never asked about (they record the realised delay).
    @pytest.mark.parametrize("skip_every", [0, 5])
    def test_history_matches_reference(self, recorded_hooks, skip_every):
        policy = LearningMakeActive()
        learner = policy.learner
        reference = ReferenceLearningMakeActive(
            learner.expert_values, learner.alphas, MakeActiveLoss().gamma)
        asks = 0
        for event in recorded_hooks:
            if event[0] == "ask":
                asks += 1
                if skip_every and asks % skip_every == 0:
                    continue
                assert float(policy.activation_delay(event[1])).hex() == (
                    float(reference.activation_delay(event[1])).hex())
            else:
                policy.on_release(event[1], event[2])
                reference.on_release(event[1], event[2])
                assert float(policy.current_delay).hex() == (
                    float(reference.current_delay).hex())
        assert len(policy.history) >= 200
        assert [_record_hex(r) for r in policy.history] == (
            [_record_hex(r) for r in reference.history])


class TestMakeActiveLossRow:
    @given(
        offsets=st.lists(st.one_of(
            st.just(0.0), st.floats(min_value=-5.0, max_value=20.0)),
            max_size=10),
        bounds=st.lists(st.floats(min_value=0.0, max_value=15.0), max_size=13),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_matches_one_call_per_bound(self, offsets, bounds):
        loss = MakeActiveLoss()
        assert _hex(loss.row(bounds, offsets)) == _hex(
            reference_makeactive_loss(loss.gamma, bound, offsets) for bound in bounds)
        assert _hex(loss(bound, offsets) for bound in bounds) == (
            _hex(loss.row(bounds, offsets)))


def _snapshot(learner: LearnAlpha):
    return (learner.alpha_weights, learner.iterations, learner.predict(),
            [(row.weights, row.cumulative_loss, row.iterations)
             for row in learner._sub_learners])


class TestRefusedRows:
    """A refused loss row or bound leaves every piece of state as it was."""

    def _trained(self):
        learner = LearnAlpha([1, 2, 3], alphas=[0.01, 0.5])
        for step in range(6):
            learner.update([0.1 * step, 0.3, 0.2 + 0.05 * step])
        return learner

    @pytest.mark.parametrize("row", [
        [0.5, -0.1, 0.2],
        [0.5, math.nan, 0.2],
        [math.nan, 0.1, 0.2],
        [0.5, 0.1],
    ])
    def test_learn_alpha_unchanged(self, row):
        learner = self._trained()
        before = _snapshot(learner)
        with pytest.raises(ValueError):
            learner.update(row)
        assert _snapshot(learner) == before

    @pytest.mark.parametrize("row", [[0.5, -0.1, 0.2], [0.5, math.nan, 0.2]])
    def test_fixed_share_unchanged(self, row):
        learner = FixedShareExperts([1, 2, 3], alpha=0.2)
        learner.update([0.1, 0.3, 0.2])
        before = (learner.weights, learner.cumulative_loss, learner.iterations)
        with pytest.raises(ValueError, match="losses must be non-negative"):
            learner.update(row)
        with pytest.raises(ValueError, match="losses must be non-negative"):
            learner.loss_of_mixture(row)
        assert (learner.weights, learner.cumulative_loss, learner.iterations) == before

    def test_infinite_losses_stay_admissible(self):
        learner = self._trained()
        learner.update([math.inf, 0.1, math.inf])
        assert learner.iterations == 7
        assert math.isfinite(learner.predict())

    @pytest.mark.parametrize("offsets", [[0.0], [], [-2.0, 0.0]])
    def test_negative_bound_refused_by_every_entry(self, offsets):
        loss = MakeActiveLoss()
        message = "delay_bound must be non-negative"
        with pytest.raises(ValueError, match=message):
            loss(-1.0, offsets)
        with pytest.raises(ValueError, match=message):
            loss.row([2.0, -1.0], offsets)
        with pytest.raises(ValueError, match=message):
            aggregate_delay(-1.0, offsets)

    def test_refused_bound_leaves_policy_unchanged(self, monkeypatch):
        policy = LearningMakeActive()
        policy.on_release(3.0, [0.0, 1.5])
        policy.activation_delay(10.0)
        before = (_snapshot(policy.learner), policy.history, policy._pending_delay)
        # No expert of LearningMakeActive proposes a negative bound, so one
        # is slipped into its loss row: on_release must refuse the row
        # before the learner, the history or the pending proposal moves.
        row = MakeActiveLoss.row
        monkeypatch.setattr(MakeActiveLoss, "row", lambda self, bounds, offsets:
                            row(self, [*bounds, -1.0], offsets))
        with pytest.raises(ValueError, match="delay_bound must be non-negative"):
            policy.on_release(14.0, [10.0, 12.0])
        assert (_snapshot(policy.learner), policy.history,
                policy._pending_delay) == before
