"""Tests for the MakeActive policies (fixed delay bound and learning)."""

from __future__ import annotations

import pytest

from repro.core import (
    CombinedPolicy,
    FixedDelayMakeActive,
    LearningMakeActive,
    MakeIdlePolicy,
    StatusQuoPolicy,
    compute_fixed_delay_bound,
)
from repro.core.makeactive import MAX_DELAY_BOUND
from repro.sim import TraceSimulator
from repro.traces import Packet, PacketTrace, generate_mixed_trace


class TestFixedDelayBound:
    def test_explicit_bound(self):
        policy = FixedDelayMakeActive(delay_bound=3.0)
        assert policy.activation_delay(0.0) == pytest.approx(3.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            FixedDelayMakeActive(delay_bound=-1.0)

    def test_nan_bound_rejected(self):
        # NaN passes "< 0" and would silently switch MakeActive off.
        with pytest.raises(ValueError, match="delay_bound must be non-negative"):
            FixedDelayMakeActive(delay_bound=float("nan"))

    def test_bound_computed_from_trace(self, att_profile, email_trace):
        policy = FixedDelayMakeActive()
        policy.prepare(email_trace, att_profile)
        assert 0.5 <= policy.delay_bound <= MAX_DELAY_BOUND

    def test_compute_fixed_delay_bound_formula(self, att_profile):
        # A trace with exactly one burst per active period gives k = 1, so
        # the bound is t1 + t2 (clamped to the maximum).
        trace = PacketTrace(
            [Packet(0.0, 100), Packet(300.0, 100), Packet(600.0, 100)]
        )
        bound = compute_fixed_delay_bound(trace, att_profile)
        assert bound == pytest.approx(
            min(att_profile.total_inactivity_timeout, MAX_DELAY_BOUND)
        )

    def test_short_trace_fallback(self, att_profile):
        bound = compute_fixed_delay_bound(PacketTrace([Packet(0.0, 1)]), att_profile)
        assert 0.0 < bound <= MAX_DELAY_BOUND

    def test_bound_never_exceeds_cap(self, tmobile_profile, im_trace):
        # T-Mobile's t1 + t2 is 19.5 s; the bound must still respect the cap.
        assert compute_fixed_delay_bound(im_trace, tmobile_profile) <= MAX_DELAY_BOUND


class TestLearningMakeActive:
    def test_expert_grid_matches_appendix(self):
        policy = LearningMakeActive(max_delay=10.0)
        assert policy.learner.expert_values == tuple(float(i) for i in range(1, 11))

    def test_max_delay_validation(self):
        with pytest.raises(ValueError):
            LearningMakeActive(max_delay=0.5)

    @pytest.mark.parametrize("max_delay", (float("nan"), float("inf"),
                                           float("-inf")))
    def test_non_finite_max_delay_rejected(self, max_delay):
        # Refused by the class itself, not by math.ceil's ValueError or
        # OverflowError.
        with pytest.raises(ValueError, match="max_delay must be finite"):
            LearningMakeActive(max_delay=max_delay)

    def test_initial_delay_is_mid_grid(self):
        policy = LearningMakeActive(max_delay=12.0)
        assert 1.0 <= policy.activation_delay(0.0) <= 12.0

    def test_on_release_updates_learner_and_history(self):
        policy = LearningMakeActive()
        policy.activation_delay(0.0)
        policy.on_release(5.0, [0.0, 2.0, 4.0])
        assert policy.learner.iterations == 1
        assert len(policy.history) == 1
        record = policy.history[0]
        assert record.buffered_sessions == 3
        assert record.mean_session_delay == pytest.approx((5.0 + 3.0 + 1.0) / 3)

    def test_on_release_without_sessions_is_noop(self):
        policy = LearningMakeActive()
        policy.on_release(5.0, [])
        assert policy.learner.iterations == 0
        assert policy.history == ()

    def test_reset(self):
        policy = LearningMakeActive()
        policy.activation_delay(0.0)
        policy.on_release(3.0, [0.0])
        policy.reset()
        assert policy.history == ()
        assert policy.learner.iterations == 0

    def test_single_sessions_drive_delay_down(self):
        # When batching never succeeds (every release holds one session),
        # the loss is minimised by the smallest expert, so the learned delay
        # must shrink (Figure 16's mechanism in reverse).
        policy = LearningMakeActive()
        initial = policy.current_delay
        for i in range(40):
            delay = policy.activation_delay(float(i * 30))
            policy.on_release(i * 30 + delay, [float(i * 30)])
        assert policy.current_delay < initial

    def test_successful_batching_sustains_larger_delay(self):
        # When waiting longer reliably batches several sessions, the learner
        # should settle near the smallest delay that still captures them all
        # (about 3 s here), whereas with no batching it keeps shrinking
        # toward the smallest expert.
        batching = LearningMakeActive()
        for i in range(300):
            start = i * 60.0
            delay = batching.activation_delay(start)
            batching.on_release(start + delay, [start, start + 1.5, start + 3.0])
        lonely = LearningMakeActive()
        for i in range(300):
            start = i * 60.0
            delay = lonely.activation_delay(start)
            lonely.on_release(start + delay, [start])
        assert batching.current_delay > lonely.current_delay
        assert batching.current_delay >= 2.5


class TestMakeActiveInSimulation:
    def test_fixed_bound_delays_idle_sessions(self, att_profile, email_trace):
        simulator = TraceSimulator(att_profile)
        policy = CombinedPolicy(MakeIdlePolicy(window_size=50),
                                FixedDelayMakeActive(delay_bound=5.0))
        result = simulator.run(email_trace, policy)
        delayed = [d for d in result.delays if d > 0.01]
        assert delayed
        assert max(delayed) <= 5.0 + 1e-6
        assert max(delayed) == pytest.approx(5.0, abs=0.2)

    def test_learning_reduces_mean_delay_vs_fixed(self, att_profile):
        # Paper Figure 15: the learning algorithm roughly halves the average
        # delay compared with the fixed bound at comparable signalling.
        trace = generate_mixed_trace(["im", "email", "news"], duration=2400.0, seed=4)
        simulator = TraceSimulator(att_profile)
        fixed = simulator.run(
            trace,
            CombinedPolicy(MakeIdlePolicy(window_size=50),
                           FixedDelayMakeActive()),
        )
        learning = simulator.run(
            trace,
            CombinedPolicy(MakeIdlePolicy(window_size=50), LearningMakeActive()),
        )
        fixed_delays = [d for d in fixed.delays if d > 0.01]
        learning_delays = [d for d in learning.delays if d > 0.01]
        assert fixed_delays and learning_delays
        assert (sum(learning_delays) / len(learning_delays)) < (
            sum(fixed_delays) / len(fixed_delays)
        )

    def test_batching_reduces_promotions(self, att_profile):
        # Two applications whose sessions start within a few seconds of each
        # other: batching them must cut the number of promotions.
        packets = []
        for burst in range(20):
            base = burst * 120.0
            packets.append(Packet(base, 300, flow_id=1))
            packets.append(Packet(base + 0.2, 900, flow_id=1))
            packets.append(Packet(base + 3.0, 300, flow_id=2))
            packets.append(Packet(base + 3.2, 900, flow_id=2))
        trace = PacketTrace(packets, name="pairs")
        simulator = TraceSimulator(att_profile)
        no_batching = simulator.run(trace, MakeIdlePolicy(window_size=30))
        batching = simulator.run(
            trace,
            CombinedPolicy(MakeIdlePolicy(window_size=30),
                           FixedDelayMakeActive(delay_bound=5.0)),
        )
        assert batching.promotion_count < no_batching.promotion_count

    def test_delays_never_exceed_bound(self, att_profile, email_trace):
        simulator = TraceSimulator(att_profile)
        result = simulator.run(
            email_trace,
            CombinedPolicy(MakeIdlePolicy(window_size=50), LearningMakeActive()),
        )
        assert all(d <= MAX_DELAY_BOUND + 1e-6 for d in result.delays)

    def test_status_quo_records_no_positive_delays(self, att_profile, email_trace):
        simulator = TraceSimulator(att_profile)
        result = simulator.run(email_trace, StatusQuoPolicy())
        assert all(d == 0.0 for d in result.delays)
