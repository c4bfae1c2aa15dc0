"""Tests for the MakeIdle online prediction policy."""

from __future__ import annotations

import pytest

from repro.core import MakeIdlePolicy, OraclePolicy, StatusQuoPolicy
from repro.energy import TailEnergyModel
from repro.sim import TraceSimulator
from repro.traces import Packet, PacketTrace

from ..tracegen import generate_periodic_trace


class TestConstruction:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            MakeIdlePolicy(window_size=1)

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            MakeIdlePolicy(candidate_count=1)

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            MakeIdlePolicy(min_samples=1)

    def test_requires_prepare(self):
        policy = MakeIdlePolicy()
        with pytest.raises(RuntimeError):
            policy.dormancy_wait(0.0)
        with pytest.raises(RuntimeError):
            policy.best_wait()


class TestDecisionLogic:
    def prepared(self, profile, window_size=20):
        policy = MakeIdlePolicy(window_size=window_size, min_samples=3)
        policy.prepare(PacketTrace([]), profile)
        return policy

    def test_cold_start_behaves_like_status_quo(self, att_profile):
        policy = self.prepared(att_profile)
        assert policy.dormancy_wait(0.0) is None

    def test_long_gaps_trigger_immediate_switch(self, att_profile):
        # Window full of 60 s gaps: switching is clearly beneficial and the
        # optimal waiting time is (close to) zero.
        policy = self.prepared(att_profile)
        for gap in [60.0] * 10:
            policy.window.observe_gap(gap)
        wait = policy.dormancy_wait(600.0)
        assert wait is not None
        assert wait <= policy.t_threshold / 4

    def test_short_gaps_keep_radio_on(self, att_profile):
        policy = self.prepared(att_profile)
        for gap in [0.05] * 20:
            policy.window.observe_gap(gap)
        assert policy.dormancy_wait(10.0) is None

    def test_bimodal_gaps_choose_intermediate_wait(self, att_profile):
        # Mostly short intra-burst gaps with occasional long inter-burst gaps:
        # the best strategy waits long enough to let the short gaps pass.
        policy = self.prepared(att_profile, window_size=100)
        for _ in range(8):
            for gap in [0.2] * 9 + [90.0]:
                policy.window.observe_gap(gap)
        wait = policy.dormancy_wait(1000.0)
        assert wait is not None
        assert 0.2 < wait <= policy.t_threshold

    def test_expected_gain_consistency(self, att_profile):
        policy = self.prepared(att_profile)
        for gap in [30.0] * 10:
            policy.window.observe_gap(gap)
        best_wait, best_gain = policy.best_wait()
        assert best_gain == pytest.approx(policy.expected_gain(best_wait))
        # No other candidate should beat the reported optimum.
        assert policy.expected_gain(policy.t_threshold) <= best_gain + 1e-9

    def test_conditional_probability_interface(self, att_profile):
        policy = self.prepared(att_profile)
        for gap in [0.1] * 50 + [30.0] * 50:
            policy.window.observe_gap(gap)
        p_early = policy.conditional_no_packet_probability(0.0)
        p_late = policy.conditional_no_packet_probability(1.0)
        # The paper's observed property: P(t_wait) grows with t_wait.
        assert p_late >= p_early

    def test_history_records_every_decision(self, att_profile, heartbeat_trace):
        simulator = TraceSimulator(att_profile)
        policy = MakeIdlePolicy(window_size=30)
        simulator.run(heartbeat_trace, policy)
        assert len(policy.wait_history) == len(heartbeat_trace)

    def test_reset_clears_state(self, att_profile):
        policy = self.prepared(att_profile)
        policy.observe_packet(0.0, Packet(0.0, 10))
        policy.observe_packet(1.0, Packet(1.0, 10))
        policy.reset()
        assert policy.window.sample_count == 0
        assert policy.wait_history == ()


class TestEndToEndBehaviour:
    def test_beats_status_quo_on_heartbeat_traffic(self, att_profile, heartbeat_trace):
        simulator = TraceSimulator(att_profile)
        baseline = simulator.run(heartbeat_trace, StatusQuoPolicy())
        makeidle = simulator.run(heartbeat_trace, MakeIdlePolicy(window_size=50))
        assert makeidle.energy_saved_fraction(baseline) > 0.3

    def test_close_to_oracle_on_regular_traffic(self, att_profile):
        trace = generate_periodic_trace(period=20.0, duration=2400.0,
                                        burst_packets=3, seed=9)
        simulator = TraceSimulator(att_profile)
        baseline = simulator.run(trace, StatusQuoPolicy())
        oracle = simulator.run(trace, OraclePolicy())
        makeidle = simulator.run(trace, MakeIdlePolicy(window_size=50))
        oracle_saving = oracle.energy_saved_fraction(baseline)
        makeidle_saving = makeidle.energy_saved_fraction(baseline)
        assert makeidle_saving >= 0.8 * oracle_saving

    def test_does_not_hurt_dense_foreground_traffic(self, att_profile):
        # Every gap is tiny: MakeIdle must not switch inside the burst and
        # therefore must not consume more than a few percent extra energy.
        trace = PacketTrace([Packet(i * 0.1, 400) for i in range(400)])
        simulator = TraceSimulator(att_profile)
        baseline = simulator.run(trace, StatusQuoPolicy())
        makeidle = simulator.run(trace, MakeIdlePolicy(window_size=50))
        assert makeidle.total_energy_j <= baseline.total_energy_j * 1.05

    def test_larger_window_reduces_false_switches(self, att_profile, im_trace):
        from repro.metrics import confusion_for_result

        threshold = TailEnergyModel(att_profile).t_threshold
        simulator = TraceSimulator(att_profile)
        small = simulator.run(im_trace, MakeIdlePolicy(window_size=5))
        large = simulator.run(im_trace, MakeIdlePolicy(window_size=200))
        fp_small = confusion_for_result(small, threshold).false_switch_rate
        fp_large = confusion_for_result(large, threshold).false_switch_rate
        assert fp_large <= fp_small + 0.02
