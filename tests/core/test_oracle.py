"""Tests for the Oracle (offline-optimal) policy."""

from __future__ import annotations

import pytest

from repro.core import OraclePolicy, StatusQuoPolicy
from repro.energy import TailEnergyModel
from repro.sim import TraceSimulator
from repro.traces import Packet, PacketTrace


class TestOracleDecisions:
    def test_prepare_sets_threshold(self, att_profile, simple_trace):
        policy = OraclePolicy()
        policy.prepare(simple_trace, att_profile)
        assert policy.t_threshold == pytest.approx(
            TailEnergyModel(att_profile).t_threshold
        )

    def test_switches_before_long_gap(self, att_profile, simple_trace):
        policy = OraclePolicy()
        policy.prepare(simple_trace, att_profile)
        # After the packet at 0.2 the next packet is at 60.0 — switch now.
        assert policy.dormancy_wait(0.2) == 0.0

    def test_stays_on_within_burst(self, att_profile, simple_trace):
        policy = OraclePolicy()
        policy.prepare(simple_trace, att_profile)
        # After the packet at 0.0 the next packet is 0.1 s away — keep radio on.
        assert policy.dormancy_wait(0.0) is None

    def test_switches_after_last_packet(self, att_profile, simple_trace):
        policy = OraclePolicy()
        policy.prepare(simple_trace, att_profile)
        assert policy.dormancy_wait(60.1) == 0.0

    def test_decision_after_each_packet(self, att_profile, simple_trace):
        policy = OraclePolicy()
        policy.prepare(simple_trace, att_profile)
        decisions = [policy.dormancy_wait(t) == 0.0 for t in simple_trace.timestamps]
        assert decisions == [False, False, True, False, True]

    def test_switches_exactly_where_the_next_gap_exceeds_the_threshold(
        self, any_profile, poisson_trace
    ):
        # Poisson gaps straddle every carrier's threshold, so both answers
        # occur; the last packet always ends in a switch.
        policy = OraclePolicy()
        policy.prepare(poisson_trace, any_profile)
        times = poisson_trace.timestamps
        threshold = TailEnergyModel(any_profile).t_threshold
        expected = [b - a > threshold for a, b in zip(times, times[1:])] + [True]
        decisions = [policy.dormancy_wait(t) == 0.0 for t in times]
        assert decisions == expected
        assert True in expected[:-1] and False in expected

    def test_prepare_replaces_the_previous_trace(self, att_profile, simple_trace):
        policy = OraclePolicy()
        policy.prepare(simple_trace, att_profile)
        policy.prepare(PacketTrace([Packet(0.2, 100), Packet(0.3, 100)]), att_profile)
        # The 60 s gap of the first trace is forgotten: a packet follows 0.1 s on.
        assert policy.dormancy_wait(0.2) is None
        assert policy.dormancy_wait(0.3) == 0.0


class TestOracleOptimality:
    @pytest.mark.parametrize("carrier_fixture", ["att_profile", "lte_profile"])
    def test_oracle_beats_status_quo(self, request, carrier_fixture, heartbeat_trace):
        profile = request.getfixturevalue(carrier_fixture)
        simulator = TraceSimulator(profile)
        baseline = simulator.run(heartbeat_trace, StatusQuoPolicy())
        oracle = simulator.run(heartbeat_trace, OraclePolicy())
        assert oracle.total_energy_j < baseline.total_energy_j

    def test_oracle_never_switches_inside_dense_burst(self, att_profile):
        # A trace whose every gap is below the threshold: the oracle must
        # behave like the status quo (no fast-dormancy demotions).
        trace = PacketTrace([Packet(i * 0.2, 100) for i in range(50)])
        simulator = TraceSimulator(att_profile)
        result = simulator.run(trace, OraclePolicy())
        from repro.rrc import SwitchKind

        dormancy = [s for s in result.switches if s.kind is SwitchKind.FAST_DORMANCY]
        # Only the final switch (after the last packet) is allowed.
        assert len(dormancy) <= 1

    def test_oracle_is_upper_bound_among_no_delay_schemes(self, att_profile, im_trace):
        """The oracle saves at least as much as MakeIdle and the fixed baselines."""
        from repro.core import FixedTimerPolicy, MakeIdlePolicy

        simulator = TraceSimulator(att_profile)
        baseline = simulator.run(im_trace, StatusQuoPolicy())
        oracle = simulator.run(im_trace, OraclePolicy())
        for policy in (FixedTimerPolicy(4.5), MakeIdlePolicy(window_size=50)):
            other = simulator.run(im_trace, policy)
            assert oracle.total_energy_j <= other.total_energy_j * 1.02
        assert oracle.total_energy_j <= baseline.total_energy_j
