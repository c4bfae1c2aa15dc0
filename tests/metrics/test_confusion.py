"""Tests for the false-switch / missed-switch metrics (Figure 12)."""

from __future__ import annotations

import pytest

from repro.core import FixedTimerPolicy, MakeIdlePolicy, OraclePolicy
from repro.energy import TailEnergyModel
from repro.metrics import ConfusionCounts, confusion_for_result, confusion_from_decisions
from repro.sim import TraceSimulator
from repro.sim.results import GapDecision


def decision(gap, switched):
    return GapDecision(time=0.0, gap=gap, switched=switched)


class TestConfusionCounts:
    def test_rates(self):
        counts = ConfusionCounts(true_positive=6, true_negative=10,
                                 false_switch=2, missed_switch=4)
        assert counts.false_switch_rate == pytest.approx(2 / 12)
        assert counts.missed_switch_rate == pytest.approx(4 / 10)
        assert counts.false_switch_percent == pytest.approx(100 * 2 / 12)
        assert counts.total == 22

    def test_zero_denominators(self):
        counts = ConfusionCounts(0, 0, 0, 0)
        assert counts.false_switch_rate == 0.0
        assert counts.missed_switch_rate == 0.0


class TestConfusionFromDecisions:
    def test_perfect_agreement(self):
        threshold = 1.0
        decisions = [decision(0.5, False), decision(2.0, True), decision(3.0, True)]
        counts = confusion_from_decisions(decisions, threshold)
        assert counts.false_switch == 0
        assert counts.missed_switch == 0
        assert counts.true_positive == 2
        assert counts.true_negative == 1

    def test_false_switch_counted(self):
        counts = confusion_from_decisions([decision(0.5, True)], 1.0)
        assert counts.false_switch == 1

    def test_missed_switch_counted(self):
        counts = confusion_from_decisions([decision(5.0, False)], 1.0)
        assert counts.missed_switch == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            confusion_from_decisions([], -0.1)

    def test_empty_decisions(self):
        counts = confusion_from_decisions([], 1.0)
        assert counts.total == 0


class TestConfusionOnSimulations:
    def test_oracle_has_zero_error(self, att_profile, heartbeat_trace):
        threshold = TailEnergyModel(att_profile).t_threshold
        result = TraceSimulator(att_profile).run(heartbeat_trace, OraclePolicy())
        counts = confusion_for_result(result, threshold)
        assert counts.false_switch == 0
        assert counts.missed_switch == 0

    def test_makeidle_beats_fixed_timer_on_missed_switches(self, att_profile):
        # Gaps of ~3 s sit between t_threshold (≈1.2 s) and the 4.5-second
        # timer: the Oracle switches on every one of them, the fixed timer on
        # none (100 % missed switches), and MakeIdle learns to switch
        # (Figure 12's qualitative message).
        from ..tracegen import generate_periodic_trace

        trace = generate_periodic_trace(period=3.0, duration=900.0,
                                        burst_packets=2, seed=11)
        threshold = TailEnergyModel(att_profile).t_threshold
        simulator = TraceSimulator(att_profile)
        fixed = confusion_for_result(
            simulator.run(trace, FixedTimerPolicy(4.5)), threshold
        )
        makeidle = confusion_for_result(
            simulator.run(trace, MakeIdlePolicy(window_size=100)), threshold
        )
        assert fixed.missed_switch_rate > 0.9
        assert makeidle.missed_switch_rate < fixed.missed_switch_rate

    def test_rates_are_percent_compatible(self, att_profile, heartbeat_trace):
        threshold = TailEnergyModel(att_profile).t_threshold
        result = TraceSimulator(att_profile).run(heartbeat_trace, FixedTimerPolicy(4.5))
        counts = confusion_for_result(result, threshold)
        assert 0.0 <= counts.false_switch_percent <= 100.0
        assert 0.0 <= counts.missed_switch_percent <= 100.0
