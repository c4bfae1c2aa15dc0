"""Tests for signalling-overhead accounting."""

import pytest

from repro.core import MakeIdlePolicy, StatusQuoPolicy
from repro.rrc import (
    LTE_SIGNALING_COSTS,
    UMTS_SIGNALING_COSTS,
    RadioState,
    SignalingCosts,
    SwitchEvent,
    SwitchKind,
    Technology,
    count_messages,
    signaling_costs_for,
    signaling_load,
)
from repro.sim import TraceSimulator


def _switch(kind, time=0.0):
    from_state = RadioState.IDLE if kind is SwitchKind.PROMOTION else RadioState.ACTIVE
    to_state = RadioState.ACTIVE if kind is SwitchKind.PROMOTION else RadioState.IDLE
    return SwitchEvent(
        time=time, kind=kind, from_state=from_state, to_state=to_state,
        energy_j=0.1, delay_s=0.5,
    )


class TestSignalingCosts:
    def test_messages_for_each_kind(self):
        costs = SignalingCosts(10, 4, 6)
        assert costs.messages_for(SwitchKind.PROMOTION) == 10
        assert costs.messages_for(SwitchKind.TIMER_DEMOTION) == 4
        assert costs.messages_for(SwitchKind.FAST_DORMANCY) == 6

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            SignalingCosts(-1, 4, 6)

    def test_defaults_per_technology(self):
        assert signaling_costs_for(Technology.LTE) is LTE_SIGNALING_COSTS
        assert signaling_costs_for(Technology.UMTS_3G) is UMTS_SIGNALING_COSTS

    def test_umts_promotion_heavier_than_lte(self):
        assert (
            UMTS_SIGNALING_COSTS.promotion_messages
            > LTE_SIGNALING_COSTS.promotion_messages
        )


class TestCountMessages:
    def test_counts_sum_per_kind(self):
        events = [
            _switch(SwitchKind.PROMOTION, 0.0),
            _switch(SwitchKind.FAST_DORMANCY, 5.0),
            _switch(SwitchKind.PROMOTION, 10.0),
        ]
        costs = SignalingCosts(10, 4, 6)
        assert count_messages(events, costs) == 10 + 6 + 10

    def test_empty_sequence_is_zero(self):
        assert count_messages([], UMTS_SIGNALING_COSTS) == 0


class TestSignalingLoad:
    def test_load_breakdown_and_rates(self):
        events = [
            _switch(SwitchKind.PROMOTION, 0.0),
            _switch(SwitchKind.TIMER_DEMOTION, 20.0),
            _switch(SwitchKind.PROMOTION, 40.0),
            _switch(SwitchKind.FAST_DORMANCY, 50.0),
        ]
        load = signaling_load(events, duration_s=3600.0, costs=SignalingCosts(10, 4, 6))
        assert load.promotions == 2
        assert load.timer_demotions == 1
        assert load.fast_dormancy_demotions == 1
        assert load.switches == 4
        assert load.messages == 10 + 4 + 10 + 6
        assert load.messages_per_hour == pytest.approx(load.messages)
        assert load.switches_per_hour == pytest.approx(4.0)

    def test_zero_duration_rates(self):
        load = signaling_load([], duration_s=0.0)
        assert load.messages_per_hour == 0.0
        assert load.switches_per_hour == 0.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            signaling_load([], duration_s=-1.0)

    def test_normalized_switches(self):
        baseline = signaling_load(
            [_switch(SwitchKind.PROMOTION), _switch(SwitchKind.TIMER_DEMOTION)],
            duration_s=100.0,
        )
        scheme = signaling_load(
            [
                _switch(SwitchKind.PROMOTION),
                _switch(SwitchKind.FAST_DORMANCY),
                _switch(SwitchKind.PROMOTION),
                _switch(SwitchKind.FAST_DORMANCY),
            ],
            duration_s=100.0,
        )
        assert scheme.normalized_switches(baseline) == pytest.approx(2.0)

    def test_normalized_against_zero_baseline(self):
        baseline = signaling_load([], duration_s=10.0)
        empty = signaling_load([], duration_s=10.0)
        some = signaling_load([_switch(SwitchKind.PROMOTION)], duration_s=10.0)
        assert empty.normalized_switches(baseline) == 1.0
        assert some.normalized_switches(baseline) == 1.0


class TestIntegrationWithSimulator:
    def test_makeidle_adds_fast_dormancy_messages(self, att_profile, im_trace):
        simulator = TraceSimulator(att_profile)
        baseline = simulator.run(im_trace, StatusQuoPolicy())
        makeidle = simulator.run(im_trace, MakeIdlePolicy())
        baseline_load = signaling_load(
            baseline.switches, im_trace.duration, technology=att_profile.technology
        )
        makeidle_load = signaling_load(
            makeidle.switches, im_trace.duration, technology=att_profile.technology
        )
        assert baseline_load.fast_dormancy_demotions == 0
        assert makeidle_load.fast_dormancy_demotions > 0
