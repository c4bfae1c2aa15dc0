"""Tests for the combined controller and the standard scheme set."""

from __future__ import annotations

import pytest

from repro.core import (
    SCHEME_ORDER,
    CombinedPolicy,
    FixedDelayMakeActive,
    MakeIdlePolicy,
    RadioPolicy,
    standard_policies,
)
from repro.core.controller import KNOWN_SCHEMES, build_scheme
from repro.traces import Packet


class RecordingPolicy(RadioPolicy):
    """Test double that records which hooks were invoked."""

    name = "recording"

    def __init__(self):
        self.calls: list[str] = []

    def prepare(self, trace, profile):
        self.calls.append("prepare")

    def reset(self):
        self.calls.append("reset")

    def observe_packet(self, time, packet):
        self.calls.append("observe")

    def dormancy_wait(self, now):
        self.calls.append("dormancy")
        return 1.0

    def activation_delay(self, now):
        self.calls.append("activation")
        return 2.0

    def on_release(self, release_time, arrival_times):
        self.calls.append("release")


class TestCombinedPolicy:
    def test_name_composition(self):
        combined = CombinedPolicy(MakeIdlePolicy(), FixedDelayMakeActive(3.0))
        assert combined.name == "makeidle+makeactive_fixed"

    def test_explicit_name(self):
        combined = CombinedPolicy(MakeIdlePolicy(), FixedDelayMakeActive(3.0),
                                  name="custom")
        assert combined.name == "custom"

    def test_demotion_comes_from_idle_policy(self):
        idle, active = RecordingPolicy(), RecordingPolicy()
        combined = CombinedPolicy(idle, active)
        assert combined.dormancy_wait(0.0) == 1.0
        assert "dormancy" in idle.calls
        assert "dormancy" not in active.calls

    def test_activation_comes_from_active_policy(self):
        idle, active = RecordingPolicy(), RecordingPolicy()
        combined = CombinedPolicy(idle, active)
        assert combined.activation_delay(0.0) == 2.0
        assert "activation" in active.calls
        assert "activation" not in idle.calls

    def test_observation_hooks_forwarded_to_both(self, att_profile, simple_trace):
        idle, active = RecordingPolicy(), RecordingPolicy()
        combined = CombinedPolicy(idle, active)
        combined.prepare(simple_trace, att_profile)
        combined.reset()
        combined.observe_packet(0.0, Packet(0.0, 10))
        combined.on_release(1.0, [0.5])
        for policy in (idle, active):
            for hook in ("prepare", "reset", "observe", "release"):
                assert hook in policy.calls

    def test_component_accessors(self):
        idle = MakeIdlePolicy()
        active = FixedDelayMakeActive(2.0)
        combined = CombinedPolicy(idle, active)
        assert combined.idle_policy is idle
        assert combined.active_policy is active


class TestStandardPolicies:
    def test_contains_all_paper_schemes(self):
        policies = standard_policies()
        assert set(policies) == set(SCHEME_ORDER)

    def test_scheme_order_matches_figures(self):
        assert SCHEME_ORDER == (
            "fixed_4.5s",
            "p95_iat",
            "makeidle",
            "oracle",
            "makeidle+makeactive_learn",
            "makeidle+makeactive_fixed",
        )

    def test_policy_names_match_keys(self):
        for key, policy in standard_policies().items():
            assert policy.name == key

    def test_window_size_propagates(self):
        policies = standard_policies(window_size=42)
        assert policies["makeidle"].window_size == 42
        assert policies["makeidle+makeactive_learn"].idle_policy.window_size == 42

    def test_each_call_returns_fresh_instances(self):
        first = standard_policies()
        second = standard_policies()
        assert first["makeidle"] is not second["makeidle"]


class TestBuildScheme:
    def test_known_schemes_pinned(self):
        assert KNOWN_SCHEMES == (
            "status_quo",
            "fixed_4.5s",
            "p95_iat",
            "makeidle",
            "oracle",
            "makeidle+makeactive_learn",
            "makeidle+makeactive_fixed",
            "makeidle_hist",
            "makeidle_rate",
        )
        assert set(standard_policies()) <= set(KNOWN_SCHEMES)

    def test_every_known_scheme_builds_a_fresh_named_policy(self):
        for scheme in KNOWN_SCHEMES:
            policy = build_scheme(scheme, window_size=42)
            assert policy.name == scheme
            assert build_scheme(scheme) is not policy
        assert build_scheme("makeidle", window_size=42).window_size == 42

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme 'magic'"):
            build_scheme("magic")
