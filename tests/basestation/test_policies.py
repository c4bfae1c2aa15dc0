"""Tests for the network-controlled fast-dormancy policies."""

import pytest

from repro.basestation import (
    AcceptAllDormancy,
    LoadAwareDormancy,
    RateLimitedDormancy,
    RejectAllDormancy,
)
from repro.basestation.policies import CellLoadSnapshot


def _load(switches_last_minute=0, active=1, total=4, time=0.0):
    return CellLoadSnapshot(
        time=time,
        active_devices=active,
        total_devices=total,
        switches_last_minute=switches_last_minute,
    )


class TestCellLoadSnapshot:
    def test_active_fraction(self):
        assert _load(active=1, total=4).active_fraction == pytest.approx(0.25)
        assert _load(active=0, total=0).active_fraction == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _load(active=5, total=4)
        with pytest.raises(ValueError):
            _load(switches_last_minute=-1)


class TestAcceptAndReject:
    def test_accept_all(self):
        decision = AcceptAllDormancy().decide(1, 0.0, _load())
        assert decision.granted

    def test_reject_all(self):
        decision = RejectAllDormancy().decide(1, 0.0, _load())
        assert not decision.granted
        assert "disabled" in decision.reason


class TestRateLimitedDormancy:
    def test_first_request_granted_then_throttled(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()).granted
        assert not policy.decide(1, 5.0, _load()).granted
        assert policy.decide(1, 20.0, _load()).granted

    def test_devices_throttled_independently(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()).granted
        assert policy.decide(2, 1.0, _load()).granted

    def test_reset_clears_history(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()).granted
        policy.reset()
        assert policy.decide(1, 1.0, _load()).granted

    def test_denied_request_does_not_extend_throttle(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()).granted
        assert not policy.decide(1, 9.0, _load()).granted
        # The denial at t=9 must not push the next grant past t=10.
        assert policy.decide(1, 10.5, _load()).granted

    def test_invalid_interval(self):
        for interval in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                RateLimitedDormancy(min_interval_s=interval)

    def test_infinite_interval_grants_once_per_device(self):
        policy = RateLimitedDormancy(min_interval_s=float("inf"))
        assert policy.decide(1, 0.0, _load()).granted
        assert not policy.decide(1, 1e9, _load()).granted
        assert policy.decide(2, 1e9, _load()).granted


class TestLoadAwareDormancy:
    def test_grants_below_budget_denies_above(self):
        policy = LoadAwareDormancy(max_switches_per_minute=10)
        assert policy.decide(1, 0.0, _load(switches_last_minute=3)).granted
        assert not policy.decide(1, 0.0, _load(switches_last_minute=10)).granted
        assert not policy.decide(1, 0.0, _load(switches_last_minute=50)).granted

    def test_reason_mentions_budget(self):
        policy = LoadAwareDormancy(max_switches_per_minute=10)
        decision = policy.decide(1, 0.0, _load(switches_last_minute=99))
        assert "99" in decision.reason

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            LoadAwareDormancy(max_switches_per_minute=0)
