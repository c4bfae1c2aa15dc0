"""Tests for the network-controlled fast-dormancy policies.

Every policy answers a bare ``bool`` from the cell's live ``CellLoad``.
"""

import pytest

from repro.api.cells import DormancySpec
from repro.basestation import (
    AcceptAllDormancy,
    LoadAwareDormancy,
    RateLimitedDormancy,
    RejectAllDormancy,
)
from repro.sim.engine import CellLoad


def _load(*switch_times):
    load = CellLoad()
    for time in switch_times:
        load.note_switch(time)
    return load


class TestAcceptAndReject:
    def test_accept_all(self):
        assert AcceptAllDormancy().decide(1, 0.0, _load()) is True

    def test_reject_all(self):
        assert RejectAllDormancy().decide(1, 0.0, _load()) is False


class TestRateLimitedDormancy:
    def test_first_request_granted_then_throttled(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()) is True
        assert policy.decide(1, 5.0, _load()) is False
        assert policy.decide(1, 20.0, _load()) is True

    def test_devices_throttled_independently(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()) is True
        assert policy.decide(2, 1.0, _load()) is True

    def test_reset_clears_history(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()) is True
        policy.reset()
        assert policy.decide(1, 1.0, _load()) is True

    def test_denied_request_does_not_extend_throttle(self):
        policy = RateLimitedDormancy(min_interval_s=10.0)
        assert policy.decide(1, 0.0, _load()) is True
        assert policy.decide(1, 9.0, _load()) is False
        # The denial at t=9 must not push the next grant past t=10.
        assert policy.decide(1, 10.5, _load()) is True

    def test_invalid_interval(self):
        for interval in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                RateLimitedDormancy(min_interval_s=interval)

    def test_infinite_interval_grants_once_per_device(self):
        policy = RateLimitedDormancy(min_interval_s=float("inf"))
        assert policy.decide(1, 0.0, _load()) is True
        assert policy.decide(1, 1e9, _load()) is False
        assert policy.decide(2, 1e9, _load()) is True


#: The two ways to make a rate-limited station from a spacing.
_RATE_LIMITED = {
    "policy": lambda interval: RateLimitedDormancy(min_interval_s=interval),
    "spec": lambda interval: DormancySpec("rate_limited", interval).build(),
}


class TestOneIntervalCheck:
    """The policy and the plan spec refuse the same spacings alike."""

    @pytest.mark.parametrize("make", list(_RATE_LIMITED.values()),
                             ids=list(_RATE_LIMITED))
    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_refused(self, make, interval):
        with pytest.raises(ValueError) as refused:
            make(interval)
        assert str(refused.value) == (
            f"rate_limited takes a positive min_interval_s, got {interval}"
        )

    @pytest.mark.parametrize("make", list(_RATE_LIMITED.values()),
                             ids=list(_RATE_LIMITED))
    def test_infinite_spacing_grants_once_per_device(self, make):
        policy = make(float("inf"))
        assert policy.min_interval_s == float("inf")
        assert [policy.decide(device, time, _load())
                for device, time in ((1, 0.0), (1, 1e9), (2, 1e9))] == [
            True, False, True]


class TestLoadAwareDormancy:
    def test_grants_below_budget_denies_above(self):
        policy = LoadAwareDormancy(max_switches_per_minute=3)
        assert policy.decide(1, 10.0, _load(1.0, 2.0)) is True
        assert policy.decide(1, 10.0, _load(1.0, 2.0, 3.0)) is False
        assert policy.decide(1, 10.0, _load(*range(10))) is False

    def test_window_is_half_open(self):
        # A switch exactly 60 s before the request has aged out.
        policy = LoadAwareDormancy(max_switches_per_minute=2)
        load = _load(0.0, 30.0)
        assert policy.decide(1, 59.9, load) is False
        assert policy.decide(1, 60.0, load) is True
        assert load.switches_within_window(60.0) == 1

    def test_reads_the_live_load(self):
        # The same CellLoad, asked again after more switches, answers
        # from what it holds now.
        policy = LoadAwareDormancy(max_switches_per_minute=2)
        load = _load(0.0)
        assert policy.decide(1, 1.0, load) is True
        load.note_switch(1.0)
        assert policy.decide(2, 1.0, load) is False

    def test_never_mutates_the_load(self):
        policy = LoadAwareDormancy(max_switches_per_minute=2)
        load = _load(0.0, 70.0)
        load.activate()
        policy.decide(1, 80.0, load)
        assert load.switch_times == [0.0, 70.0]
        assert (load.active_devices, load.peak_active_devices) == (1, 1)

    def test_invalid_budget(self):
        # NaN and inf used to construct and then grant every request.
        for budget in (0, -1, 2.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="load_aware"):
                LoadAwareDormancy(max_switches_per_minute=budget)

    def test_whole_float_budget(self):
        assert LoadAwareDormancy(30.0).max_switches_per_minute == 30
