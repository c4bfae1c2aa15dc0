"""Tests for the synthetic per-user trace data sets."""

from __future__ import annotations

import pytest

from repro.traces import (
    USER_POPULATIONS,
    user_ids,
    user_profile,
    user_trace,
)


class TestRosters:
    def test_populations_match_paper_counts(self):
        # Figures 10-12 plot six Verizon 3G users and three Verizon LTE users;
        # Section 6.1 describes six T-Mobile users.
        assert len(USER_POPULATIONS["verizon_3g"]) == 6
        assert len(USER_POPULATIONS["verizon_lte"]) == 3
        assert len(USER_POPULATIONS["tmobile_3g"]) == 6

    def test_user_ids(self):
        assert user_ids("verizon_3g") == (1, 2, 3, 4, 5, 6)
        assert user_ids("verizon_lte") == (1, 2, 3)

    def test_total_device_days_close_to_paper(self):
        # The paper collected 28 device-days across nine users on T-Mobile
        # and Verizon; the synthetic rosters should be of the same order.
        days = sum(
            profile.days
            for population in ("verizon_3g", "verizon_lte")
            for profile in USER_POPULATIONS[population]
        )
        assert 20 <= days <= 36

    def test_unknown_population(self):
        with pytest.raises(KeyError):
            user_ids("sprint_5g")

    def test_unknown_user(self):
        with pytest.raises(KeyError):
            user_profile("verizon_3g", 99)

    def test_profile_labels(self):
        assert user_profile("verizon_lte", 2).label == "verizon_lte/user2"

    def test_every_app_reference_is_valid(self):
        from repro.traces import APPLICATION_PROFILES

        for population in USER_POPULATIONS.values():
            for profile in population:
                for app in profile.apps:
                    assert app in APPLICATION_PROFILES


class TestUserTraces:
    def test_trace_determinism(self):
        a = user_trace("verizon_3g", 1, hours_per_day=0.5, seed=0)
        b = user_trace("verizon_3g", 1, hours_per_day=0.5, seed=0)
        assert a == b

    def test_users_differ(self):
        a = user_trace("verizon_3g", 1, hours_per_day=0.5, seed=0)
        b = user_trace("verizon_3g", 2, hours_per_day=0.5, seed=0)
        assert a != b

    def test_trace_is_normalised_and_named(self):
        trace = user_trace("verizon_lte", 1, hours_per_day=0.5, seed=0)
        assert trace.start_time == pytest.approx(0.0)
        assert trace.name == "verizon_lte/user1"

    def test_duration_scales_with_days(self):
        profile = user_profile("verizon_3g", 3)
        trace = user_trace("verizon_3g", 3, hours_per_day=0.5, seed=0)
        assert trace.duration <= profile.days * 0.5 * 3600.0 + 1.0
        assert trace.duration > (profile.days - 1) * 0.5 * 3600.0

    def test_invalid_hours(self):
        with pytest.raises(ValueError):
            user_trace("verizon_3g", 1, hours_per_day=0.0)

    def test_heavier_user_sends_more_traffic(self):
        light = user_trace("verizon_3g", 6, hours_per_day=0.5, seed=0)  # factor 0.5
        heavy = user_trace("verizon_3g", 5, hours_per_day=0.5, seed=0)  # factor 1.6
        packets_per_day_light = len(light) / user_profile("verizon_3g", 6).days
        packets_per_day_heavy = len(heavy) / user_profile("verizon_3g", 5).days
        assert packets_per_day_heavy > packets_per_day_light


EVERY_USER = [
    (population, user)
    for population in sorted(USER_POPULATIONS)
    for user in user_ids(population)
]


@pytest.mark.parametrize(("population", "user_id"), EVERY_USER,
                         ids=lambda value: str(value))
def test_every_user_trace_carries_its_own_apps(population, user_id):
    profile = user_profile(population, user_id)
    trace = user_trace(population, user_id, hours_per_day=0.25, seed=1)
    assert len(trace) > 0
    assert trace.name == profile.label
    assert trace.start_time == 0.0
    assert trace.apps and set(trace.apps) <= set(profile.apps)
    assert trace.duration <= profile.days * 0.25 * 3600.0 + 1.0
