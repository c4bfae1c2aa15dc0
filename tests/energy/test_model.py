"""Tests for the tail-energy model E(t) and t_threshold (paper Section 4.1)."""

from __future__ import annotations

import pytest

from repro.energy import TailEnergyModel
from repro.rrc import get_profile


class TestTailEnergy:
    def test_zero_gap_costs_nothing(self, any_profile):
        assert TailEnergyModel(any_profile).tail_energy(0.0) == 0.0

    def test_negative_gap_rejected(self, att_profile):
        with pytest.raises(ValueError):
            TailEnergyModel(att_profile).tail_energy(-1.0)

    def test_linear_in_active_region(self, att_profile):
        model = TailEnergyModel(att_profile)
        t = att_profile.t1 / 2
        assert model.tail_energy(t) == pytest.approx(t * att_profile.power_active_w)

    def test_piecewise_in_high_idle_region(self, att_profile):
        model = TailEnergyModel(att_profile)
        t = att_profile.t1 + att_profile.t2 / 2
        expected = (
            att_profile.t1 * att_profile.power_active_w
            + (att_profile.t2 / 2) * att_profile.power_high_idle_w
        )
        assert model.tail_energy(t) == pytest.approx(expected)

    def test_long_gap_includes_switch_cost(self, att_profile):
        model = TailEnergyModel(att_profile)
        t = att_profile.total_inactivity_timeout + 10.0
        expected = model.full_tail_energy + att_profile.switch_energy_j
        assert model.tail_energy(t) == pytest.approx(expected)

    def test_monotone_non_decreasing(self, any_profile):
        model = TailEnergyModel(any_profile)
        previous = 0.0
        for i in range(200):
            t = i * 0.25
            value = model.tail_energy(t)
            assert value >= previous - 1e-12
            previous = value

    def test_wait_energy_never_includes_switch(self, any_profile):
        model = TailEnergyModel(any_profile)
        long_wait = any_profile.total_inactivity_timeout + 100.0
        assert model.wait_energy(long_wait) == pytest.approx(model.full_tail_energy)

    def test_wait_energy_negative_rejected(self, att_profile):
        with pytest.raises(ValueError):
            TailEnergyModel(att_profile).wait_energy(-0.1)


class TestThreshold:
    def test_att_anchor_matches_paper(self):
        # Section 4.1: on an HTC Vivid in AT&T's network, t_threshold ≈ 1.2 s.
        threshold = TailEnergyModel(get_profile("att_hspa")).t_threshold
        assert threshold == pytest.approx(1.2, abs=0.05)

    def test_lte_threshold_near_promotion_delay(self):
        # Verizon LTE promotions are fast and cheap, so the threshold is small.
        threshold = TailEnergyModel(get_profile("verizon_lte")).t_threshold
        assert threshold == pytest.approx(0.6, abs=0.1)

    def test_thresholds_in_paper_band(self, any_profile):
        # The paper reports thresholds between roughly 0.5 and 2 seconds.
        threshold = TailEnergyModel(any_profile).t_threshold
        assert 0.3 <= threshold <= 2.5

    def test_threshold_is_the_crossover(self, any_profile):
        model = TailEnergyModel(any_profile)
        threshold = model.t_threshold
        assert model.tail_energy(threshold * 0.9) <= model.switch_energy + 1e-9
        assert model.tail_energy(threshold * 1.1) >= model.switch_energy - 1e-9

    def test_switch_beneficial_matches_threshold(self, att_profile):
        model = TailEnergyModel(att_profile)
        assert model.switch_beneficial(model.t_threshold + 0.01)
        assert not model.switch_beneficial(model.t_threshold - 0.01)

    def test_cheaper_switching_lowers_threshold(self, att_profile):
        cheap = att_profile.with_dormancy_fraction(0.1)
        assert TailEnergyModel(cheap).t_threshold < TailEnergyModel(att_profile).t_threshold


class TestExpectations:
    def test_expected_no_switch_empty(self, att_profile):
        assert TailEnergyModel(att_profile).expected_no_switch_energy([]) == 0.0

    def test_expected_no_switch_caps_long_gaps(self, att_profile):
        model = TailEnergyModel(att_profile)
        capped = model.expected_no_switch_energy([10_000.0])
        assert capped == pytest.approx(model.full_tail_energy)

    def test_expected_wait_switch(self, att_profile):
        model = TailEnergyModel(att_profile)
        value = model.expected_wait_switch_energy(1.0)
        assert value == pytest.approx(model.switch_energy + model.wait_energy(1.0))

    def test_expected_gain_positive_for_long_gaps(self, att_profile):
        model = TailEnergyModel(att_profile)
        gaps = [60.0] * 20
        assert model.expected_gain(0.0, gaps) > 0.0

    def test_expected_gain_negative_for_short_gaps(self, att_profile):
        model = TailEnergyModel(att_profile)
        gaps = [0.05] * 20
        assert model.expected_gain(0.0, gaps) < 0.0
