"""Tests for carrier profiles: the constants of Tables 1 and 2."""

from __future__ import annotations

import dataclasses

import pytest

from repro.rrc import (
    CARRIER_ORDER,
    CARRIER_PROFILES,
    CarrierProfile,
    RadioState,
    Technology,
    get_profile,
)


class TestTable2Constants:
    """The profile constants must match Table 2 of the paper exactly."""

    @pytest.mark.parametrize(
        "key, psnd, prcv, pt1, pt2, t1, t2",
        [
            ("tmobile_3g", 1202, 737, 445, 343, 3.2, 16.3),
            ("att_hspa", 1539, 1212, 916, 659, 6.2, 10.4),
            ("verizon_3g", 2043, 1177, 1130, 1130, 9.8, 0.0),
            ("verizon_lte", 2928, 1737, 1325, 0.0, 10.2, 0.0),
        ],
    )
    def test_power_and_timer_values(self, key, psnd, prcv, pt1, pt2, t1, t2):
        profile = get_profile(key)
        assert profile.power_send_mw == pytest.approx(psnd)
        assert profile.power_recv_mw == pytest.approx(prcv)
        assert profile.power_active_mw == pytest.approx(pt1)
        assert profile.power_high_idle_mw == pytest.approx(pt2)
        assert profile.t1 == pytest.approx(t1)
        assert profile.t2 == pytest.approx(t2)

    def test_table1_subset(self):
        # Table 1 lists the Galaxy Nexus bulk powers for Verizon's networks.
        assert get_profile("verizon_3g").power_send_mw == pytest.approx(2043)
        assert get_profile("verizon_3g").power_recv_mw == pytest.approx(1177)
        assert get_profile("verizon_lte").power_send_mw == pytest.approx(2928)
        assert get_profile("verizon_lte").power_recv_mw == pytest.approx(1737)

    def test_carrier_order_matches_figures(self):
        assert CARRIER_ORDER == ("tmobile_3g", "att_hspa", "verizon_3g", "verizon_lte")

    def test_promotion_delays_match_section_2_1(self):
        assert get_profile("att_hspa").promotion_delay_s == pytest.approx(1.4)
        assert get_profile("tmobile_3g").promotion_delay_s == pytest.approx(3.6)
        assert get_profile("verizon_3g").promotion_delay_s == pytest.approx(1.2)
        assert get_profile("verizon_lte").promotion_delay_s == pytest.approx(0.6)


class TestDerivedQuantities:
    def test_unit_conversions(self, att_profile):
        assert att_profile.power_active_w == pytest.approx(0.916)
        assert att_profile.power_send_w == pytest.approx(1.539)

    def test_total_inactivity_timeout(self, att_profile, lte_profile):
        assert att_profile.total_inactivity_timeout == pytest.approx(16.6)
        assert lte_profile.total_inactivity_timeout == pytest.approx(10.2)

    def test_high_idle_state_presence(self):
        assert get_profile("att_hspa").has_high_idle_state
        assert get_profile("tmobile_3g").has_high_idle_state
        assert not get_profile("verizon_3g").has_high_idle_state
        assert not get_profile("verizon_lte").has_high_idle_state

    def test_switch_energy_is_demotion_plus_promotion(self, any_profile):
        assert any_profile.switch_energy_j == pytest.approx(
            any_profile.demotion_energy_j + any_profile.promotion_energy_j
        )

    def test_default_dormancy_fraction_is_half(self, any_profile):
        assert any_profile.dormancy_fraction == pytest.approx(0.5)
        assert any_profile.demotion_energy_j == pytest.approx(
            0.5 * any_profile.radio_off_energy_j
        )
        assert any_profile.demotion_delay_s == pytest.approx(
            0.5 * any_profile.radio_off_delay_s
        )

    def test_dormancy_fraction_scales_demotion(self, att_profile):
        half = att_profile
        tenth = att_profile.with_dormancy_fraction(0.1)
        assert tenth.demotion_energy_j == pytest.approx(
            half.radio_off_energy_j * 0.1
        )
        assert tenth.switch_energy_j < half.switch_energy_j

    def test_with_timers(self, att_profile):
        modified = att_profile.with_timers(4.5, 0.0)
        assert modified.t1 == 4.5
        assert modified.t2 == 0.0
        assert modified.power_active_mw == att_profile.power_active_mw

    def test_state_power(self, att_profile):
        assert att_profile.state_power_w(RadioState.ACTIVE) == pytest.approx(0.916)
        assert att_profile.state_power_w(RadioState.HIGH_IDLE) == pytest.approx(0.659)
        assert att_profile.state_power_w(RadioState.IDLE) == pytest.approx(0.0)
        assert att_profile.state_power_w(RadioState.PROMOTING) == pytest.approx(0.916)

    def test_transfer_power(self, lte_profile):
        assert lte_profile.transfer_power_w(uplink=True) == pytest.approx(2.928)
        assert lte_profile.transfer_power_w(uplink=False) == pytest.approx(1.737)


class TestLookupAndValidation:
    def test_aliases(self):
        assert get_profile("ATT").key == "att_hspa"
        assert get_profile("T-Mobile").key == "tmobile_3g"
        assert get_profile("lte").key == "verizon_lte"
        assert get_profile("Verizon").key == "verizon_3g"

    def test_unknown_carrier(self):
        with pytest.raises(KeyError):
            get_profile("sprint_6g")

    def test_lte_technology(self):
        assert get_profile("verizon_lte").technology is Technology.LTE
        assert get_profile("att_hspa").technology is Technology.UMTS_3G

    def test_negative_timer_rejected(self, att_profile):
        with pytest.raises(ValueError):
            dataclasses.replace(att_profile, t1=-1.0)

    def test_bad_dormancy_fraction_rejected(self, att_profile):
        with pytest.raises(ValueError):
            att_profile.with_dormancy_fraction(0.0)
        with pytest.raises(ValueError):
            att_profile.with_dormancy_fraction(1.5)

    def test_negative_power_rejected(self, att_profile):
        with pytest.raises(ValueError):
            dataclasses.replace(att_profile, power_send_mw=-5.0)

    def test_all_profiles_are_frozen(self):
        for profile in CARRIER_PROFILES.values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                profile.t1 = 1.0  # type: ignore[misc]
