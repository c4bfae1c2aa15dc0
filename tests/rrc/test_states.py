"""Tests for radio state and technology definitions."""

from __future__ import annotations

from repro.rrc import RadioState, Technology


class TestTechnology:
    def test_lte_flag(self):
        assert Technology.LTE.is_lte
        assert not Technology.UMTS_3G.is_lte


class TestRadioState:
    def test_transfer_capability(self):
        assert RadioState.ACTIVE.can_transfer
        assert RadioState.HIGH_IDLE.can_transfer
        assert not RadioState.IDLE.can_transfer
        assert not RadioState.PROMOTING.can_transfer

    def test_tail_power_flag(self):
        assert RadioState.ACTIVE.draws_tail_power
        assert RadioState.HIGH_IDLE.draws_tail_power
        assert RadioState.PROMOTING.draws_tail_power
        assert not RadioState.IDLE.draws_tail_power
