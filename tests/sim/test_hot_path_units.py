"""Unit tests for the hot-path building blocks (PR 5 overhaul).

The kernel inlines several formerly-called methods over precomputed
constants; these tests pin the inlined arithmetic to the readable
reference implementations and cover the new mode guards.
"""

from __future__ import annotations

import pytest

from repro.core import FixedTimerPolicy, StatusQuoPolicy
from repro.energy.accounting import DataEnergyModel
from repro.rrc.profiles import CARRIER_PROFILES, get_profile
from repro.rrc.state_machine import RrcStateMachine
from repro.rrc.tables import TransitionTable, transition_table
from repro.sim.engine import CellLoad, SimulationEngine, UeContext
from repro.traces.packet import Direction, Packet, PacketTrace
from repro.traces.streaming import stream_application_packets


class TestTransitionTable:
    @pytest.mark.parametrize("key", sorted(CARRIER_PROFILES))
    def test_fields_equal_profile_derivations(self, key):
        profile = CARRIER_PROFILES[key]
        table = transition_table(profile)
        assert table.t1 == profile.t1
        assert table.t2 == profile.t2
        assert table.total_timeout == profile.total_inactivity_timeout
        assert table.has_high_idle == profile.has_high_idle_state
        assert table.idle_after == (
            profile.total_inactivity_timeout
            if profile.has_high_idle_state else profile.t1
        )
        assert table.promotion_energy_j == profile.promotion_energy_j
        assert table.demotion_energy_j == profile.demotion_energy_j
        assert table.power_active_w == profile.power_active_w
        assert table.power_high_idle_w == profile.power_high_idle_w
        assert table.power_send_w == profile.transfer_power_w(True)
        assert table.power_recv_w == profile.transfer_power_w(False)

    def test_cached_per_profile(self):
        profile = get_profile("att_hspa")
        assert transition_table(profile) is transition_table(profile)
        derived = profile.with_timers(1.0)
        assert transition_table(derived) is not transition_table(profile)
        assert isinstance(transition_table(derived), TransitionTable)


class TestDataModelConstants:
    def test_cached_powers_match_property_chain(self):
        profile = get_profile("verizon_lte")
        model = DataEnergyModel(profile)
        assert model.send_power_w == profile.transfer_power_w(True)
        assert model.recv_power_w == profile.transfer_power_w(False)
        assert model.uplink_rate == 1.0 * 1e6 / 8.0
        assert model.downlink_rate == 5.0 * 1e6 / 8.0
        assert model.min_packet_time == 0.002


class TestInlineTransferFold:
    def test_kernel_fold_equals_account_transfer_reference(self):
        """The kernel's inlined per-packet fold is the reference method."""
        profile = get_profile("att_hspa")
        packets = [
            Packet(0.0, 1200, Direction.DOWNLINK, 0, "t"),
            Packet(0.05, 90, Direction.UPLINK, 0, "t"),     # intra-burst gap
            Packet(30.0, 500, Direction.DOWNLINK, 0, "t"),  # beyond burst gap
            Packet(30.001, 40, Direction.UPLINK, 0, "t"),
        ]

        # Reference: fold the same effective sequence by hand.
        reference = UeContext(0, profile, StatusQuoPolicy(), collect=False)
        model = DataEnergyModel(profile)
        for packet in packets:
            reference.account_transfer(model, packet, packet.timestamp)

        # Kernel: run the packets through the engine (status quo emits
        # every packet at its arrival time).
        engine = SimulationEngine(profile)
        ue = UeContext(1, profile, StatusQuoPolicy(), collect=False)
        engine.run({1: PacketTrace(packets)}, {1: ue})

        assert ue.folded_totals()[0] == reference.folded_totals()[0]  # data_j
        assert ue.folded_totals()[1] == reference.folded_totals()[1]  # time_s


class TestFoldModeGuards:
    def test_folded_totals_refused_without_fold_mode(self):
        machine = RrcStateMachine(get_profile("att_hspa"))
        with pytest.raises(RuntimeError, match="fold_history"):
            machine.folded_state_totals()

    def test_fold_counts_match_recorded_history(self):
        profile = get_profile("att_hspa")
        recording = RrcStateMachine(profile)
        folding = RrcStateMachine(profile, fold_history=True)
        for machine in (recording, folding):
            machine.notify_activity(1.0)
            machine.request_fast_dormancy(3.0)
            machine.notify_activity(10.0)
            machine.finish(60.0)
        assert folding.promotion_count == recording.promotion_count
        assert folding.demotion_count == recording.demotion_count
        assert folding.switch_count == recording.switch_count
        (active_s, high_s, idle_s, switch_j, promotions,
         timer_demotions, fast_demotions) = folding.folded_state_totals()
        assert promotions == 2
        assert fast_demotions == 1
        # Folded durations are the same additions the recorded intervals
        # would sum to, in the same order.
        from repro.rrc.states import RadioState

        def summed(state_set):
            return sum(i.duration for i in recording.intervals
                       if i.state in state_set)

        assert active_s == summed({RadioState.ACTIVE, RadioState.PROMOTING})
        assert high_s == summed({RadioState.HIGH_IDLE})
        assert idle_s == summed({RadioState.IDLE})
        assert switch_j == sum(s.energy_j for s in recording.switches)


class TestCellModeGuards:
    @staticmethod
    def _run(decide, load):
        profile = get_profile("att_hspa")
        packets = [Packet(t, 100, Direction.UPLINK) for t in (1.0, 20.0, 40.0)]
        ue = UeContext(0, profile, FixedTimerPolicy(timeout=1.0),
                       collect=False)
        SimulationEngine(profile).run({0: iter(packets)}, {0: ue},
                                      decide=decide, load=load)
        return ue

    def test_decide_requires_a_load(self):
        with pytest.raises(ValueError, match="CellLoad"):
            self._run(lambda ue_id, time, load: True, None)

    def test_decide_sees_the_live_load_and_answers_a_bool(self):
        load = CellLoad()
        asked = []

        def deny(ue_id, time, seen):
            asked.append((ue_id, time, seen is load))
            return False

        ue = self._run(deny, load)
        assert asked == [(0, 2.0, True), (0, 21.0, True), (0, 41.0, True)]
        assert (ue.dormancy_requests, ue.dormancy_denied) == (3, 3)

    def test_no_decide_grants_every_request(self):
        ue = self._run(None, CellLoad())
        assert (ue.dormancy_requests, ue.dormancy_granted) == (3, 3)


class TestChunkedStreamBlockProtocol:
    def test_blocks_resume_after_partial_iteration(self):
        """Mixing next() and packet_blocks() neither drops nor repeats."""
        args = dict(duration=600.0, seed=3, chunk_s=120.0)
        full = list(stream_application_packets("im", **args))

        stream = stream_application_packets("im", **args)
        head = [next(stream) for _ in range(5)]
        rest = [p for block in stream.packet_blocks() for p in block]
        assert head + rest == full

    def test_packet_trace_is_one_block(self):
        trace = PacketTrace([Packet(1.0, 10), Packet(2.0, 10)])
        blocks = list(trace.packet_blocks())
        assert len(blocks) == 1
        assert list(blocks[0]) == list(trace)

    def test_iterator_protocol_preserved(self):
        stream = stream_application_packets("im", duration=300.0, seed=0)
        assert iter(stream) is stream
        first = next(stream)
        assert first.timestamp >= 0.0


class TestUnoverriddenHookSkips:
    def test_hook_flags_detect_overrides(self):
        profile = get_profile("att_hspa")
        plain = UeContext(0, profile, FixedTimerPolicy(2.0), collect=False)
        assert plain.observes_packets is False
        assert plain.delays_activation is False

        class Watcher(StatusQuoPolicy):
            def observe_packet(self, time, packet):  # noqa: D102
                pass

            def activation_delay(self, now):  # noqa: D102
                return 0.5

        hooked = UeContext(1, profile, Watcher(), collect=False)
        assert hooked.observes_packets is True
        assert hooked.delays_activation is True
