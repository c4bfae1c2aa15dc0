"""Tests for the Packet and PacketTrace containers."""

from __future__ import annotations

import pytest

from repro.traces import Direction, Packet, PacketTrace, merge_traces


class TestDirection:
    def test_uplink_flags(self):
        assert Direction.UPLINK.is_uplink
        assert not Direction.UPLINK.is_downlink

    def test_downlink_flags(self):
        assert Direction.DOWNLINK.is_downlink
        assert not Direction.DOWNLINK.is_uplink

    def test_opposite(self):
        assert Direction.UPLINK.opposite() is Direction.DOWNLINK
        assert Direction.DOWNLINK.opposite() is Direction.UPLINK


class TestPacket:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(0.0, -1)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Packet(-0.5, 100)

    def test_shifted_moves_timestamp_only(self):
        packet = Packet(10.0, 100, Direction.UPLINK, flow_id=3, app="im")
        shifted = packet.shifted(5.0)
        assert shifted.timestamp == pytest.approx(15.0)
        assert shifted.size == 100
        assert shifted.direction is Direction.UPLINK
        assert shifted.flow_id == 3
        assert shifted.app == "im"
        with pytest.raises(ValueError):
            packet.shifted(-20.0)  # copies run the constructor's checks

    def test_with_flow_and_app_keep_every_other_field(self):
        packet = Packet(1.0, 10, Direction.UPLINK, flow_id=3, app="im")

        def fields(p):
            return (p.timestamp, p.size, p.direction, p.flow_id, p.app)

        assert fields(packet.with_flow(7)) == (1.0, 10, Direction.UPLINK, 7, "im")
        assert fields(packet.with_app("news")) == (
            1.0, 10, Direction.UPLINK, 3, "news",
        )

    def test_ordering_by_timestamp(self):
        assert Packet(1.0, 10) < Packet(2.0, 5)


class TestPacketTrace:
    def test_sorts_packets_by_time(self):
        trace = PacketTrace([Packet(5.0, 1), Packet(1.0, 2), Packet(3.0, 3)])
        assert trace.timestamps == (1.0, 3.0, 5.0)

    def test_len_and_iteration(self, simple_trace):
        assert len(simple_trace) == 5
        assert [p.size for p in simple_trace] == [200, 1200, 1200, 200, 800]

    def test_slice_returns_trace(self, simple_trace):
        head = simple_trace[:3]
        assert isinstance(head, PacketTrace)
        assert len(head) == 3

    def test_empty_trace_properties(self):
        trace = PacketTrace([])
        assert not trace
        assert trace.duration == 0.0
        assert trace.total_bytes == 0
        assert trace.inter_arrival_times == ()

    def test_inter_arrival_times(self, simple_trace):
        gaps = simple_trace.inter_arrival_times
        assert len(gaps) == 4
        assert gaps[0] == pytest.approx(0.1)
        assert gaps[2] == pytest.approx(59.8)

    def test_duration_and_bounds(self, simple_trace):
        assert simple_trace.start_time == pytest.approx(0.0)
        assert simple_trace.end_time == pytest.approx(60.1)
        assert simple_trace.duration == pytest.approx(60.1)

    def test_byte_counters(self, simple_trace):
        assert simple_trace.total_bytes == 3600
        assert simple_trace.uplink_bytes == 400
        assert simple_trace.downlink_bytes == 3200

    def test_flow_ids_and_only_flow(self, simple_trace):
        assert simple_trace.flow_ids == (1, 2)
        assert len(simple_trace.only_flow(1)) == 3

    def test_only_direction(self, simple_trace):
        assert len(simple_trace.only_direction(Direction.UPLINK)) == 2

    def test_between_half_open(self, simple_trace):
        window = simple_trace.between(0.0, 60.0)
        assert len(window) == 3
        assert simple_trace.between(0.0, 60.1 + 1e-9).count_between(0.0, 100.0) == 5

    def test_between_rejects_inverted_range(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.between(10.0, 5.0)

    def test_count_between(self, simple_trace):
        assert simple_trace.count_between(0.0, 1.0) == 3
        assert simple_trace.count_between(1.0, 0.0) == 0

    def test_next_packet_after(self, simple_trace):
        nxt = simple_trace.next_packet_after(0.2)
        assert nxt is not None
        assert nxt.timestamp == pytest.approx(60.0)
        assert simple_trace.next_packet_after(60.1) is None

    def test_shifted_and_normalized(self, simple_trace):
        shifted = simple_trace.shifted(10.0)
        assert shifted.start_time == pytest.approx(10.0)
        assert shifted.normalized().start_time == pytest.approx(0.0)

    def test_renamed(self, simple_trace):
        assert simple_trace.renamed("other").name == "other"

    def test_equality_and_hash(self):
        a = PacketTrace([Packet(0.0, 1), Packet(1.0, 2)])
        b = PacketTrace([Packet(1.0, 2), Packet(0.0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_concatenate(self, simple_trace):
        other = PacketTrace([Packet(100.0, 10)])
        combined = simple_trace.concatenate(other)
        assert len(combined) == 6
        assert combined.end_time == pytest.approx(100.0)

    def test_filter(self, simple_trace):
        big = simple_trace.filter(lambda p: p.size >= 800)
        assert len(big) == 3


class TestMergeTraces:
    def test_merge_preserves_packets_and_order(self, simple_trace):
        other = PacketTrace([Packet(0.05, 500, Direction.DOWNLINK, flow_id=1)])
        merged = merge_traces([simple_trace, other])
        assert len(merged) == 6
        assert merged.timestamps == tuple(sorted(merged.timestamps))

    def test_merge_remaps_flow_ids(self):
        a = PacketTrace([Packet(0.0, 1, flow_id=1)])
        b = PacketTrace([Packet(1.0, 1, flow_id=1)])
        merged = merge_traces([a, b])
        assert len(set(p.flow_id for p in merged)) == 2

    def test_merge_empty_inputs(self):
        assert len(merge_traces([])) == 0


@pytest.fixture
def mixed_trace():
    """Two applications over three flows, with one unlabelled packet."""
    return PacketTrace(
        [
            Packet(0.0, 100, Direction.UPLINK, flow_id=0, app="email"),
            Packet(1.0, 1400, Direction.DOWNLINK, flow_id=0, app="email"),
            Packet(10.0, 200, Direction.UPLINK, flow_id=1, app="im"),
            Packet(11.0, 2200, Direction.DOWNLINK, flow_id=1, app="im"),
            Packet(25.0, 300, Direction.UPLINK, flow_id=2, app="email"),
            Packet(30.0, 40, Direction.DOWNLINK, flow_id=2),
        ],
        name="mixed",
    )


class TestMultiAppTrace:
    def test_apps_are_the_sorted_labels(self, mixed_trace):
        # The unlabelled packet contributes no application.
        assert mixed_trace.apps == ("email", "im")

    def test_only_app_splits_by_label(self, mixed_trace):
        email = mixed_trace.only_app("email")
        im = mixed_trace.only_app("im")
        assert [p.timestamp for p in email] == [0.0, 1.0, 25.0]
        assert [p.timestamp for p in im] == [10.0, 11.0]
        assert len(mixed_trace.only_app("")) == 1
        assert len(mixed_trace.only_app("news")) == 0

    def test_views_keep_the_trace_name(self, mixed_trace):
        views = [
            mixed_trace[1:3],
            mixed_trace.filter(lambda p: p.size > 150),
            mixed_trace.only_app("im"),
            mixed_trace.only_flow(2),
            mixed_trace.only_direction(Direction.DOWNLINK),
            mixed_trace.between(5.0, 20.0),
            mixed_trace.shifted(3.0),
            mixed_trace.shifted(3.0).normalized(),
        ]
        assert {view.name for view in views} == {"mixed"}

    def test_between_on_empty_trace_is_empty(self):
        assert len(PacketTrace([]).between(0.0, 10.0)) == 0
        assert PacketTrace([]).count_between(0.0, 10.0) == 0
        assert PacketTrace([]).next_packet_after(0.0) is None

    def test_between_skips_empty_windows(self, mixed_trace):
        counts = [mixed_trace.count_between(start, start + 5.0)
                  for start in range(0, 35, 5)]
        assert counts == [2, 0, 2, 0, 0, 1, 1]
        assert sum(counts) == len(mixed_trace)

    def test_merge_keeps_app_labels_and_names_the_result(self, mixed_trace):
        merged = merge_traces([mixed_trace, mixed_trace.only_app("im")])
        assert merged.name == "merged"
        assert merged.apps == mixed_trace.apps
        assert len(merged.only_app("im")) == 4
        assert merge_traces([mixed_trace], name="one").name == "one"

    def test_concatenate_keeps_flow_ids(self, mixed_trace):
        # Unlike merge_traces, concatenation does not separate the flows of
        # its two inputs.
        doubled = mixed_trace.concatenate(mixed_trace)
        assert len(doubled) == 2 * len(mixed_trace)
        assert doubled.flow_ids == mixed_trace.flow_ids
        assert doubled.total_bytes == 2 * mixed_trace.total_bytes

    def test_concatenate_takes_the_first_non_empty_name(self, mixed_trace):
        assert PacketTrace([]).concatenate(mixed_trace).name == "mixed"
        assert mixed_trace.concatenate(PacketTrace([], name="x")).name == "mixed"

    def test_repr_names_the_trace_and_its_size(self, mixed_trace):
        text = repr(mixed_trace)
        assert "'mixed'" in text
        assert "packets=6" in text
        assert f"bytes={mixed_trace.total_bytes}" in text
        assert repr(PacketTrace([])) == (
            "<PacketTrace packets=0 duration=0.0s bytes=0>")
