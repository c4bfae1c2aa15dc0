"""Tests for the lazy packet-stream generators."""

from __future__ import annotations

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import (
    Direction,
    Packet,
    PacketTrace,
    UserDayStream,
    merge_packet_streams,
    generate_application_trace,
    stream_application_packets,
    stream_user_day_packets,
)
from repro.traces.packet import packet_columns, packet_records


class TestStreamApplicationPackets:
    def test_yields_time_ordered_packets(self):
        times = [p.timestamp for p in
                 stream_application_packets("im", duration=600.0, seed=1,
                                            chunk_s=120.0)]
        assert times
        assert times == sorted(times)
        assert times[-1] <= 600.0

    def test_deterministic_given_seed(self):
        def collect():
            return list(stream_application_packets("email", duration=400.0,
                                                   seed=3, chunk_s=100.0))

        first, second = collect(), collect()
        assert [(p.timestamp, p.size, p.flow_id) for p in first] == \
            [(p.timestamp, p.size, p.flow_id) for p in second]

    def test_different_seeds_differ(self):
        a = list(stream_application_packets("im", duration=300.0, seed=0))
        b = list(stream_application_packets("im", duration=300.0, seed=1))
        assert [p.timestamp for p in a] != [p.timestamp for p in b]

    def test_is_lazy(self):
        stream = stream_application_packets("im", duration=10_000.0, seed=0,
                                            chunk_s=50.0)
        # Pulling a handful of packets must not generate the whole workload.
        head = list(itertools.islice(stream, 5))
        assert len(head) == 5
        assert head[-1].timestamp < 10_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            next(stream_application_packets("im", duration=0.0))
        with pytest.raises(ValueError):
            next(stream_application_packets("im", duration=10.0, chunk_s=0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_horizons_are_refused(self, bad):
        # These once yielded an empty workload without an error.
        with pytest.raises(ValueError, match="duration must be positive "
                                             "and finite"):
            stream_application_packets("im", duration=bad, seed=1)
        with pytest.raises(ValueError, match="duration must be positive "
                                             "and finite"):
            generate_application_trace("im", duration=bad, seed=1)
        with pytest.raises(ValueError, match="duration must be positive "
                                             "and finite"):
            stream_user_day_packets(("im", "email"), duration=bad, seed=1)
        with pytest.raises(ValueError, match="chunk_s must be positive"):
            stream_application_packets("im", duration=60.0, seed=1,
                                       chunk_s=float("nan"))
        with pytest.raises(ValueError, match="chunk_s must be positive"):
            stream_user_day_packets(("im",), duration=60.0, seed=1,
                                    chunk_s=float("nan"))

    def test_materialises_to_a_valid_trace(self):
        trace = PacketTrace(
            stream_application_packets("finance", duration=300.0, seed=2),
            name="streamed",
        )
        assert len(trace) > 0
        assert trace.duration <= 300.0


class TestMergeAndUserStreams:
    def test_merge_preserves_global_order(self):
        a = stream_application_packets("im", duration=200.0, seed=0)
        b = stream_application_packets("email", duration=200.0, seed=1)
        merged = list(merge_packet_streams(a, b))
        times = [p.timestamp for p in merged]
        assert times == sorted(times)

    def test_user_day_remaps_flows_per_app(self):
        packets = list(stream_user_day_packets(("im", "finance"),
                                               duration=200.0, seed=0))
        assert packets
        flows = {p.flow_id for p in packets}
        # The second app's flows live in a distinct high range.
        assert any(f >= 1_000_000 for f in flows)
        assert any(f < 1_000_000 for f in flows)


class TestAppStreamSeedDerivation:
    """Regression: per-app stream seeds must not collide across devices.

    The old derivation was ``seed + 13 * index``; with the consecutive
    per-device seeds cell populations hand out, device ``i``'s app at
    index ``k`` replayed device ``i + 13k``'s index-0 app traffic —
    silently de-diversifying large cells.
    """

    @staticmethod
    def _shape(packets):
        return [(p.timestamp, p.size, p.direction) for p in packets]

    def test_cross_device_app_streams_do_not_replay(self):
        # Same app name at (seed=S, index=1) vs (seed=S+13, index=0): the
        # strided rule gave both generator seed S+13 — identical traffic.
        victim = list(stream_user_day_packets(("email", "im"),
                                              duration=400.0, seed=7))
        attacker = list(stream_user_day_packets(("im", "email"),
                                                duration=400.0, seed=7 + 13))
        victim_im = [p for p in victim if p.flow_id >= 1_000_000]
        attacker_im = [p for p in attacker if p.flow_id < 1_000_000]
        assert victim_im and attacker_im
        assert self._shape(victim_im) != self._shape(attacker_im)

    def test_single_app_user_day_differs_from_bare_app_stream_shifted(self):
        # index-0 seeds are hashed too, so consecutive device seeds no
        # longer walk the same derivation chain 13 apart.
        day_a = list(stream_user_day_packets(("im",), duration=300.0, seed=0))
        day_b = list(stream_user_day_packets(("im",), duration=300.0, seed=13))
        assert self._shape(day_a) != self._shape(day_b)

    def test_user_day_still_deterministic(self):
        first = list(stream_user_day_packets(("im", "email"),
                                             duration=300.0, seed=4))
        second = list(stream_user_day_packets(("im", "email"),
                                              duration=300.0, seed=4))
        assert self._shape(first) == self._shape(second)
        assert [p.flow_id for p in first] == [p.flow_id for p in second]


class TestRateEnvelopes:
    def test_no_envelope_is_byte_identical_to_before(self):
        # envelope=None must take the exact unshaped path (golden safety).
        plain = list(stream_application_packets("im", duration=400.0, seed=3,
                                                chunk_s=100.0))
        explicit = list(stream_application_packets("im", duration=400.0, seed=3,
                                                   chunk_s=100.0, envelope=None))
        assert plain == explicit

    def test_unit_envelope_matches_unshaped(self):
        # A constant 1.0 envelope divides every gap by exactly 1.0.
        plain = list(stream_application_packets("im", duration=400.0, seed=3,
                                                chunk_s=100.0))
        unit = list(stream_application_packets("im", duration=400.0, seed=3,
                                               chunk_s=100.0,
                                               envelope=lambda t: 1.0))
        assert plain == unit

    def test_higher_rate_yields_more_sessions(self):
        low = sum(1 for _ in stream_application_packets(
            "email", duration=3600.0, seed=5, chunk_s=600.0,
            envelope=lambda t: 0.25))
        high = sum(1 for _ in stream_application_packets(
            "email", duration=3600.0, seed=5, chunk_s=600.0,
            envelope=lambda t: 4.0))
        assert low < high

    def test_envelope_sees_absolute_time_across_chunks(self):
        # A rate step at t=600 must land on the second chunk's clock, not
        # restart at zero: the quiet half yields fewer packets than the
        # busy half even though each chunk is generated locally.
        step = lambda t: 0.1 if t < 600.0 else 4.0
        packets = list(stream_application_packets(
            "email", duration=1200.0, seed=5, chunk_s=300.0, envelope=step))
        quiet = sum(1 for p in packets if p.timestamp < 600.0)
        busy = sum(1 for p in packets if p.timestamp >= 600.0)
        assert quiet < busy

    def test_shaped_stream_is_still_time_ordered(self):
        stamps = [p.timestamp for p in stream_application_packets(
            "news", duration=900.0, seed=1, chunk_s=200.0,
            envelope=lambda t: 0.5 + (t // 300.0))]
        assert stamps == sorted(stamps)

    def test_non_positive_rate_raises(self):
        with pytest.raises(ValueError, match="must be positive"):
            list(stream_application_packets("im", duration=100.0, seed=0,
                                            envelope=lambda t: 0.0))

    def test_user_day_envelope_applies_to_every_app(self):
        low = sum(1 for _ in stream_user_day_packets(
            ("im", "email"), duration=1200.0, seed=2, chunk_s=400.0,
            envelope=lambda t: 0.2))
        high = sum(1 for _ in stream_user_day_packets(
            ("im", "email"), duration=1200.0, seed=2, chunk_s=400.0,
            envelope=lambda t: 3.0))
        assert low < high


def _hexed(columns):
    times, sizes, uplink = columns
    return [t.hex() for t in times], list(sizes), list(uplink)


def _joined(blocks):
    """Concatenate ``(times, sizes, uplink)`` blocks into one block."""
    times, sizes, uplink = [], [], []
    for block_times, block_sizes, block_uplink in blocks:
        times += block_times
        sizes += block_sizes
        uplink += block_uplink
    return times, sizes, uplink


def _envelope(time_s: float) -> float:
    return 0.5 + (time_s % 200.0) / 100.0


class TestColumnBlocks:
    """``column_blocks()`` is the packet view's columns, for every stream."""

    def test_chunked_stream_after_next_calls(self):
        def fresh():
            return stream_application_packets(
                "social", duration=900.0, seed=5, chunk_s=120.0,
                envelope=_envelope)

        full = list(fresh())
        stream = fresh()
        head = [next(stream) for _ in range(3)]
        blocks = list(stream.column_blocks())
        assert len(blocks) > 2  # the rest of chunk 0, then chunks 1..7
        assert head == full[:3]
        assert _hexed(_joined(blocks)) == _hexed(packet_columns(full[3:]))
        # One cursor: both views are spent now.
        assert list(stream) == []
        assert list(stream.packet_blocks()) == []

    def test_chunk_columns_are_the_packet_blocks(self):
        args = dict(duration=900.0, seed=2, chunk_s=120.0,
                    envelope=_envelope)
        columns = list(stream_application_packets("im", **args)
                       .column_blocks())
        packets = list(stream_application_packets("im", **args)
                       .packet_blocks())
        assert [_hexed(block) for block in columns] == \
            [_hexed(packet_columns(block)) for block in packets]

    def test_user_day_stream_is_one_sorted_block(self):
        def fresh():
            return stream_user_day_packets(
                ("im", "email", "social"), duration=1500.0, seed=9,
                chunk_s=500.0, envelope=_envelope)

        packets = list(fresh())
        assert {p.flow_id // 1_000_000 for p in packets} == {0, 1, 2}
        blocks = list(fresh().column_blocks())
        assert len(blocks) == 1
        assert _hexed(blocks[0]) == _hexed(packet_columns(packets))

    def test_user_day_stream_after_next_calls(self):
        def fresh():
            return stream_user_day_packets(("im", "finance"), duration=300.0,
                                           seed=4, chunk_s=100.0)

        packets = list(fresh())
        stream = fresh()
        head = [next(stream) for _ in range(4)]
        assert head == packets[:4]
        assert _hexed(_joined(stream.column_blocks())) == \
            _hexed(packet_columns(packets[4:]))
        assert list(stream) == []

    @pytest.mark.parametrize("view", ["chunked", "user_day"])
    def test_record_blocks_carry_every_packet_field(self, view):
        def fresh():
            if view == "chunked":
                return stream_application_packets(
                    "news", duration=900.0, seed=5, chunk_s=120.0,
                    envelope=_envelope)
            return stream_user_day_packets(
                ("im", "email", "social"), duration=1500.0, seed=9,
                chunk_s=500.0, envelope=_envelope)

        packets = list(fresh())
        whole = [list(column) for column in packet_records(packets)]
        records = list(fresh().record_blocks())
        assert [sum((list(block[i]) for block in records), [])
                for i in range(5)] == whole
        stream = fresh()
        head = [next(stream) for _ in range(3)]
        rest = list(stream.record_blocks())
        assert head == packets[:3]
        assert [sum((list(block[i]) for block in rest), [])
                for i in range(5)] == [column[3:] for column in whole]
        assert list(stream) == []

    def test_packet_trace_is_one_column_block(self):
        trace = PacketTrace([Packet(2.0, 30, Direction.UPLINK),
                             Packet(1.0, 10), Packet(2.0, 20)])
        blocks = list(trace.column_blocks())
        assert blocks == [([1.0, 2.0, 2.0], [10, 30, 20],
                           [False, True, False])]


class _Columned:
    """A hand-built stream: packets in blocks, both views, one cursor."""

    def __init__(self, blocks) -> None:
        self._blocks = iter(blocks)

    def column_blocks(self):
        for block in self._blocks:
            yield packet_columns(block)

    def __iter__(self):
        for block in self._blocks:
            yield from block


@st.composite
def _sorted_streams(draw):
    """2-4 time-ordered streams over few distinct times: ties abound."""
    streams = []
    for index in range(draw(st.integers(min_value=2, max_value=4))):
        times = sorted(draw(st.lists(
            st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 7.25)), max_size=12)))
        packets = [Packet(t, 100 * index + k,
                          Direction.UPLINK if k % 3 else Direction.DOWNLINK)
                   for k, t in enumerate(times)]
        cuts = sorted(draw(st.lists(st.integers(0, len(packets)),
                                    max_size=3)))
        bounds = [0, *cuts, len(packets)]
        streams.append([packets[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    return streams


class TestColumnMerge:
    @settings(max_examples=80, deadline=None)
    @given(streams=_sorted_streams())
    def test_equals_heapq_merge(self, streams):
        merged = list(heapq.merge(*(_Columned(blocks) for blocks in streams),
                                  key=lambda p: p.timestamp))
        blocks = list(UserDayStream(
            [_Columned(blocks) for blocks in streams]).column_blocks())
        assert len(blocks) == 1
        assert blocks[0] == packet_columns(merged)
        # The packet view is that merge too.
        packets = list(UserDayStream([_Columned(b) for b in streams]))
        assert packets == merged
        assert [p.size for p in packets] == [p.size for p in merged]
