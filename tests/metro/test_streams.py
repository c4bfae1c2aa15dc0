"""Windowed-stream tests: visit slices of a full-horizon workload."""

from __future__ import annotations

import math

import pytest

from repro.metro import windowed_stream
from repro.traces.packet import Direction, Packet, packet_columns
from repro.traces.streaming import stream_application_packets


def _packets(*stamps: float) -> list[Packet]:
    return [Packet(t, 100, Direction.DOWNLINK, 0, "t") for t in stamps]


class _Blocks:
    """A minimal block-protocol source."""

    def __init__(self, *blocks):
        self._blocks = list(blocks)

    def packet_blocks(self):
        yield from self._blocks

    def __iter__(self):
        for block in self._blocks:
            yield from block


class TestGeneratorWindow:
    def test_half_open_window(self):
        source = iter(_packets(0.0, 1.0, 2.0, 3.0, 4.0))
        out = list(windowed_stream(source, 1.0, 3.0))
        assert [p.timestamp for p in out] == [1.0, 2.0]

    def test_unbounded_stop(self):
        source = iter(_packets(0.0, 5.0, 10.0))
        out = list(windowed_stream(source, 5.0))
        assert [p.timestamp for p in out] == [5.0, 10.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="start"):
            windowed_stream(iter(()), -1.0)
        with pytest.raises(ValueError, match="stop"):
            windowed_stream(iter(()), 5.0, 5.0)


class TestBlockWindow:
    def test_preserves_block_protocol(self):
        source = _Blocks(_packets(0.0, 1.0), _packets(2.0, 3.0))
        window = windowed_stream(source, 1.0, 3.0)
        assert hasattr(window, "packet_blocks")
        flat = [p.timestamp for block in window.packet_blocks() for p in block]
        assert flat == [1.0, 2.0]

    def test_whole_blocks_pass_through_unsliced(self):
        inner = _packets(2.0, 3.0)
        source = _Blocks(_packets(0.0, 1.0), inner, _packets(4.0, 5.0))
        blocks = list(windowed_stream(source, 2.0, 4.0).packet_blocks())
        assert len(blocks) == 1
        assert blocks[0] is inner  # no copy when fully inside the window

    def test_stops_scanning_after_window(self):
        class Exploding(_Blocks):
            def packet_blocks(self):
                yield _packets(0.0, 1.0)
                yield _packets(10.0, 11.0)
                raise AssertionError("scanned past the window")

        out = [
            p.timestamp
            for block in windowed_stream(Exploding(), 0.0, 5.0).packet_blocks()
            for p in block
        ]
        assert out == [0.0, 1.0]

    def test_iteration_matches_blocks(self):
        source1 = _Blocks(_packets(0.0, 1.0, 2.0), _packets(3.0, 4.0))
        source2 = _Blocks(_packets(0.0, 1.0, 2.0), _packets(3.0, 4.0))
        via_iter = [p.timestamp for p in windowed_stream(source1, 1.0, 4.0)]
        via_blocks = [
            p.timestamp
            for block in windowed_stream(source2, 1.0, 4.0).packet_blocks()
            for p in block
        ]
        assert via_iter == via_blocks == [1.0, 2.0, 3.0]

    def test_empty_and_pre_window_blocks_skipped(self):
        source = _Blocks([], _packets(0.0), [], _packets(5.0, 6.0))
        out = [
            p.timestamp
            for block in windowed_stream(source, 4.0, math.inf).packet_blocks()
            for p in block
        ]
        assert out == [5.0, 6.0]


class TestAgainstRealStreams:
    def test_window_equals_filter_of_full_stream(self):
        """Slicing a chunked app stream == filtering its full materialisation."""
        def full():
            return stream_application_packets(
                "im", duration=1200.0, seed=42, chunk_s=100.0
            )

        reference = [
            p for p in full() if 300.0 <= p.timestamp < 900.0
        ]
        window = list(windowed_stream(full(), 300.0, 900.0))
        assert window == reference

    def test_windows_tile_the_stream(self):
        """Consecutive visit windows partition the full packet sequence."""
        def full():
            return stream_application_packets(
                "email", duration=1000.0, seed=7, chunk_s=250.0
            )

        cuts = [0.0, 313.0, 313.5, 700.0, math.inf]
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            pieces.extend(windowed_stream(full(), lo, hi))
        assert pieces == list(full())


def _joined(blocks):
    times, sizes, uplink = [], [], []
    for block_times, block_sizes, block_uplink in blocks:
        times += block_times
        sizes += block_sizes
        uplink += block_uplink
    return times, sizes, uplink


class TestColumnWindow:
    """A window over a column source cuts columns as it cuts packets."""

    @staticmethod
    def _full():
        return stream_application_packets("im", duration=900.0, seed=11,
                                          chunk_s=150.0)

    def test_edges_on_exact_packet_times(self):
        times = [p.timestamp for p in self._full()]
        # Edges on packet times, on a chunk's first packet, and unbounded.
        first_of_chunk = next(t for t in times if t >= 300.0)
        cuts = [(times[0], times[5]), (times[7], times[40]),
                (first_of_chunk, times[-1]), (times[12], math.inf),
                (0.0, first_of_chunk)]
        for lo, hi in cuts:
            window = windowed_stream(self._full(), lo, hi)
            packets = list(windowed_stream(self._full(), lo, hi))
            assert packets and all(lo <= p.timestamp < hi for p in packets)
            assert _joined(window.column_blocks()) == packet_columns(packets)

    def test_resumes_after_partial_iteration(self):
        packets = list(windowed_stream(self._full(), 100.0, 700.0))
        window = windowed_stream(self._full(), 100.0, 700.0)
        head = [next(window) for _ in range(3)]
        assert head == packets[:3]
        assert _joined(window.column_blocks()) == packet_columns(packets[3:])

    def test_packet_blocks_only_source_offers_no_columns(self):
        window = windowed_stream(_Blocks(_packets(0.0, 1.0)), 0.0, 5.0)
        assert hasattr(window, "packet_blocks")
        assert not hasattr(window, "column_blocks")
        assert hasattr(windowed_stream(self._full(), 0.0, 5.0),
                       "column_blocks")
