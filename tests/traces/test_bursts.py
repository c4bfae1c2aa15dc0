"""Tests for burst segmentation."""

from __future__ import annotations

import pytest

from repro.traces import (
    Burst,
    Packet,
    PacketTrace,
    bursts_per_active_period,
    segment_bursts,
)


def make_trace(times):
    return PacketTrace([Packet(t, 100) for t in times])


class TestBurst:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Burst(start=5.0, end=4.0, packet_count=1, total_bytes=0)

    def test_requires_packet(self):
        with pytest.raises(ValueError):
            Burst(start=0.0, end=1.0, packet_count=0, total_bytes=0)

    def test_duration_and_gap(self):
        a = Burst(0.0, 1.0, 2, 100)
        b = Burst(5.0, 6.0, 1, 50)
        assert a.duration == pytest.approx(1.0)
        assert a.gap_to(b) == pytest.approx(4.0)


class TestSegmentBursts:
    def test_empty_trace(self):
        assert segment_bursts(PacketTrace([]), 1.0) == []

    def test_negative_threshold_rejected(self, simple_trace):
        with pytest.raises(ValueError):
            segment_bursts(simple_trace, -1.0)

    def test_single_burst(self):
        bursts = segment_bursts(make_trace([0.0, 0.1, 0.2]), 1.0)
        assert len(bursts) == 1
        assert bursts[0].packet_count == 3

    def test_splits_on_long_gap(self, simple_trace):
        bursts = segment_bursts(simple_trace, 1.0)
        assert len(bursts) == 2
        assert bursts[0].packet_count == 3
        assert bursts[1].packet_count == 2

    def test_threshold_is_inclusive(self):
        bursts = segment_bursts(make_trace([0.0, 1.0, 2.0]), 1.0)
        assert len(bursts) == 1

    def test_burst_metadata(self, simple_trace):
        bursts = segment_bursts(simple_trace, 1.0)
        assert bursts[0].total_bytes == 2600
        assert bursts[0].flow_ids == (1,)
        assert bursts[1].flow_ids == (2,)

    def test_gaps_between_consecutive_bursts(self, simple_trace):
        bursts = segment_bursts(simple_trace, 1.0)
        gaps = [a.gap_to(b) for a, b in zip(bursts, bursts[1:])]
        assert gaps == [pytest.approx(59.8)]

    def test_zero_threshold_splits_on_any_gap(self):
        bursts = segment_bursts(make_trace([0.0, 0.0, 1.0, 2.0]), 0.0)
        assert [b.packet_count for b in bursts] == [2, 1, 1]

    def test_lone_packet_is_a_zero_length_burst(self):
        (burst,) = segment_bursts(make_trace([7.5]), 1.0)
        assert burst.start == burst.end == 7.5
        assert burst.duration == 0.0
        assert burst.packet_count == 1


class TestBurstsPerActivePeriod:
    def test_empty_trace(self):
        assert bursts_per_active_period(PacketTrace([]), 1.0, 10.0) == 0.0

    def test_isolated_bursts(self):
        # Bursts 100 s apart, active window 10 s: one burst per period.
        trace = make_trace([0.0, 0.1, 100.0, 100.1, 200.0])
        assert bursts_per_active_period(trace, 1.0, 10.0) == pytest.approx(1.0)

    def test_clustered_bursts(self):
        # Three bursts 5 s apart (inside the 10 s window), then a lone burst.
        trace = make_trace([0.0, 5.0, 10.0, 200.0])
        k = bursts_per_active_period(trace, 1.0, 10.0)
        assert k == pytest.approx(2.0)  # periods of 3 and 1 bursts

    def test_gap_equal_to_active_window_stays_in_period(self):
        trace = make_trace([0.0, 10.0, 30.0])
        # 10 s apart: one period; 20 s apart: a new one.
        assert bursts_per_active_period(trace, 1.0, 10.0) == pytest.approx(1.5)
