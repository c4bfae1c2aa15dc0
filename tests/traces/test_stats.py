"""Tests for inter-arrival statistics and the sliding-window distribution."""

from __future__ import annotations

import pytest

from repro.traces import (
    EmpiricalCdf,
    PacketTrace,
    Packet,
    SlidingWindowDistribution,
    inter_arrival_percentile,
    summarize_trace,
)


class TestEmpiricalCdf:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])

    def test_cdf_values(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.cdf(0.5) == 0.0
        assert cdf.cdf(2.0) == pytest.approx(0.5)
        assert cdf.cdf(10.0) == 1.0

    def test_survival_complements_cdf(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0])
        for x in (0.0, 1.5, 2.0, 5.0):
            assert cdf.survival(x) == pytest.approx(1.0 - cdf.cdf(x))

    def test_min_max_mean(self):
        cdf = EmpiricalCdf([2.0, 8.0, 5.0])
        assert cdf.min == 2.0
        assert cdf.max == 8.0
        assert cdf.mean == pytest.approx(5.0)

    def test_percentile_nearest_rank(self):
        cdf = EmpiricalCdf(range(1, 101))
        assert cdf.percentile(95.0) == 95
        assert cdf.percentile(100.0) == 100
        assert cdf.percentile(0.0) == 1

    def test_percentile_out_of_range(self):
        cdf = EmpiricalCdf([1.0])
        with pytest.raises(ValueError):
            cdf.percentile(120.0)

    def test_conditional_survival_monotone_for_heavy_tail(self):
        # A distribution with a mass of short gaps and a mass of long gaps:
        # the longer you have waited without a packet, the more likely you
        # are in the long-gap regime (the property the paper relies on).
        samples = [0.1] * 80 + [30.0] * 20
        cdf = EmpiricalCdf(samples)
        p_short_wait = cdf.conditional_survival(0.0, 5.0)
        p_long_wait = cdf.conditional_survival(1.0, 5.0)
        assert p_long_wait >= p_short_wait

    def test_conditional_survival_degenerate(self):
        cdf = EmpiricalCdf([1.0, 2.0])
        assert cdf.conditional_survival(10.0, 1.0) == 1.0

    def test_histogram(self):
        cdf = EmpiricalCdf([0.5, 1.5, 2.5, 3.5])
        counts = cdf.histogram([0.0, 1.0, 2.0, 3.0, 4.0])
        assert counts == [1, 1, 1, 1]

    def test_histogram_requires_two_edges(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0]).histogram([0.0])


class TestSlidingWindowDistribution:
    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowDistribution(window_size=1)

    def test_observe_builds_gaps(self):
        window = SlidingWindowDistribution(window_size=10)
        for t in (0.0, 1.0, 3.0, 6.0):
            window.observe(t)
        assert window.samples == (1.0, 2.0, 3.0)
        batched = SlidingWindowDistribution(window_size=10)
        assert batched.observe_all([0.0, 1.0]) == [1.0]
        assert batched.observe_all([3.0, 6.0]) == [2.0, 3.0]
        assert batched.samples == window.samples

    def test_window_slides(self):
        window = SlidingWindowDistribution(window_size=3)
        for t in range(10):
            window.observe(float(t))
        assert window.sample_count == 3

    def test_rejects_time_going_backwards(self):
        window = SlidingWindowDistribution()
        window.observe(5.0)
        with pytest.raises(ValueError):
            window.observe(4.0)
        with pytest.raises(ValueError, match="4.0 < 6.0"):
            window.observe_all([6.0, 4.0])
        assert window.samples == ()  # the failed batch recorded nothing

    def test_observe_gap_direct(self):
        window = SlidingWindowDistribution()
        window.observe_gap(2.0)
        assert window.samples == (2.0,)
        with pytest.raises(ValueError):
            window.observe_gap(-1.0)

    def test_reset(self):
        window = SlidingWindowDistribution()
        window.observe(0.0)
        window.observe(1.0)
        window.reset()
        assert window.sample_count == 0
        assert window.cdf() is None

    def test_is_warm(self):
        window = SlidingWindowDistribution()
        assert not window.is_warm()
        for t in (0.0, 1.0, 2.0):
            window.observe(t)
        assert window.is_warm(2)

    def test_cold_start_probability_is_pessimistic(self):
        window = SlidingWindowDistribution()
        assert window.probability_no_packet(0.5, 1.0) == 0.0

    def test_probability_gap_exceeds(self):
        window = SlidingWindowDistribution()
        for gap in (1.0, 2.0, 10.0, 12.0):
            window.observe_gap(gap)
        assert window.probability_gap_exceeds(5.0) == pytest.approx(0.5)


class TestTraceSummaries:
    def test_inter_arrival_percentile(self, heartbeat_trace):
        p95 = inter_arrival_percentile(heartbeat_trace, 95.0)
        assert 0.0 < p95 <= 15.0

    def test_inter_arrival_percentile_needs_two_packets(self):
        with pytest.raises(ValueError):
            inter_arrival_percentile(PacketTrace([Packet(0.0, 1)]))

    def test_summarize_trace(self, simple_trace):
        summary = summarize_trace(simple_trace)
        assert summary.packet_count == 5
        assert summary.total_bytes == 3600
        assert summary.max_inter_arrival == pytest.approx(59.8)
        assert summary.mean_throughput_bps > 0

    def test_summarize_single_packet_trace(self):
        summary = summarize_trace(PacketTrace([Packet(0.0, 10)], name="one"))
        assert summary.packet_count == 1
        assert summary.p95_inter_arrival == 0.0
        assert summary.mean_throughput_bps == 0.0
