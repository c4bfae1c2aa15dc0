"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FixedTimerPolicy, OraclePolicy, StatusQuoPolicy
from repro.energy import TailEnergyModel
from repro.learning import FixedShareExperts, LearnAlpha, MakeActiveLoss
from repro.rrc import CARRIER_PROFILES, RrcStateMachine, get_profile
from repro.sim import TraceSimulator
from repro.traces import (
    Direction,
    EmpiricalCdf,
    Packet,
    PacketTrace,
    SlidingWindowDistribution,
    merge_traces,
    read_pcap,
    segment_bursts,
    write_pcap,
)

carrier_keys = st.sampled_from(sorted(CARRIER_PROFILES))

packet_lists = st.lists(
    st.builds(
        Packet,
        timestamp=st.floats(min_value=0.0, max_value=5000.0,
                            allow_nan=False, allow_infinity=False),
        size=st.integers(min_value=0, max_value=65_000),
        direction=st.sampled_from(list(Direction)),
        flow_id=st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=60,
)

gap_lists = st.lists(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=80,
)


class TestTraceProperties:
    @given(packets=packet_lists)
    def test_trace_is_always_sorted(self, packets):
        trace = PacketTrace(packets)
        times = trace.timestamps
        assert all(b >= a for a, b in zip(times, times[1:]))

    @given(packets=packet_lists)
    def test_inter_arrivals_are_non_negative_and_sum_to_duration(self, packets):
        trace = PacketTrace(packets)
        gaps = trace.inter_arrival_times
        assert all(g >= 0.0 for g in gaps)
        assert math.isclose(sum(gaps), trace.duration, rel_tol=1e-9, abs_tol=1e-6)

    @given(packets=packet_lists, offset=st.floats(min_value=0.0, max_value=100.0))
    def test_shifting_preserves_gaps(self, packets, offset):
        trace = PacketTrace(packets)
        shifted = trace.shifted(offset)
        for a, b in zip(trace.inter_arrival_times, shifted.inter_arrival_times):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    @given(packets=packet_lists, threshold=st.floats(min_value=0.0, max_value=100.0))
    def test_bursts_partition_the_trace(self, packets, threshold):
        trace = PacketTrace(packets)
        bursts = segment_bursts(trace, threshold)
        assert sum(b.packet_count for b in bursts) == len(trace)
        assert sum(b.total_bytes for b in bursts) == trace.total_bytes
        for previous, current in zip(bursts, bursts[1:]):
            assert current.start - previous.end > threshold

    @given(packets=packet_lists, limit=st.integers(min_value=0, max_value=65_000))
    def test_filter_never_grows_and_keeps_order(self, packets, limit):
        trace = PacketTrace(packets)
        kept = trace.filter(lambda p: p.size <= limit)
        assert len(kept) <= len(trace)
        assert all(p.size <= limit for p in kept)
        assert list(kept) == [p for p in trace if p.size <= limit]

    @given(packets=packet_lists)
    def test_directions_partition_the_trace(self, packets):
        trace = PacketTrace(packets)
        uplink = trace.only_direction(Direction.UPLINK)
        downlink = trace.only_direction(Direction.DOWNLINK)
        assert len(uplink) + len(downlink) == len(trace)
        assert uplink.total_bytes == trace.uplink_bytes
        assert downlink.total_bytes == trace.downlink_bytes

    @given(packets=packet_lists)
    def test_flows_partition_the_trace(self, packets):
        trace = PacketTrace(packets)
        flows = {flow: trace.only_flow(flow) for flow in trace.flow_ids}
        assert sum(len(sub) for sub in flows.values()) == len(trace)
        for flow, sub in flows.items():
            assert sub and all(p.flow_id == flow for p in sub)

    @given(packets=packet_lists, window=st.floats(min_value=10.0, max_value=500.0))
    def test_windows_partition_the_trace(self, packets, window):
        trace = PacketTrace(packets)
        # One spare edge, so a rounded product cannot end on the last packet.
        edges = [index * window
                 for index in range(int(trace.end_time // window) + 3)]
        windows = [trace.between(a, b) for a, b in zip(edges, edges[1:])]
        assert sum(len(w) for w in windows) == len(trace)
        for (a, b), sub in zip(zip(edges, edges[1:]), windows):
            assert trace.count_between(a, b) == len(sub)
            assert all(a <= p.timestamp < b for p in sub)

    @given(first=packet_lists, second=packet_lists)
    def test_merge_keeps_every_packet_and_separates_flows(self, first, second):
        a, b = PacketTrace(first), PacketTrace(second)
        merged = merge_traces([a, b])
        assert len(merged) == len(a) + len(b)
        assert merged.total_bytes == a.total_bytes + b.total_bytes
        assert len(merged.flow_ids) == len(a.flow_ids) + len(b.flow_ids)
        times = merged.timestamps
        assert all(y >= x for x, y in zip(times, times[1:]))

    @given(packets=packet_lists)
    def test_normalized_starts_at_zero_and_keeps_duration(self, packets):
        trace = PacketTrace(packets)
        normalized = trace.normalized()
        assert len(normalized) == len(trace)
        assert normalized.start_time == 0.0
        assert math.isclose(normalized.duration, trace.duration,
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(packets=packet_lists,
           time=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False))
    def test_next_packet_after_is_the_first_later_packet(self, packets, time):
        trace = PacketTrace(packets)
        later = [p for p in trace if p.timestamp > time]
        found = trace.next_packet_after(time)
        if later:
            assert found == later[0]
        else:
            assert found is None

    @given(packets=packet_lists)
    def test_pcap_round_trip_keeps_times_directions_and_sizes(self, packets):
        trace = PacketTrace(packets)
        buffer = io.BytesIO()
        write_pcap(buffer, trace)
        restored = read_pcap(io.BytesIO(buffer.getvalue()),
                             device_address="10.0.0.2")
        assert len(restored) == len(trace)
        # The reader starts the trace at its first record; both ends of an
        # offset are rounded to the microsecond.
        for original, recovered in zip(trace, restored):
            offset = original.timestamp - trace.start_time
            assert abs(recovered.timestamp - offset) <= 1e-6 + 1e-9
            assert recovered.direction is original.direction
            assert recovered.size == max(original.size, 28)


class TestStatisticsProperties:
    @given(samples=gap_lists)
    def test_cdf_is_monotone_and_bounded(self, samples):
        cdf = EmpiricalCdf(samples)
        points = sorted({0.0, min(samples), max(samples), sum(samples) / len(samples)})
        values = [cdf.cdf(p) for p in points]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(samples=gap_lists, q=st.floats(min_value=1.0, max_value=100.0))
    def test_percentile_is_an_observed_sample(self, samples, q):
        cdf = EmpiricalCdf(samples)
        assert cdf.percentile(q) in set(samples)

    @given(samples=gap_lists)
    def test_conditional_survival_in_unit_interval(self, samples):
        cdf = EmpiricalCdf(samples)
        value = cdf.conditional_survival(1.0, 2.0)
        assert 0.0 <= value <= 1.0

    @given(gaps=gap_lists)
    def test_sliding_window_never_exceeds_capacity(self, gaps):
        window = SlidingWindowDistribution(window_size=16)
        for gap in gaps:
            window.observe_gap(gap)
        assert window.sample_count <= 16
        assert window.samples == tuple(gaps[-16:])


class TestEnergyModelProperties:
    @given(carrier=carrier_keys,
           gaps=st.tuples(st.floats(min_value=0.0, max_value=120.0),
                          st.floats(min_value=0.0, max_value=120.0)))
    def test_tail_energy_is_monotone(self, carrier, gaps):
        model = TailEnergyModel(get_profile(carrier))
        low, high = sorted(gaps)
        assert model.tail_energy(low) <= model.tail_energy(high) + 1e-12

    @given(carrier=carrier_keys, gap=st.floats(min_value=0.0, max_value=120.0))
    def test_wait_energy_never_exceeds_tail_energy(self, carrier, gap):
        model = TailEnergyModel(get_profile(carrier))
        assert model.wait_energy(gap) <= model.tail_energy(gap) + 1e-12

    @given(carrier=carrier_keys)
    def test_threshold_consistent_with_switch_energy(self, carrier):
        model = TailEnergyModel(get_profile(carrier))
        threshold = model.t_threshold
        assert model.tail_energy(max(0.0, threshold - 1e-6)) <= model.switch_energy + 1e-9


class TestLearningProperties:
    loss_matrix = st.lists(
        st.lists(st.floats(min_value=0.0, max_value=5.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=4, max_size=4),
        min_size=1, max_size=30,
    )

    @given(losses=loss_matrix)
    def test_fixed_share_weights_remain_a_distribution(self, losses):
        learner = FixedShareExperts([1.0, 2.0, 3.0, 4.0], alpha=0.15)
        for row in losses:
            learner.update(row)
            assert math.isclose(sum(learner.weights), 1.0, rel_tol=1e-9)
            assert all(w >= 0.0 for w in learner.weights)

    @given(losses=loss_matrix)
    def test_learn_alpha_prediction_stays_in_expert_range(self, losses):
        learner = LearnAlpha([1.0, 2.0, 3.0, 4.0], alphas=[0.01, 0.2])
        for row in losses:
            value = learner.update(row)
            assert 1.0 - 1e-9 <= value <= 4.0 + 1e-9

    @given(bound=st.floats(min_value=0.0, max_value=20.0),
           offsets=st.lists(st.floats(min_value=0.0, max_value=20.0),
                            min_size=0, max_size=10))
    def test_loss_is_non_negative(self, bound, offsets):
        assert MakeActiveLoss()(bound, offsets) >= 0.0


class TestStateMachineProperties:
    event_times = st.lists(
        st.floats(min_value=0.0, max_value=2000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    )

    @given(carrier=carrier_keys, times=event_times)
    @settings(max_examples=50)
    def test_timeline_is_contiguous_and_complete(self, carrier, times):
        machine = RrcStateMachine(get_profile(carrier))
        ordered = sorted(times)
        for t in ordered:
            machine.notify_activity(t)
        end = ordered[-1] + 60.0
        machine.finish(end)
        total = sum(i.duration for i in machine.intervals)
        assert math.isclose(total, end, rel_tol=1e-9, abs_tol=1e-6)
        for previous, current in zip(machine.intervals, machine.intervals[1:]):
            assert math.isclose(previous.end, current.start, rel_tol=1e-9)

    @given(carrier=carrier_keys, times=event_times)
    @settings(max_examples=50)
    def test_switch_energy_is_non_negative(self, carrier, times):
        machine = RrcStateMachine(get_profile(carrier))
        for t in sorted(times):
            machine.notify_activity(t)
        machine.finish(sorted(times)[-1] + 30.0)
        assert all(s.energy_j >= 0.0 for s in machine.switches)


class TestSimulatorProperties:
    @given(carrier=carrier_keys, packets=packet_lists)
    @settings(max_examples=30, deadline=None)
    def test_any_trace_any_carrier_runs_and_balances(self, carrier, packets):
        profile = get_profile(carrier)
        trace = PacketTrace(packets)
        simulator = TraceSimulator(profile)
        result = simulator.run(trace, StatusQuoPolicy())
        breakdown = result.breakdown
        assert breakdown.total_j >= 0.0
        assert math.isclose(
            breakdown.total_j,
            breakdown.data_j + breakdown.active_tail_j + breakdown.high_idle_tail_j
            + breakdown.idle_j + breakdown.switch_j,
            rel_tol=1e-9, abs_tol=1e-9,
        )
        assert len(result.effective_trace) == len(trace)

    @given(carrier=carrier_keys, packets=packet_lists,
           timeout=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_fixed_timer_never_loses_packets(self, carrier, packets, timeout):
        profile = get_profile(carrier)
        trace = PacketTrace(packets)
        result = TraceSimulator(profile).run(trace, FixedTimerPolicy(timeout))
        assert len(result.effective_trace) == len(trace)
        assert result.effective_trace.total_bytes == trace.total_bytes

    @given(carrier=carrier_keys, packets=packet_lists)
    @settings(max_examples=30, deadline=None)
    def test_oracle_never_worse_than_status_quo(self, carrier, packets):
        profile = get_profile(carrier)
        trace = PacketTrace(packets)
        simulator = TraceSimulator(profile)
        baseline = simulator.run(trace, StatusQuoPolicy())
        oracle = simulator.run(trace, OraclePolicy())
        # The oracle applies the offline-optimal rule per gap, so it can never
        # consume meaningfully more than the status quo (tiny tolerance for
        # the trailing-tail edge at the end of the trace).
        assert oracle.total_energy_j <= baseline.total_energy_j * 1.01 + 1e-6
