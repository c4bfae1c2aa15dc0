"""The vector kernel's shard layout: columnar batches, segmented folds, errors.

A vector shard drains all its devices into flat packet columns delimited
by offsets (DESIGN.md §2.3) and computes folds and boundary masks once per
batch.  These tests pin what that layout must not change:

* the segmented left fold is ``float.hex``-equal to each device's own
  strict left fold, for ragged lengths across every bucket edge;
* stream errors keep their per-device texts and their shard order — the
  first faulty device raises, its order error before its handover error;
* shards that mix constant waits, hold no packets at all, single-packet
  devices or packet-less visits, and shards split into many batches, are
  equal to the forced-scalar run, and a load-aware shard, whose answers
  read every device's switches, drains as one batch;
* a metro of MakeIdle UEs, whose per-packet waits vary and whose stale
  dormancies outlive their departures, is equal to its forced-scalar run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PolicySpec
from repro.api.cells import cell
from repro.api.metro import MetroRunSpec, execute_metro, metro
from repro.basestation import (
    AcceptAllDormancy,
    CellSimulator,
    LoadAwareDormancy,
)
from repro.basestation.cell import DeviceSpec
from repro.core import (
    FixedTimerPolicy,
    MakeIdlePolicy,
    PercentileIatPolicy,
    StatusQuoPolicy,
)
from repro.rrc.profiles import get_profile
from repro.sim import vector_engine
from repro.sim.engine import StreamOrderError
from repro.metro import windowed_stream
from repro.traces import Direction, Packet, PacketTrace
from repro.traces.streaming import (
    stream_application_packets,
    stream_user_day_packets,
)

from .test_vector_backend import _shard_view

np = pytest.importorskip("numpy")

#: Lengths on both sides of every power-of-two bucket edge up to 300.
_EDGE_LENGTHS = sorted({0, 300} | {
    edge + step for edge in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    for step in (-1, 0, 1)
})


def _packets(*stamps: float) -> list[Packet]:
    return [Packet(t, 100 + 10 * k, Direction.UPLINK if k % 2 else
                   Direction.DOWNLINK)
            for k, t in enumerate(stamps)]


class _RawBlocks:
    """A block source that, unlike a ``PacketTrace``, does not sort."""

    def __init__(self, *stamps: float) -> None:
        self._packets = _packets(*stamps)

    def packet_blocks(self):
        yield self._packets


def _both_kernels(scalar_kernel, build, profile="att_hspa",
                  station=AcceptAllDormancy):
    """Run ``build()``'s devices forced-scalar and auto-selected.

    ``station()`` makes each run's base station.
    """
    results = {}
    for kernel, context in (("scalar", scalar_kernel),
                            ("vector", contextlib.nullcontext)):
        simulator = CellSimulator(get_profile(profile), station(),
                                  load_sample_interval_s=7.0)
        with context():
            results[kernel] = simulator.run(build())
    return results["scalar"], results["vector"]


class TestSegmentLeftFold:
    @staticmethod
    def _fold(segments):
        values = np.array([v for seg in segments for v in seg],
                          dtype=np.float64)
        counts = np.array([len(seg) for seg in segments], dtype=np.int64)
        starts = np.zeros(len(segments), dtype=np.int64)
        position = 0
        for index, seg in enumerate(segments):
            starts[index] = position
            position += len(seg)
        (folded,) = vector_engine._segment_left_fold((values,), starts,
                                                     counts)
        return folded.tolist()

    @staticmethod
    def _assert_strict_left_folds(segments, folded):
        assert len(folded) == len(segments)
        for seg, got in zip(segments, folded):
            total = 0.0
            for value in seg:
                total += value
            assert got.hex() == total.hex()
            if seg:
                reference = float(np.add.accumulate(
                    np.array(seg, dtype=np.float64))[-1])
                assert got.hex() == reference.hex()

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(
            st.one_of(st.integers(min_value=0, max_value=300),
                      st.sampled_from(_EDGE_LENGTHS)),
            min_size=1, max_size=40,
        ),
        data=st.data(),
    )
    def test_equals_each_devices_left_fold(self, lengths, data):
        values = st.one_of(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
                      allow_infinity=False),
            st.sampled_from((0.0, 5e-324, 0.1, 1e-9, 3.0e8)),
        )
        segments = [data.draw(st.lists(values, min_size=n, max_size=n))
                    for n in lengths]
        self._assert_strict_left_folds(segments, self._fold(segments))

    def test_every_bucket_edge(self):
        segments = [[0.1 * (k + 1) + 1e-3 * n for k in range(n)]
                    for n in _EDGE_LENGTHS]
        self._assert_strict_left_folds(segments, self._fold(segments))

    def test_no_devices(self):
        assert self._fold([]) == []


class TestStreamErrors:
    @staticmethod
    def _run(traces, detach=None):
        detach = detach or {}
        devices = [
            DeviceSpec(device_id=index, trace=trace,
                       policy=FixedTimerPolicy(timeout=4.5),
                       detach_at=detach.get(index))
            for index, trace in enumerate(traces)
        ]
        assert vector_engine.use_vector_kernel(
            AcceptAllDormancy(), [spec.policy for spec in devices])
        return CellSimulator(get_profile("att_hspa")).run_shard(devices)

    def _faults(self, order_ue, handover_ue, count=7):
        traces = []
        for index in range(count):
            if index == order_ue:
                traces.append(_RawBlocks(5.0, 30.0, 10.0))
            else:
                traces.append(PacketTrace(_packets(1.0, 2.0, 50.0)))
        return traces, {handover_ue: 20.0}

    def test_first_faulty_device_in_shard_order_raises(self):
        traces, detach = self._faults(order_ue=3, handover_ue=5)
        with pytest.raises(StreamOrderError) as caught:
            self._run(traces, detach)
        assert str(caught.value) == (
            "packet stream for UE 3 is not time-ordered: 10.0 after 30.0")

    def test_earlier_handover_fault_raises_first(self):
        traces, detach = self._faults(order_ue=5, handover_ue=3)
        with pytest.raises(RuntimeError) as caught:
            self._run(traces, detach)
        assert str(caught.value) == (
            "UE 3: packet at 50.0 is not strictly before its departure at "
            "20.0 (handover contract)")

    def test_order_error_wins_on_one_device(self):
        traces, detach = self._faults(order_ue=4, handover_ue=4)
        with pytest.raises(StreamOrderError, match="UE 4 is not time-ordered"):
            self._run(traces, detach)

    def test_handover_contract(self):
        traces = [PacketTrace(_packets(0.0, 5.0)),
                  PacketTrace(_packets(0.0, 10.0))]
        with pytest.raises(RuntimeError) as caught:
            self._run(traces, {1: 10.0})
        assert not isinstance(caught.value, StreamOrderError)
        assert str(caught.value) == (
            "UE 1: packet at 10.0 is not strictly before its departure at "
            "10.0 (handover contract)")

    def test_gap_across_devices_is_not_an_order_fault(self):
        """Device 1 starts before device 0 ends: a cross-device gap."""
        shard = self._run([PacketTrace(_packets(1.0, 90.0)),
                           PacketTrace(_packets(0.0, 2.0))])
        assert shard.devices.column("packets").tolist() == [2, 2]

    def test_first_packet_before_zero(self):
        """Duck-typed packets skip ``Packet``'s own timestamp check."""
        late = SimpleNamespace(timestamp=1.0, size=10,
                               direction=Direction.UPLINK)
        early = SimpleNamespace(timestamp=-1.0, size=10,
                                direction=Direction.UPLINK)
        traces = [PacketTrace(_packets(1.0)), [early, late]]
        with pytest.raises(StreamOrderError) as caught:
            self._run(traces)
        assert str(caught.value) == (
            "packet stream for UE 1 is not time-ordered: -1.0 after 0.0")

    def test_fault_in_a_later_batch(self, monkeypatch):
        monkeypatch.setattr(vector_engine, "_PACKET_BUDGET", 4)
        traces, detach = self._faults(order_ue=5, handover_ue=6)
        with pytest.raises(StreamOrderError, match="UE 5 is not"):
            self._run(traces, detach)


class TestShardShapes:
    def test_mixed_waits_match_scalar(self, scalar_kernel):
        """status_quo (no wait), fixed_4.5s and p95_iat (trained) devices."""

        def build():
            return [
                DeviceSpec(
                    device_id=index,
                    trace=PacketTrace(stream_application_packets(
                        ("im", "email", "news")[index % 3], duration=600.0,
                        seed=index, chunk_s=60.0)),
                    policy=(StatusQuoPolicy(), FixedTimerPolicy(timeout=4.5),
                            PercentileIatPolicy())[index % 3],
                )
                for index in range(12)
            ]

        scalar, vector = _both_kernels(scalar_kernel, build)
        assert vector == scalar
        assert vector.vector_devices == 12
        specs = build()
        for spec in specs:
            spec.policy.prepare(spec.trace, get_profile("att_hspa"))
        waits = {vector_engine._constant_wait(spec.policy) for spec in specs}
        assert None in waits and 4.5 in waits
        assert len(waits) >= 3  # plus the trained percentiles

    @pytest.mark.parametrize("budget", (1, 3, 64))
    def test_any_batch_split_matches_scalar(self, budget, scalar_kernel,
                                            monkeypatch):
        """Under each station; a load-aware shard drains as one batch
        whatever the budget."""
        monkeypatch.setattr(vector_engine, "_PACKET_BUDGET", budget)

        def build():
            return [
                DeviceSpec(
                    device_id=index,
                    trace=PacketTrace(stream_application_packets(
                        ("im", "email")[index % 2], duration=300.0,
                        seed=index, chunk_s=60.0)),
                    policy=FixedTimerPolicy(timeout=(0.0, 4.5)[index % 2]),
                )
                for index in range(10)
            ]

        for station in (AcceptAllDormancy,
                        lambda: LoadAwareDormancy(max_switches_per_minute=30)):
            scalar, vector = _both_kernels(scalar_kernel, build,
                                           station=station)
            assert vector == scalar
            assert vector.vector_devices == 10
        # The load-aware station grants 68 of 245 requests here.
        assert 0 < vector.dormancy_denied < vector.dormancy_requests

    def test_batches_respect_the_packet_budget(self, monkeypatch):
        """A batch stops taking devices once it holds the budget."""
        monkeypatch.setattr(vector_engine, "_PACKET_BUDGET", 8)
        drain = vector_engine._drain
        batches = []

        def spy(devices, first, budget):
            stop, columns = drain(devices, first, budget)
            offsets = columns[3].tolist()
            batches.append([b - a for a, b in zip(offsets, offsets[1:])])
            return stop, columns

        monkeypatch.setattr(vector_engine, "_drain", spy)
        lengths = (3, 0, 5, 1, 9, 2, 2, 2, 4, 0, 1)
        devices = [
            DeviceSpec(device_id=index,
                       trace=PacketTrace(_packets(*(0.5 + 7.0 * k
                                                    for k in range(n)))),
                       policy=FixedTimerPolicy(timeout=4.5))
            for index, n in enumerate(lengths)
        ]
        shard = CellSimulator(get_profile("att_hspa")).run_shard(devices)
        assert shard.devices.column("packets").tolist() == list(lengths)
        assert [n for batch in batches for n in batch] == list(lengths)
        for batch in batches:
            # Every device but the last was taken below the budget.
            assert sum(batch[:-1]) < 8
        assert len(batches) == 4

    def test_window_reading_shard_is_one_batch(self, monkeypatch):
        """An answer can depend on a switch of any device, so a load-aware
        shard ignores the packet budget."""
        monkeypatch.setattr(vector_engine, "_PACKET_BUDGET", 1)
        drain = vector_engine._drain
        stops = []

        def spy(devices, first, budget):
            stop, columns = drain(devices, first, budget)
            stops.append((first, stop))
            return stop, columns

        monkeypatch.setattr(vector_engine, "_drain", spy)
        devices = [
            DeviceSpec(device_id=index,
                       trace=PacketTrace(_packets(*(0.5 + 7.0 * k + index
                                                    for k in range(4)))),
                       policy=FixedTimerPolicy(timeout=0.5))
            for index in range(5)
        ]
        shard = CellSimulator(
            get_profile("att_hspa"),
            LoadAwareDormancy(max_switches_per_minute=3)).run_shard(devices)
        assert stops == [(0, 5)]
        assert shard.vector_devices == 5
        assert 0 < shard.devices.column("dormancy_denied").sum() < 20

    def test_all_empty_shard(self, scalar_kernel):
        def build():
            return [DeviceSpec(device_id=index, trace=PacketTrace(),
                               policy=FixedTimerPolicy(timeout=4.5),
                               attach_at=float(index))
                    for index in range(4)]

        scalar, vector = _both_kernels(scalar_kernel, build)
        assert vector == scalar
        assert vector.vector_devices == 4
        assert vector.load_samples == ()

    def test_single_packet_devices(self, scalar_kernel):
        def build():
            return [DeviceSpec(device_id=index,
                               trace=PacketTrace(_packets(0.5 * index)),
                               policy=(StatusQuoPolicy(),
                                       FixedTimerPolicy(timeout=0.0),
                                       FixedTimerPolicy(timeout=4.5))[index % 3])
                    for index in range(6)]

        for profile in ("att_hspa", "vzw_lte"):
            scalar, vector = _both_kernels(scalar_kernel, build, profile)
            assert vector == scalar
            assert vector.vector_devices == 6

    def test_stale_dormancy_extends_a_departed_horizon(self, scalar_kernel):
        """A MakeIdle UE decides a 1.04 s wait at 36.05 s and none at its
        last packet (36.25 s), then departs at 36.3 s.  The stale dormancy
        still pops at 37.09 s, after the timer's last pop (36.6 s), so the
        sample chain reaches 54.9 s: the horizon is ``max_k(t_k + w_k)``,
        not ``t_last + w_last``."""
        times = (0.0, 20.0, 26.0, 30.0, 34.0, 34.2, 34.25, 35.05, 36.05,
                 36.25)
        results = {}
        for kernel, context in (("scalar", scalar_kernel),
                                ("vector", contextlib.nullcontext)):
            policy = MakeIdlePolicy(window_size=5, min_samples=2)
            device = DeviceSpec(0, PacketTrace(_packets(*times)), policy,
                                detach_at=36.3)
            simulator = CellSimulator(get_profile("att_hspa"),
                                      AcceptAllDormancy(),
                                      load_sample_interval_s=18.3)
            with context():
                results[kernel] = simulator.run([device])
            assert [d.wait for d in policy.wait_history[-2:]] == [
                1.0442377064742738, None]
        assert results["vector"] == results["scalar"]
        assert results["vector"].vector_devices == 1
        assert [s.time for s in results["vector"].load_samples] == [
            18.3, 36.6, 36.6 + 18.3]

    def test_packetless_devices_with_and_without_departure(self,
                                                           scalar_kernel):
        def build():
            return [
                DeviceSpec(0, PacketTrace(_packets(1.0, 3.0, 40.0)),
                           FixedTimerPolicy(timeout=4.5)),
                DeviceSpec(1, PacketTrace(), FixedTimerPolicy(timeout=4.5)),
                DeviceSpec(2, PacketTrace(), StatusQuoPolicy(),
                           attach_at=5.0, detach_at=30.0),
                DeviceSpec(3, PacketTrace(), FixedTimerPolicy(timeout=4.5),
                           attach_at=12.5),
                DeviceSpec(4, PacketTrace(_packets(20.0, 21.0)),
                           FixedTimerPolicy(timeout=4.5),
                           attach_at=10.0, detach_at=60.0),
            ]

        scalar, vector = _both_kernels(scalar_kernel, build)
        assert vector == scalar
        assert vector.vector_devices == 5


def _generated_devices():
    """Chunked, user-day and windowed devices, each kind under a policy."""
    chunked = [
        DeviceSpec(device_id=index,
                   trace=stream_application_packets(
                       ("im", "news", "social")[index % 3], duration=900.0,
                       seed=index, chunk_s=300.0),
                   policy=FixedTimerPolicy(timeout=4.5))
        for index in range(6)
    ]
    user_day = [
        DeviceSpec(device_id=6 + index,
                   trace=stream_user_day_packets(
                       ("im", "news", "finance"), duration=900.0, seed=index,
                       chunk_s=300.0),
                   policy=MakeIdlePolicy(window_size=20, min_samples=5))
        for index in range(3)
    ]
    windowed = [
        DeviceSpec(device_id=9 + index,
                   trace=windowed_stream(stream_application_packets(
                       "im", duration=900.0, seed=20 + index, chunk_s=120.0),
                       100.0, 700.0),
                   policy=StatusQuoPolicy(), attach_at=100.0,
                   detach_at=700.0)
        for index in range(3)
    ]
    return chunked + user_day + windowed


class TestColumnDrain:
    """Generated streams reach the vector kernel as column blocks."""

    def test_vector_shard_builds_no_packet(self, monkeypatch):
        devices = _generated_devices()

        def refuse(packet):
            raise AssertionError(f"a Packet was built at {packet.timestamp}")

        monkeypatch.setattr(Packet, "__post_init__", refuse)
        shard = CellSimulator(get_profile("att_hspa"), AcceptAllDormancy(),
                              load_sample_interval_s=5.0).run_shard(devices)
        assert shard.vector_devices == len(devices)
        assert all(shard.devices.column("packets").tolist())

    def test_generated_shard_matches_scalar(self, scalar_kernel):
        views = {}
        for kernel, context in (("scalar", scalar_kernel),
                                ("vector", contextlib.nullcontext)):
            simulator = CellSimulator(get_profile("att_hspa"),
                                      AcceptAllDormancy(),
                                      load_sample_interval_s=5.0)
            with context():
                views[kernel] = _shard_view(
                    simulator.run_shard(_generated_devices()))
        assert views["vector"] == views["scalar"]

    def test_window_over_packet_blocks_source(self, scalar_kernel):
        """A source with only ``packet_blocks()`` drains through them."""

        def build():
            return [
                DeviceSpec(device_id=index,
                           trace=windowed_stream(
                               _RawBlocks(1.0, 2.5, 9.0, 30.0, 31.0, 80.0),
                               2.5, 80.0),
                           policy=FixedTimerPolicy(timeout=(0.0, 4.5)[index]),
                           attach_at=2.5, detach_at=80.0)
                for index in range(2)
            ]

        assert not hasattr(build()[0].trace, "column_blocks")
        scalar, vector = _both_kernels(scalar_kernel, build)
        assert vector == scalar
        assert vector.vector_devices == 2
        assert [device.packets for device in vector.devices] == [4, 4]

    @pytest.mark.parametrize("scheme", ("fixed_4.5s", "makeidle"))
    def test_office_day_shard_matches_scalar(self, scheme, scalar_kernel):
        population = cell(devices=60, scenario="office_day", duration=900.0,
                          seed=4)
        policy = PolicySpec(scheme=scheme).resolved(100)
        shards = {}
        for kernel, context in (("scalar", scalar_kernel),
                                ("vector", contextlib.nullcontext)):
            simulator = CellSimulator(get_profile("att_hspa"),
                                      AcceptAllDormancy(),
                                      load_sample_interval_s=5.0)
            with context():
                shards[kernel] = simulator.run_shard(
                    population.build_devices(policy, 10, 50))
        assert shards["vector"].vector_devices == 40
        assert _shard_view(shards["vector"]) == _shard_view(shards["scalar"])


class TestMetroMakeIdle:
    """MakeIdle UEs crossing ``metro_4cell``: the accept-all cells replay
    each visit's wait sequence, and a departed UE's load-sample horizon
    is its latest scheduled dormancy ``max_k(t_k + w_k)``, not the one
    after its last packet."""

    @staticmethod
    def _without_vector_counts(result):
        return dataclasses.replace(result, cells=tuple(
            dataclasses.replace(entry, result=dataclasses.replace(
                entry.result, vector_devices=0))
            for entry in result.cells
        ))

    @pytest.mark.parametrize("blocks", (1, 3))
    def test_matches_the_scalar_kernel(self, blocks, scalar_kernel):
        spec = MetroRunSpec(
            metro=metro("metro_4cell", devices=600, duration=1800.0,
                        seed=3, chunk_s=300.0),
            carrier="att_hspa",
            policy=PolicySpec(scheme="makeidle").resolved(100),
            shards=blocks,
        )
        with scalar_kernel():
            scalar = execute_metro(spec)
        auto = execute_metro(spec)
        assert auto == scalar
        assert pickle.dumps(self._without_vector_counts(auto)) == (
            pickle.dumps(scalar))
        assert sum(entry.result.vector_devices for entry in auto.cells) > 0
        assert auto.handovers > 0
