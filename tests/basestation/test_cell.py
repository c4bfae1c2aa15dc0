"""Tests for the multi-device cell simulation."""

import pytest

from repro.basestation import (
    AcceptAllDormancy,
    CellSimulator,
    DeviceSpec,
    RejectAllDormancy,
)
from repro.api import SerialRunner, plan
from repro.api.cells import cell, dormancy
from repro.api.metro import metro
from repro.basestation.policies import RateLimitedDormancy
from repro.core import (
    CombinedPolicy,
    FixedDelayMakeActive,
    MakeIdlePolicy,
    StatusQuoPolicy,
)
from repro.core.controller import build_scheme
from repro.metrics.switches import peak_per_window
from repro.sim import TraceSimulator
from repro.traces import (
    Packet,
    PacketTrace,
    generate_application_trace,
    stream_application_packets,
)


def _devices(count, app="im", policy_factory=MakeIdlePolicy, duration=900.0):
    return [
        DeviceSpec(
            device_id=index,
            trace=generate_application_trace(app, duration=duration, seed=index),
            policy=policy_factory(),
        )
        for index in range(count)
    ]


class TestDeviceSpec:
    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            DeviceSpec(device_id=-1, trace=generate_application_trace("im", 60.0),
                       policy=StatusQuoPolicy())


class TestCellSimulator:
    @pytest.mark.parametrize("scheme", ("oracle", "p95_iat"))
    def test_shared_offline_policy_instance_is_refused(self, att_profile,
                                                      scheme):
        # An offline policy stores what prepare() read from its device's
        # trace; a second device's prepare() would overwrite it.
        shared = build_scheme(scheme)
        devices = [
            DeviceSpec(device_id=device_id,
                       trace=generate_application_trace(app, duration=300.0,
                                                        seed=device_id),
                       policy=shared)
            for device_id, app in ((3, "im"), (8, "email"))
        ]
        with pytest.raises(ValueError, match="devices 3 and 8 share one"):
            CellSimulator(att_profile).run(devices)

    def test_requires_devices_and_unique_ids(self, att_profile):
        simulator = CellSimulator(att_profile)
        with pytest.raises(ValueError):
            simulator.run([])
        duplicated = _devices(1) + _devices(1)
        with pytest.raises(ValueError):
            simulator.run(duplicated)

    def test_accept_all_matches_single_device_simulator_energy(self, att_profile):
        # With a single device and always-accept dormancy, the cell
        # simulation should closely track the single-device simulator.
        trace = generate_application_trace("im", duration=900.0, seed=3)
        cell = CellSimulator(att_profile, AcceptAllDormancy())
        cell_result = cell.run(
            [DeviceSpec(device_id=0, trace=trace, policy=MakeIdlePolicy())]
        )
        single = TraceSimulator(att_profile).run(trace, MakeIdlePolicy())
        assert cell_result.devices[0].total_energy_j == pytest.approx(
            single.total_energy_j, rel=0.15
        )

    def test_status_quo_devices_issue_no_requests(self, att_profile):
        cell = CellSimulator(att_profile)
        result = cell.run(_devices(3, policy_factory=StatusQuoPolicy, duration=600.0))
        assert result.dormancy_requests == 0
        assert result.denial_rate == 0.0

    def test_makeidle_devices_request_dormancy(self, att_profile):
        cell = CellSimulator(att_profile, AcceptAllDormancy())
        result = cell.run(_devices(3, duration=600.0))
        assert result.dormancy_requests > 0
        assert result.dormancy_denied == 0
        assert result.dormancy_policy_name == "accept_all"

    def test_reject_all_costs_energy(self, att_profile):
        devices = _devices(2, duration=600.0)
        accept = CellSimulator(att_profile, AcceptAllDormancy()).run(devices)
        reject = CellSimulator(att_profile, RejectAllDormancy()).run(devices)
        assert reject.dormancy_denied == reject.dormancy_requests
        assert reject.total_energy_j >= accept.total_energy_j

    def test_rate_limiting_denies_some_requests(self, att_profile):
        devices = _devices(2, app="finance", duration=300.0)
        limited = CellSimulator(
            att_profile, RateLimitedDormancy(min_interval_s=120.0)
        ).run(devices)
        accept = CellSimulator(att_profile, AcceptAllDormancy()).run(devices)
        if accept.dormancy_requests > 1:
            assert limited.dormancy_denied > 0
            assert 0.0 < limited.denial_rate <= 1.0

    def test_aggregate_views(self, att_profile):
        result = CellSimulator(att_profile).run(_devices(3, duration=600.0))
        assert result.total_energy_j == pytest.approx(
            sum(d.total_energy_j for d in result.devices)
        )
        assert result.peak_active_devices >= 1
        assert result.peak_active_devices <= 3
        assert result.signaling.switches == result.total_switches
        assert result.peak_switches_per_minute >= 1
        assert result.device(1).device_id == 1
        with pytest.raises(KeyError):
            result.device(99)

    def test_per_device_denial_rate(self, att_profile):
        result = CellSimulator(att_profile, RejectAllDormancy()).run(
            _devices(1, duration=600.0)
        )
        device = result.devices[0]
        if device.dormancy_requests:
            assert device.denial_rate == 1.0
        assert device.policy_name == "makeidle"


class TestMakeActiveInCell:
    """The kernel gives cell devices the full MakeActive buffering path."""

    def _trace(self):
        # Two late sessions on fresh flows while the radio is Idle: a
        # MakeActive device buffers them and promotes once for both.
        return PacketTrace(
            [
                Packet(0.0, 100, flow_id=1),
                Packet(100.0, 100, flow_id=2),
                Packet(102.0, 100, flow_id=3),
            ]
        )

    def _policy(self, bound=5.0):
        return CombinedPolicy(
            MakeIdlePolicy(window_size=20), FixedDelayMakeActive(delay_bound=bound)
        )

    def test_buffering_works_under_denying_dormancy_policy(self, att_profile):
        # MakeActive batching is a device-local decision: it must function
        # even when the base station denies every fast-dormancy request.
        cell = CellSimulator(att_profile, RejectAllDormancy())
        result = cell.run(
            [DeviceSpec(device_id=0, trace=self._trace(), policy=self._policy())]
        )
        device = result.devices[0]
        # Both late sessions were held and released together at 105.0 (the
        # initial session at t=0 is buffered too, for its full 5 s bound).
        late = sorted(d.delay for d in device.session_delays
                      if d.arrival_time > 50.0)
        assert late == [pytest.approx(3.0), pytest.approx(5.0)]
        assert device.mean_session_delay_s == pytest.approx((5.0 + 3.0 + 5.0) / 3)
        # Denials happened, proving the base-station arbiter was active.
        assert device.dormancy_denied == device.dormancy_requests

    def test_batched_sessions_promote_once(self, att_profile):
        cell_result = CellSimulator(att_profile, AcceptAllDormancy()).run(
            [DeviceSpec(device_id=0, trace=self._trace(), policy=self._policy())]
        )
        single = TraceSimulator(att_profile).run(self._trace(), self._policy())
        # The cell device behaves exactly like the single-UE simulator:
        # same energy, same promotion count (one shared promotion at 105).
        assert cell_result.devices[0].total_energy_j == pytest.approx(
            single.total_energy_j
        )
        assert cell_result.devices[0].breakdown.promotions == \
            single.breakdown.promotions

    def test_cell_energy_matches_single_ue_exactly(self, att_profile):
        # With always-accept dormancy the cell façade and the single-UE
        # façade run the same kernel: energies agree to the float.
        trace = generate_application_trace("im", duration=600.0, seed=5)
        cell = CellSimulator(att_profile, AcceptAllDormancy()).run(
            [DeviceSpec(device_id=0, trace=trace,
                        policy=MakeIdlePolicy(window_size=30))]
        )
        single = TraceSimulator(att_profile).run(
            trace, MakeIdlePolicy(window_size=30)
        )
        assert cell.devices[0].total_energy_j == pytest.approx(
            single.total_energy_j, rel=1e-12
        )


class TestStreamingCell:
    def test_streamed_devices_run_in_bounded_memory(self, att_profile):
        devices = [
            DeviceSpec(
                device_id=index,
                trace=stream_application_packets(
                    "im", duration=300.0, seed=index, chunk_s=60.0
                ),
                policy=MakeIdlePolicy(window_size=20),
            )
            for index in range(10)
        ]
        result = CellSimulator(att_profile).run(devices)
        assert result.total_packets > 0
        assert len(result.devices) == 10
        assert result.total_energy_j > 0.0
        assert result.peak_active_devices <= 10

    def test_load_samples_recorded_at_interval(self, att_profile):
        devices = _devices(3, duration=300.0)
        result = CellSimulator(
            att_profile, AcceptAllDormancy(), load_sample_interval_s=60.0
        ).run(devices)
        assert result.load_samples
        times = [s.time for s in result.load_samples]
        assert times == sorted(times)
        for sample in result.load_samples:
            assert 0 <= sample.active_devices <= 3

    def test_unordered_stream_rejected(self, att_profile):
        backwards = [Packet(10.0, 100), Packet(5.0, 100)]
        spec = DeviceSpec(device_id=0, trace=iter(backwards),
                          policy=StatusQuoPolicy())
        with pytest.raises(ValueError):
            CellSimulator(att_profile).run([spec])


def _assert_time_ordered(results):
    timelines = [list(result.switch_times) for result in results]
    assert any(timelines)
    for result, times in zip(results, timelines):
        assert times == sorted(times)
        # The sorting sweep agrees with the stored, presorted one.
        assert result.peak_switches_per_minute == peak_per_window(times, 60.0)


class TestSwitchTimeline:
    """``switch_times`` is time-ordered, so the stored peak skips a sort."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_cell_timelines_are_time_ordered(self, shards):
        runs = SerialRunner().run(
            plan()
            .cells(cell(devices=30, scenario="office_day", duration=600.0,
                        seed=11))
            .carriers("att_hspa")
            .policies("status_quo", "makeidle")
            .shards(shards)
        )
        _assert_time_ordered([record.result for record in runs.records])

    def test_metro_cell_timelines_are_time_ordered(self):
        runs = SerialRunner().run(
            plan()
            .metros(metro("metro_4cell", devices=40, duration=180.0, seed=3,
                          chunk_s=60.0))
            .carriers("att_hspa")
            .policies("makeidle")
        )
        _assert_time_ordered([entry.result for record in runs.records
                              for entry in record.result.cells])


class TestLoadAwareCell:
    """A load-aware cell whose answers depend on the live switch window."""

    #: Per device: (dormancy_granted, dormancy_denied, float.hex energy).
    #: The email devices send nothing in 300 s and never ask.
    PINNED = (
        (9, 11, "0x1.4e59770cb098ep+7"),
        (0, 0, "0x0.0p+0"),
        (11, 11, "0x1.6a41a7aec57a9p+7"),
        (0, 0, "0x0.0p+0"),
        (10, 11, "0x1.517c70fb3c735p+7"),
        (0, 0, "0x0.0p+0"),
        (12, 13, "0x1.6acac7bc9d2f4p+7"),
        (0, 0, "0x0.0p+0"),
        (13, 12, "0x1.71b0827d563d8p+7"),
        (1, 0, "0x1.7645185cf075ep+2"),
        (11, 12, "0x1.6b613f0c2ce81p+7"),
        (0, 0, "0x0.0p+0"),
    )

    def test_pinned_grants_and_denials(self):
        runs = SerialRunner().run(
            plan()
            .cells(cell(devices=12, apps=("im", "email"), duration=300.0,
                        seed=3))
            .carriers("att_hspa")
            .policies("fixed_4.5s")
            .dormancy(dormancy("load_aware", 30))
        )
        (record,) = runs.records
        result = record.result
        assert result.vector_devices == 12  # the switch window is replayed
        assert (result.dormancy_requests, result.dormancy_denied) == (137, 70)
        assert tuple(
            (device.dormancy_granted, device.dormancy_denied,
             device.total_energy_j.hex())
            for device in result.devices
        ) == self.PINNED
