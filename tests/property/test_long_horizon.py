"""Long-horizon float robustness: week-long runs and large absolute times.

Two fragilities this suite pins down (PR 5 satellites):

* **Week-long shard byte-identity** — the shard merge replays the
  single-process close (``_close_columns``) as plain float arithmetic; at
  ``t ≥ 604800 s`` the absolute times are ~2^19, so any hidden reliance
  on small-magnitude cancellation would surface as per-device drift
  between shard counts.  The property here holds K ∈ {1, 5} byte-equal
  over a full simulated week.  (It passes with plain summation — the
  merge performs the *same* float operations in the same order, so no
  compensated summation is needed in ``_close_columns``; if this test
  ever fails after a refactor, Kahan-compensate the close instead of
  widening the tolerance.)

* **Diurnal-envelope evaluation at day multiples** — ``DiurnalShape``
  folds absolute stream time with ``time % 86400.0``.  IEEE-754 ``fmod``
  is exact and hour marks divide the day exactly, so the envelope must
  be *exactly* periodic at whole-hour offsets however many days in; and
  a flat (identity) envelope must leave streamed workloads byte-identical
  to the un-shaped generator at any horizon.
"""

from __future__ import annotations

import pytest

from repro.basestation.cell import CellSimulator, DeviceSpec, merge_cell_shards
from repro.core import FixedTimerPolicy
from repro.rrc.profiles import get_profile
from repro.scenarios.shapes import EVENING_PEAK, FLAT, OFFICE_HOURS
from repro.traces.streaming import stream_application_packets
from repro.traces.synthetic import ApplicationProfile, PacketTrainSpec

WEEK_S = 604_800.0
DAY_S = 86_400.0

#: A deliberately sparse application so a simulated week stays a
#: few-thousand-packet test, not a benchmark: one small request/response
#: train roughly every hour.
SPARSE_APP = ApplicationProfile(
    name="sparse_sync",
    description="hourly background sync (long-horizon test workload)",
    session_gap=lambda rng: rng.uniform(3000.0, 4200.0),
    trains=(PacketTrainSpec(uplink_packets=1, downlink_packets=3),),
    flows=1,
)


def _week_devices(count: int = 5) -> list[DeviceSpec]:
    return [
        DeviceSpec(
            device_id=index,
            trace=stream_application_packets(
                SPARSE_APP, duration=WEEK_S, seed=1000 + index,
                chunk_s=DAY_S,
            ),
            policy=FixedTimerPolicy(3.0),
        )
        for index in range(count)
    ]


class TestWeekLongShardByteIdentity:
    @pytest.mark.parametrize("shards", [1, 5])
    def test_week_long_run_is_shard_invariant(self, shards):
        profile = get_profile("att_hspa")
        reference = CellSimulator(profile).run(_week_devices())

        devices = _week_devices()
        bounds = [(i * len(devices)) // shards for i in range(shards + 1)]
        partials = [
            CellSimulator(profile).run_shard(devices[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        merged = merge_cell_shards(partials)

        assert merged.duration_s == reference.duration_s  # exact, not approx
        assert merged.devices == reference.devices        # byte-identical
        assert merged.signaling == reference.signaling
        assert merged.switch_times == reference.switch_times

    def test_week_long_run_covers_a_week(self):
        profile = get_profile("att_hspa")
        result = CellSimulator(profile).run(_week_devices(2))
        assert result.duration_s >= WEEK_S * 0.95
        assert result.total_packets > 500


class TestDiurnalShapeLargeTimes:
    @pytest.mark.parametrize("shape", [FLAT, OFFICE_HOURS, EVENING_PEAK],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("days", [0, 1, 7, 30, 365, 10_000])
    def test_exact_day_multiples_wrap_to_hour_zero(self, shape, days):
        assert shape.rate_at(days * DAY_S) == shape.rate_at(0.0)

    @pytest.mark.parametrize("shape", [OFFICE_HOURS, EVENING_PEAK],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("days", [1, 7, 365, 10_000])
    def test_whole_hour_offsets_are_exactly_periodic(self, shape, days):
        offset = days * DAY_S
        for start_hour, multiplier in shape.segments:
            at = offset + start_hour * 3600.0
            # Segment starts are whole or half hours: both divide the day
            # exactly in binary, so the wrap must hit the segment exactly.
            assert shape.rate_at(at) == multiplier
            assert shape.rate_at(at) == shape.rate_at(start_hour * 3600.0)

    def test_segment_boundaries_honoured_far_from_zero(self):
        # Just below a segment start the previous multiplier must hold,
        # however many weeks of absolute time have accumulated.
        offset = 52 * 7 * DAY_S  # one year of weeks
        for index in range(1, len(OFFICE_HOURS.segments)):
            start_hour, multiplier = OFFICE_HOURS.segments[index]
            previous_multiplier = OFFICE_HOURS.segments[index - 1][1]
            at = offset + start_hour * 3600.0
            assert OFFICE_HOURS.rate_at(at) == multiplier
            assert OFFICE_HOURS.rate_at(at - 1e-3) == previous_multiplier

    def test_flat_envelope_streams_byte_identical_over_a_week(self):
        shaped = list(stream_application_packets(
            SPARSE_APP, duration=WEEK_S, seed=7, chunk_s=DAY_S,
            envelope=FLAT,
        ))
        plain = list(stream_application_packets(
            SPARSE_APP, duration=WEEK_S, seed=7, chunk_s=DAY_S,
        ))
        # FLAT divides every drawn gap by exactly 1.0: same floats, same
        # packets, at every absolute offset across the week.
        assert [(p.timestamp, p.size, p.flow_id) for p in shaped] \
            == [(p.timestamp, p.size, p.flow_id) for p in plain]
