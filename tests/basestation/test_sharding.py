"""Shard execution protocol: run_shard + merge_cell_shards.

The contract under test is the ISSUE's exactness condition: for
*shard-independent* dormancy stations (accept_all, reject_all, per-UE
rate_limited) a sharded cell run merges to per-device results that are
**byte-identical** to the single-process run, at any shard count, for
device counts that do not divide evenly.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.basestation import (
    AcceptAllDormancy,
    CellSimulator,
    DeviceSpec,
    LoadAwareDormancy,
    RateLimitedDormancy,
    RejectAllDormancy,
    merge_cell_shards,
    partition_switch_budget,
)
from repro.core import FixedTimerPolicy
from repro.core.controller import build_scheme
from repro.core.makeidle import MakeIdlePolicy
from repro.rrc.profiles import get_profile
from repro.sim import TraceSimulator
from repro.sim.engine import CellLoad
from repro.sim.vector_engine import numpy_available
from repro.traces import generate_application_trace
from repro.traces.streaming import stream_application_packets

#: (station factory, label); every entry is shard-independent: its
#: decisions depend only on the requesting device, never on other shards.
SHARD_INDEPENDENT_STATIONS = [
    (AcceptAllDormancy, "accept_all"),
    (RejectAllDormancy, "reject_all"),
    (lambda: RateLimitedDormancy(min_interval_s=5.0), "rate_limited"),
]


def _devices(profile, lo, hi, duration=400.0):
    """Devices [lo, hi) of a deterministic streamed population."""
    del profile
    return [
        DeviceSpec(
            device_id=i,
            trace=stream_application_packets(
                "im", duration=duration, seed=1000 + i, chunk_s=100.0
            ),
            policy=MakeIdlePolicy(window_size=30),
        )
        for i in range(lo, hi)
    ]


def _shard_bounds(devices: int, shards: int) -> list[tuple[int, int]]:
    base, rem = divmod(devices, shards)
    bounds, start = [], 0
    for j in range(shards):
        size = base + (1 if j < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class TestShardMergeExactness:
    @pytest.mark.parametrize("station_factory,label", SHARD_INDEPENDENT_STATIONS)
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_byte_identical_to_single_process(
        self, att_profile, station_factory, label, shards
    ):
        # 11 devices: divides evenly by neither 2 nor 7.
        single = CellSimulator(att_profile, station_factory()).run(
            _devices(att_profile, 0, 11)
        )
        partials = [
            CellSimulator(att_profile, station_factory()).run_shard(
                _devices(att_profile, lo, hi)
            )
            for lo, hi in _shard_bounds(11, shards)
        ]
        merged = merge_cell_shards(partials)

        # Per-device records: byte-identical (exact float equality via
        # dataclass equality on every breakdown field and counter).
        assert merged.devices == single.devices
        # Exact aggregates.
        assert merged.signaling == single.signaling
        assert merged.duration_s == single.duration_s
        assert merged.switch_times == single.switch_times
        assert merged.peak_switches_per_minute == single.peak_switches_per_minute
        assert merged.dormancy_policy_name == single.dormancy_policy_name
        # Peak active without sampling: exact for K=1, upper bound beyond.
        if shards == 1:
            assert merged.peak_active_devices == single.peak_active_devices
        else:
            assert merged.peak_active_devices >= single.peak_active_devices

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_vector_kernel_shards_byte_identical(self, att_profile, shards):
        # Fixed-timer devices under accept_all: every shard runs on the
        # vector kernel when numpy imports, and its open partial must
        # close exactly as the single-process run closes.
        def devices(lo, hi):
            return [
                DeviceSpec(
                    device_id=i,
                    trace=stream_application_packets(
                        "im", duration=400.0, seed=1000 + i, chunk_s=100.0
                    ),
                    policy=FixedTimerPolicy(timeout=4.5),
                )
                for i in range(lo, hi)
            ]

        single = CellSimulator(att_profile, AcceptAllDormancy()).run(
            devices(0, 11)
        )
        partials = [
            CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
                devices(lo, hi)
            )
            for lo, hi in _shard_bounds(11, shards)
        ]
        merged = merge_cell_shards(partials)
        assert merged.devices == single.devices
        assert merged.signaling == single.signaling
        assert merged.switch_times == single.switch_times
        expected = 11 if numpy_available() else 0
        assert merged.vector_devices == single.vector_devices == expected

    def test_unsampled_peak_is_sum_of_shard_peaks(self, att_profile):
        # Without load samples the merge cannot tell when each shard
        # peaked, so it reports the sum of per-shard peaks: an upper
        # bound (DESIGN.md §2.1).
        partials = [
            CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
                _devices(att_profile, lo, hi)
            )
            for lo, hi in _shard_bounds(7, 3)
        ]
        assert all(p.load.peak_active_devices > 0 for p in partials)
        merged = merge_cell_shards(partials)
        assert merged.peak_active_devices == sum(
            p.load.peak_active_devices for p in partials
        )

    def test_shard_partials_survive_pickling(self, att_profile):
        # The runner ships shards across process boundaries; the partial
        # must round-trip without perturbing the merged result.
        direct = [
            CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
                _devices(att_profile, lo, hi)
            )
            for lo, hi in _shard_bounds(7, 3)
        ]
        pickled = [pickle.loads(pickle.dumps(shard)) for shard in direct]
        assert merge_cell_shards(pickled) == merge_cell_shards(direct)

    def test_high_idle_pending_demotion_closes_identically(self, att_profile):
        # AT&T's two-stage timers leave machines mid-demotion at shard
        # quiesce when float rounding puts the Idle boundary just past the
        # last timer event; the merge must replay those pending demotions.
        single = CellSimulator(att_profile, AcceptAllDormancy()).run(
            _devices(att_profile, 0, 3, duration=150.0)
        )
        partials = [
            CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
                _devices(att_profile, lo, hi, duration=150.0)
            )
            for lo, hi in _shard_bounds(3, 2)
        ]
        merged = merge_cell_shards(partials)
        assert merged.devices == single.devices
        assert merged.signaling.timer_demotions == single.signaling.timer_demotions

    def test_sampled_shards_merge_on_shared_grid(self, att_profile):
        simulators = [
            CellSimulator(
                att_profile, AcceptAllDormancy(), load_sample_interval_s=5.0
            )
            for _ in range(2)
        ]
        partials = [
            sim.run_shard(_devices(att_profile, lo, hi))
            for sim, (lo, hi) in zip(simulators, _shard_bounds(6, 2))
        ]
        merged = merge_cell_shards(partials)
        single = CellSimulator(
            att_profile, AcceptAllDormancy(), load_sample_interval_s=5.0
        ).run(_devices(att_profile, 0, 6))
        assert merged.load_samples  # sampling was on
        merged_by_time = {s.time: s for s in merged.load_samples}
        for sample in single.load_samples:
            counterpart = merged_by_time.get(sample.time)
            if counterpart is None:
                continue  # grid point past both shards' activity
            # Active devices sum exactly across disjoint shards.
            assert counterpart.active_devices == sample.active_devices
        # With sampling on, the merged peak comes from the summed series.
        assert merged.peak_active_devices == max(
            s.active_devices for s in merged.load_samples
        )


class TestScalarShardExport:
    def test_delay_and_learning_columns_match_single_ue_runs(
        self, att_profile
    ):
        # Learners on materialised traces run on the scalar kernel; its
        # exported session-delay and learning columns must survive the
        # 3-shard merge exactly as an independent recorder sees them: a
        # collect-mode single-UE run of the same trace, fresh policy.
        scheme = "makeidle+makeactive_learn"
        apps = ("im", "email", "news")
        traces = [
            generate_application_trace(apps[i % 3], duration=1800.0,
                                       seed=300 + i)
            for i in range(7)
        ]
        merged = merge_cell_shards([
            CellSimulator(att_profile, AcceptAllDormancy()).run_shard([
                DeviceSpec(device_id=i, trace=traces[i],
                           policy=build_scheme(scheme))
                for i in range(lo, hi)
            ])
            for lo, hi in _shard_bounds(7, 3)
        ])
        assert merged.vector_devices == 0
        delayed = 0
        for i, trace in enumerate(traces):
            policy = build_scheme(scheme)
            reference = TraceSimulator(att_profile).run(trace, policy)
            records = policy.learning_records()
            expected = tuple(
                d for d in reference.session_delays
                if d.release_time > d.arrival_time
            )
            device = merged.device(i)
            assert device.session_delays == expected
            assert device.learn_iterations == len(records) > 0
            assert device.learn_delay_first_s == records[0].delay_used
            assert device.learn_delay_final_s == records[-1].delay_used
            delayed += len(expected)
        assert delayed > 0


class TestMergeValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one shard"):
            merge_cell_shards([])

    def test_rejects_overlapping_device_ids(self, att_profile):
        shard = CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
            _devices(att_profile, 0, 2)
        )
        with pytest.raises(ValueError, match="unique across shards"):
            merge_cell_shards([shard, shard])

    def test_rejects_mixed_profiles(self, att_profile):
        a = CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
            _devices(att_profile, 0, 2)
        )
        other = get_profile("verizon_lte")
        b = CellSimulator(other, AcceptAllDormancy()).run_shard(
            _devices(other, 2, 4)
        )
        with pytest.raises(ValueError, match="different carrier profiles"):
            merge_cell_shards([a, b])

    def test_rejects_mixed_dormancy_policies(self, att_profile):
        a = CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
            _devices(att_profile, 0, 2)
        )
        b = CellSimulator(att_profile, RejectAllDormancy()).run_shard(
            _devices(att_profile, 2, 4)
        )
        with pytest.raises(ValueError, match="different dormancy policies"):
            merge_cell_shards([a, b])

    def test_rejects_mixed_sample_grids(self, att_profile):
        a = CellSimulator(
            att_profile, AcceptAllDormancy(), load_sample_interval_s=5.0
        ).run_shard(_devices(att_profile, 0, 2))
        b = CellSimulator(
            att_profile, AcceptAllDormancy(), load_sample_interval_s=10.0
        ).run_shard(_devices(att_profile, 2, 4))
        with pytest.raises(ValueError, match="different sample grids"):
            merge_cell_shards([a, b])

    def test_rejects_mixed_trailing_times(self, att_profile):
        a = CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
            _devices(att_profile, 0, 2)
        )
        b = CellSimulator(att_profile, AcceptAllDormancy()).run_shard(
            _devices(att_profile, 2, 4)
        )
        skewed = replace(b, trailing_time=b.trailing_time + 1.0)
        with pytest.raises(ValueError, match="different trailing times"):
            merge_cell_shards([a, skewed])


class TestCellLoadMerge:
    def test_window_is_half_open(self):
        # Regression: a switch exactly window_s ago has aged out.
        load = CellLoad()
        load.note_switch(0.0)
        load.note_switch(30.0)
        assert load.switches_within_window(59.9) == 2
        assert load.switches_within_window(60.0) == 1
        assert load.switches_within_window(89.9) == 1
        assert load.switches_within_window(90.0) == 0


class TestBudgetPartition:
    def test_equal_shards_split_evenly(self):
        assert partition_switch_budget(120, [10, 10, 10]) == [40, 40, 40]

    def test_proportional_to_device_counts(self):
        assert partition_switch_budget(100, [30, 10]) == [75, 25]

    def test_largest_remainder_goes_first_on_ties(self):
        assert partition_switch_budget(10, [1, 1, 1]) == [4, 3, 3]

    def test_shares_sum_to_budget_when_feasible(self):
        sizes = [7, 3, 5, 1]
        shares = partition_switch_budget(97, sizes)
        assert sum(shares) == 97
        assert all(share >= 1 for share in shares)

    def test_minimum_one_per_shard(self):
        # budget < shard count: every shard still gets a positive budget,
        # overshooting the total — the documented approximation.
        shares = partition_switch_budget(2, [5, 5, 5])
        assert all(share >= 1 for share in shares)
        assert sum(shares) >= 2

    def test_validation(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            partition_switch_budget(0, [1])
        with pytest.raises(ValueError, match="at least one shard"):
            partition_switch_budget(10, [])
        with pytest.raises(ValueError, match="shard sizes must be positive"):
            partition_switch_budget(10, [3, 0])


class TestLoadAwareSharding:
    def test_partitioned_budget_still_arbitrates(self, att_profile):
        # load_aware is the documented approximation: not byte-identical,
        # but each shard must enforce its share of the budget.
        shards = []
        sizes = [3, 3]
        budgets = partition_switch_budget(4, sizes)
        for (lo, hi), budget in zip(_shard_bounds(6, 2), budgets):
            shards.append(
                CellSimulator(
                    att_profile,
                    LoadAwareDormancy(max_switches_per_minute=budget),
                ).run_shard(_devices(att_profile, lo, hi))
            )
        merged = merge_cell_shards(shards)
        assert len(merged.devices) == 6
        assert merged.dormancy_requests > 0
        # A tiny budget under chatty IM traffic must produce denials.
        assert merged.dormancy_denied > 0
