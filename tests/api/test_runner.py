"""Tests for the runner backends: serial/pool equivalence and cache wiring."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ProcessPoolRunner,
    ResultCache,
    Runner,
    SerialRunner,
    default_runner,
    plan,
)


@pytest.fixture
def small_plan():
    """A fixed-seed grid small enough to pool-execute in a test."""
    return (plan()
            .apps("im", "email", duration=600.0, seed=5)
            .carriers("att_hspa", "verizon_lte")
            .policies("status_quo", "makeidle", "oracle")
            .window_size(30))


class TestSerialRunner:
    def test_records_in_plan_order(self, small_plan):
        runs = SerialRunner().run(small_plan)
        assert len(runs) == len(small_plan)
        assert [r.spec for r in runs] == list(small_plan.build())

    def test_runner_satisfies_protocol(self):
        assert isinstance(SerialRunner(), Runner)
        assert isinstance(ProcessPoolRunner(jobs=2), Runner)

    def test_accepts_explicit_spec_sequence(self, small_plan):
        specs = small_plan.build()[:3]
        runs = SerialRunner().run(specs)
        assert [r.spec for r in runs] == list(specs)

    def test_results_keyed_consistently(self, small_plan):
        runs = SerialRunner().run(small_plan)
        for record in runs:
            assert record.result.policy_name == record.scheme
            assert record.result.profile_key == record.carrier


class TestProcessPoolRunner:
    def test_byte_identical_to_serial_on_fixed_seed(self, small_plan):
        serial = SerialRunner().run(small_plan)
        pooled = ProcessPoolRunner(jobs=2).run(small_plan)
        assert (json.dumps(serial.to_records())
                == json.dumps(pooled.to_records()))
        assert serial.to_json() == pooled.to_json()

    def test_duplicate_cells_submitted_once(self, small_plan):
        specs = small_plan.build()
        doubled = specs + specs  # every cell duplicated
        runs = ProcessPoolRunner(jobs=2).run(doubled)
        assert len(runs) == 2 * len(specs)
        assert runs.cache_stats.misses == len(specs)
        assert runs.cache_stats.hits == len(specs)
        # The duplicate half is flagged as served from cache.
        assert all(r.from_cache for r in runs.records[len(specs):])

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolRunner(jobs=0)

    def test_single_pending_cell_runs_inline(self):
        # One unique cell: the pool path is skipped but semantics hold.
        p = plan().apps("email", duration=600.0).carriers("att_hspa").policies(
            "status_quo"
        )
        runs = ProcessPoolRunner(jobs=4).run(p)
        assert len(runs) == 1
        assert runs.cache_stats.misses == 1


class TestSharedCache:
    def test_cache_shared_across_run_calls(self, small_plan):
        runner = SerialRunner()
        first = runner.run(small_plan)
        second = runner.run(small_plan)
        assert first.cache_stats.misses == len(small_plan)
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hits == len(small_plan)
        assert all(r.from_cache for r in second)

    def test_cache_shared_between_backends(self, small_plan):
        cache = ResultCache()
        SerialRunner(cache=cache).run(small_plan)
        runs = ProcessPoolRunner(jobs=2, cache=cache).run(small_plan)
        assert runs.cache_stats.misses == 0

    def test_default_runner_is_process_wide(self):
        assert default_runner() is default_runner()


class TestPoolClamp:
    """The runner clamps its pool to usable cores (PR 5 satellite).

    A pool wider than the machine only adds scheduling overhead, and a
    pool on a 1-core box is pure pessimisation — the runner must fall
    back to serial in-process execution (byte-identical results) instead
    of shipping a configuration whose speedup is < 1 by construction.
    """

    @staticmethod
    def _cell_plan():
        from repro.api import cell

        return (plan()
                .cells(cell(devices=4, apps=("im",), duration=120.0,
                            name="clamp"))
                .carriers("att_hspa")
                .policies("makeidle")
                .shards(2))

    def test_effective_jobs_clamped_to_cores(self, monkeypatch):
        import repro.api.runner as runner_mod

        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 2)
        runner = ProcessPoolRunner(jobs=8)
        assert runner.usable_cores == 2
        assert runner.effective_jobs == 2

    def test_cpu_count_unknown_treated_as_one_core(self, monkeypatch):
        import repro.api.runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "sched_getaffinity",
                            lambda pid: None, raising=False)
        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: None)
        monkeypatch.delattr(runner_mod.os, "sched_getaffinity")
        runner = ProcessPoolRunner(jobs=4)
        assert runner.usable_cores == 1
        assert runner.effective_jobs == 1

    def test_one_core_falls_back_in_process(self, monkeypatch):
        import repro.api.runner as runner_mod

        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 1)
        runner = ProcessPoolRunner(jobs=4)
        runs = runner.run(self._cell_plan())
        execution = runs.execution
        assert execution is not None
        assert execution.requested_jobs == 4
        assert execution.effective_jobs == 1
        assert execution.pool_used is False
        assert execution.clamped is True

    def test_clamp_recorded_in_to_records(self, monkeypatch):
        import repro.api.runner as runner_mod

        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 1)
        rows = ProcessPoolRunner(jobs=4).run(self._cell_plan()).to_records()
        assert all(row["pool_jobs"] == 1 for row in rows)
        assert all(row["pool_clamped"] is True for row in rows)

    def test_fallback_results_byte_identical_to_serial(self, monkeypatch):
        import repro.api.runner as runner_mod

        serial = SerialRunner().run(self._cell_plan())
        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 1)
        clamped = ProcessPoolRunner(jobs=4).run(self._cell_plan())
        for a, b in zip(serial.records, clamped.records):
            assert a.spec == b.spec
            assert a.result.devices == b.result.devices
            assert a.result.signaling == b.result.signaling

    def test_serial_runner_has_no_execution_metadata(self):
        runs = SerialRunner().run(self._cell_plan())
        assert runs.execution is None
        assert all("pool_jobs" not in row for row in runs.to_records())

    def test_forced_pool_branch_matches_serial(self, monkeypatch):
        """Pin pool_used=True so the real executor branch always runs.

        On few-core hosts the clamp would otherwise fall back to the
        serial path and the multiprocess branch — worker pickling of
        slotted packets, shard partials crossing the process boundary —
        would never execute in the suite.
        """
        import repro.api.runner as runner_mod

        serial = SerialRunner().run(self._cell_plan())
        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 4)
        pooled_runner = ProcessPoolRunner(jobs=2)
        pooled = pooled_runner.run(self._cell_plan())
        assert pooled.execution.pool_used is True
        assert pooled.execution.effective_jobs == 2
        for a, b in zip(serial.records, pooled.records):
            assert a.spec == b.spec
            assert a.result.devices == b.result.devices
            assert a.result.signaling == b.result.signaling
            assert a.result.load_samples == b.result.load_samples

    @staticmethod
    def _metro_plan():
        from repro.api import metro

        return (plan()
                .metros(metro("metro_4cell", devices=40, duration=600.0,
                              seed=2))
                .carriers("att_hspa")
                .policies("makeidle")
                .shards(3))

    def test_forced_pool_branch_matches_serial_metro(self, monkeypatch):
        """Each UE-block reply carries one CellShard per cell across the
        process boundary, and the merged records equal the serial run."""
        import repro.api.runner as runner_mod
        from repro.api import execute_metro_cell_shard

        spec = self._metro_plan().build()[0]
        replies = [execute_metro_cell_shard(spec, i) for i in range(3)]
        assert all(len(cells) == 4 and None not in cells
                   for cells in replies)

        serial = SerialRunner().run(self._metro_plan())
        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 4)
        pooled = ProcessPoolRunner(jobs=2).run(self._metro_plan())
        assert pooled.execution.pool_used is True
        rows = {"serial": serial.to_records(), "pooled": pooled.to_records()}
        for row in (*rows["serial"], *rows["pooled"]):
            for column in ("from_cache", "pool_jobs", "pool_clamped"):
                row.pop(column, None)
        assert rows["pooled"] == rows["serial"]

    def test_merge_metro_run_counts_block_partials(self):
        from repro.api.metro import execute_metro_cell_shard, merge_metro_run

        spec = self._metro_plan().build()[0]
        replies = [execute_metro_cell_shard(spec, i) for i in range(3)]
        for wrong in (replies[:2], replies + replies[:1]):
            with pytest.raises(ValueError, match="expected 3 block partials"):
                merge_metro_run(spec, wrong)
        with pytest.raises(ValueError, match=r"zip\(\) argument"):
            merge_metro_run(spec, [replies[0][:3], *replies[1:]])
        assert merge_metro_run(spec, replies) == SerialRunner().run(
            self._metro_plan()
        ).records[0].result


class TestCacheCounters:
    """Both runners count hits, misses and disk hits through one path."""

    @staticmethod
    def _plan(kind):
        from repro.api import cell, metro

        if kind == "single_ue":
            # Two identical seeds: every cell appears twice.
            return (plan().apps("im", duration=300.0)
                    .carriers("att_hspa").policies("status_quo", "fixed_4.5s")
                    .repeat(seeds=(5, 5)))
        if kind == "cell":
            # status_quo ignores the station: one cell for both dormancies.
            return (plan()
                    .cells(cell(devices=4, apps=("im",), duration=120.0))
                    .carriers("att_hspa").policies("status_quo", "fixed_4.5s")
                    .dormancy("accept_all", "reject_all").shards(2))
        return (plan()
                .metros(metro("metro_4cell", devices=16, duration=120.0,
                              chunk_s=60.0))
                .carriers("att_hspa").policies("status_quo", "fixed_4.5s")
                .shards(2).repeat(seeds=(3, 3)))

    @pytest.mark.parametrize("kind", ("single_ue", "cell", "metro"))
    def test_runners_count_alike(self, kind, tmp_path, monkeypatch):
        import repro.api.runner as runner_mod

        # Four usable cores: jobs=2 forces the pool branch (as TestPoolClamp
        # does), jobs=1 runs in-process.
        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 4)
        backends = {
            "serial": SerialRunner,
            "pool_inline": lambda cache: ProcessPoolRunner(jobs=1, cache=cache),
            "pool_forced": lambda cache: ProcessPoolRunner(jobs=2, cache=cache),
        }
        p = self._plan(kind)
        seen = {}
        for name, make in backends.items():
            disk = tmp_path / name
            runner = make(ResultCache(disk=disk))
            cold = runner.run(p)
            warm_memory = runner.run(p)
            warm_disk = make(ResultCache(disk=disk)).run(p)
            if name == "pool_forced":
                assert cold.execution.pool_used is True
            seen[name] = [
                ((runs.cache_stats.hits, runs.cache_stats.misses,
                  runs.cache_stats.disk_hits),
                 [r.from_cache for r in runs])
                for runs in (cold, warm_memory, warm_disk)
            ]
        assert seen["pool_inline"] == seen["serial"]
        assert seen["pool_forced"] == seen["serial"]
        total = len(p)
        unique = len({spec.cache_key for spec in p.build()})
        assert unique < total
        assert [counts for counts, _ in seen["serial"]] == [
            (total - unique, unique, 0),
            (total, 0, 0),
            (total, 0, unique),
        ]
