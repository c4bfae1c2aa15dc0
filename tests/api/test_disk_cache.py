"""Tests for the persistent result-cache tier (repro.api.cache).

Covers cross-instance hits, the header-first file format
(:mod:`repro.api.resultfile`) and its round trips for every result kind,
bad files handled as clean misses that re-simulate and heal, warm reads
that neither unpickle nor recompute, atomic writes under concurrent
writers, and the LRU bound on the in-memory tier spilling to disk.
"""

import gc
import json
import os
import pickle
import threading
from array import array

import pytest

from repro.api import SerialRunner, plan
from repro.api.cache import (
    CacheStats,
    DiskCacheTier,
    ResultCache,
    default_cache_dir,
)
from repro.api.cells import cell
from repro.api import resultfile
from repro.api.metro import metro
from repro.api.resultfile import MAGIC
from repro.api.spec import user
from repro.basestation import cell as cell_module
from repro.basestation import table as table_module
from repro.basestation.cell import CellResult
from repro.basestation.table import DeviceTable, _np
from repro.metrics import switches as switches_module
from repro.metro.execution import MetroResult


def _key(i=0):
    return ("trace", f"fp{i}"), ("carrier", "att_hspa"), ("scheme", "makeidle")


def _office_plan():
    """A 2-shard office_day cell whose records carry cohorts and learners."""
    return (plan()
            .cells(cell(devices=24, scenario="office_day", duration=300.0,
                        seed=5))
            .carriers("att_hspa")
            .policies("status_quo", "makeidle+makeactive_learn")
            .shards(2))


def _metro_plan():
    """Six UEs over metro_4cell: a cell with no visits, and a visited cell
    whose UE never switches."""
    return (plan()
            .metros(metro("metro_4cell", devices=6, duration=60.0,
                          seed=3, chunk_s=60.0))
            .carriers("att_hspa")
            .policies("fixed_4.5s"))


def _ue_plan():
    """A user-day trace (three apps, eight flows, both directions) under
    MakeIdle+MakeActive, and an email minute with no packets at all."""
    return (plan()
            .traces(user("verizon_3g", 1, hours_per_day=0.25))
            .apps("email", duration=60.0)
            .carriers("att_hspa")
            .policies("status_quo", "makeidle+makeactive_learn"))


_PLANS = {"cell": _office_plan, "metro": _metro_plan, "ue": _ue_plan}


@pytest.fixture(scope="module")
def cold_runs():
    """Each kind's plan, run once without a cache."""
    return {kind: SerialRunner().run(make()) for kind, make in _PLANS.items()}


@pytest.fixture(scope="module")
def small_cell():
    """One small vector-kernel cell result for the tier's plumbing tests."""
    runs = SerialRunner().run(
        plan().cells(cell(devices=4, apps=("im",), duration=120.0))
        .carriers("att_hspa").policies("fixed_4.5s"))
    return runs.records[0].result


def _without_from_cache(records):
    return [{k: v for k, v in row.items() if k != "from_cache"}
            for row in records]


def _body_start(data):
    return len(MAGIC) + 8 + int.from_bytes(data[len(MAGIC):len(MAGIC) + 8],
                                           "little")


def _with_header(data, change):
    """``data`` with its JSON header passed through ``change``, body kept."""
    start = len(MAGIC) + 8
    body = _body_start(data)
    header = json.loads(data[start:body])
    change(header)
    text = json.dumps(header).encode()
    text += b" " * (-(start + len(text)) % 8)
    return MAGIC + len(text).to_bytes(8, "little") + text + data[body:]


def _cells_of(result):
    """The cell results inside a result (none in a single-UE one)."""
    if isinstance(result, MetroResult):
        return [entry.result for entry in result.cells]
    if isinstance(result, CellResult):
        return [result]
    return []


class TestDefaultCacheDir:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RRC_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RRC_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-rrc"


class TestDiskCacheTier:
    def test_round_trip_across_instances(self, tmp_path, small_cell):
        writer = DiskCacheTier(tmp_path)
        writer.store(_key(), small_cell)
        reader = DiskCacheTier(tmp_path)  # a "new process"
        assert reader.load(_key()) == small_cell
        assert reader.loads == 1

    def test_missing_file_is_a_miss(self, tmp_path):
        assert DiskCacheTier(tmp_path).load(_key()) is None

    def test_different_keys_use_different_files(self, tmp_path, small_cell,
                                                cold_runs):
        other = cold_runs["cell"].records[0].result
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(0), small_cell)
        tier.store(_key(1), other)
        assert tier.path_for(_key(0)) != tier.path_for(_key(1))
        assert tier.load(_key(0)) == small_cell
        assert tier.load(_key(1)) == other

    def test_other_objects_are_refused(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        with pytest.raises(TypeError, match="str"):
            tier.store(_key(), "not a result")
        assert tier.stores == 0
        assert list(tmp_path.iterdir()) == []  # no file, no temp file

    def test_key_repr_is_computed_once_per_call(self, tmp_path, small_cell):
        calls = []

        class Key:
            def __repr__(self):
                calls.append(1)
                return "('key', 1)"

        tier = DiskCacheTier(tmp_path)
        tier.store(Key(), small_cell)
        assert len(calls) == 1
        assert tier.load(Key()) == small_cell
        assert len(calls) == 2

    def test_unwritable_directory_fails_quietly(self, tmp_path, small_cell):
        # A *file* where the cache directory should go: mkdir fails with
        # OSError regardless of privileges (chmod tricks don't bind root).
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("occupied")
        tier = DiskCacheTier(blocked / "cache")
        tier.store(_key(), small_cell)  # must not raise
        assert tier.stores == 0
        assert tier.load(_key()) is None

    def test_unopenable_file_is_a_miss_that_stays(self, tmp_path):
        # A slot that cannot be opened is not known to be corrupt: the
        # load misses and leaves it alone.
        tier = DiskCacheTier(tmp_path)
        slot = tier.path_for(_key())
        slot.mkdir()
        assert tier.load(_key()) is None
        assert slot.is_dir()

    def test_concurrent_writers_leave_a_complete_file(self, tmp_path,
                                                      small_cell):
        tier = DiskCacheTier(tmp_path)
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    tier.store(_key(), small_cell)
                    loaded = DiskCacheTier(tmp_path).load(_key())
                    # Atomic replace: a reader sees a full result or a
                    # miss, never a torn file surfaced as an exception.
                    assert loaded is None or loaded == small_cell
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert tier.load(_key()) == small_cell
        leftovers = list(tmp_path.glob(".tmp-*"))
        assert leftovers == []


class TestRoundTrips:
    """Every kind loads equal, down to the fields equality skips."""

    @pytest.mark.parametrize("kind", list(_PLANS))
    def test_round_trip(self, tmp_path, cold_runs, kind):
        tier = DiskCacheTier(tmp_path)
        for i, record in enumerate(cold_runs[kind]):
            tier.store(_key(i), record.result)
        reader = DiskCacheTier(tmp_path)
        for i, record in enumerate(cold_runs[kind]):
            loaded = reader.load(_key(i))
            assert type(loaded) is type(record.result)
            assert loaded == record.result
            for got, want in zip(_cells_of(loaded), _cells_of(record.result)):
                assert got.vector_devices == want.vector_devices
                assert got.summary == want.summary
                assert list(got.devices) == list(want.devices)
            if kind == "ue":
                assert [(p.direction, p.flow_id, p.app)
                        for p in loaded.effective_trace] == [
                    (p.direction, p.flow_id, p.app)
                    for p in record.result.effective_trace]
                assert (loaded.effective_trace.name
                        == record.result.effective_trace.name)
        assert reader.loads == len(cold_runs[kind])

    def test_fixtures_cover_the_edge_cases(self, cold_runs):
        office = [r.result for r in cold_runs["cell"]]
        assert any(d.session_delays for d in office[-1].devices)
        assert office[-1].learning_summary()["learning_devices"]
        metro_cells = _cells_of(cold_runs["metro"].records[0].result)
        assert any(len(c.devices) == 0 for c in metro_cells)
        assert any(len(c.devices) and len(c.switch_times) == 0
                   for c in metro_cells)
        assert any(c.vector_devices for c in metro_cells)
        day, *_, empty = [r.result for r in cold_runs["ue"]]
        learner = cold_runs["ue"].records[1].result
        assert learner.session_delays and learner.gap_decisions
        assert len({p.app for p in day.effective_trace}) > 1
        assert len({p.flow_id for p in day.effective_trace}) > 1
        assert len({p.direction for p in day.effective_trace}) == 2
        assert len(empty.effective_trace) == 0 and not empty.switches

    @pytest.mark.parametrize("kind", list(_PLANS))
    def test_storing_a_loaded_result_writes_the_same_bytes(
            self, tmp_path, cold_runs, kind):
        result = cold_runs[kind].records[-1].result
        first = DiskCacheTier(tmp_path / "a")
        first.store(_key(), result)
        second = DiskCacheTier(tmp_path / "b")
        second.store(_key(), first.load(_key()))
        assert (second.path_for(_key()).read_bytes()
                == first.path_for(_key()).read_bytes())

    @pytest.mark.parametrize("kind", list(_PLANS))
    def test_read_without_numpy(self, tmp_path, monkeypatch, cold_runs, kind):
        # Files written with numpy, read the way an interpreter without it
        # reads them: every column an array.array copy, empty ones too.
        tier = DiskCacheTier(tmp_path)
        for i, record in enumerate(cold_runs[kind]):
            tier.store(_key(i), record.result)
        for module in (resultfile, table_module):
            monkeypatch.setattr(module, "_np", None)
        for i, record in enumerate(cold_runs[kind]):
            loaded = tier.load(_key(i))
            assert loaded is not None
            for got, want in zip(_cells_of(loaded), _cells_of(record.result)):
                columns = [*got.devices.stored_columns(),
                           got.switch_times.column]
                assert all(type(column) is array for column in columns)
                assert list(got.devices) == list(want.devices)
                assert got.switch_times.tolist() == want.switch_times.tolist()
            if kind == "ue":
                assert loaded == record.result

    @pytest.mark.skipif(_np is None, reason="columns are copies without numpy")
    def test_cell_columns_are_read_only_views(self, tmp_path, cold_runs):
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(), cold_runs["cell"].records[-1].result)
        loaded = tier.load(_key())
        columns = [*loaded.devices.stored_columns(),
                   loaded.switch_times.column]
        assert len(columns) == len(DeviceTable.stored_layout(0, 0)) + 1
        for column in columns:
            assert not column.flags.writeable
            assert not column.flags.owndata


class TestBadFiles:
    """Any bad file is a clean miss: removed, re-simulated, healed."""

    @staticmethod
    def _format_2(data, key, result):
        return pickle.dumps({"format": 2, "key": repr(key), "result": result})

    @staticmethod
    def _more_body(data, key, result):
        def claim(header):
            header["lengths"]["switch_times"] += 1
        return _with_header(data, claim)

    @staticmethod
    def _format_4(data, key, result):
        return _with_header(data, lambda header: header.update(format=4))

    CORRUPTIONS = {
        "format_2_pickle": _format_2.__func__,
        "garbage": lambda data, key, result: b"not a result file at all",
        "empty": lambda data, key, result: b"",
        "magic_only": lambda data, key, result: MAGIC,
        "truncated_body": lambda data, key, result: data[:-12],
        "header_claims_more_body": _more_body.__func__,
        "other_format": _format_4.__func__,
    }

    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS))
    def test_clean_miss_that_heals(self, tmp_path, small_cell, corrupt):
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(), small_cell)
        path = tier.path_for(_key())
        path.write_bytes(
            self.CORRUPTIONS[corrupt](path.read_bytes(), _key(), small_cell)
        )
        assert tier.load(_key()) is None
        assert not path.exists()  # the bad file is removed
        tier.store(_key(), small_cell)  # and the slot heals
        assert tier.load(_key()) == small_cell

    def test_key_mismatch_is_a_clean_miss(self, tmp_path, small_cell):
        # Two keys colliding on one file: the header's key repr does not
        # match, so the reader treats the file as corruption.
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(0), small_cell)
        colliding = tier.path_for(_key(1))
        colliding.write_bytes(tier.path_for(_key(0)).read_bytes())
        assert tier.load(_key(1)) is None
        assert not colliding.exists()
        assert tier.load(_key(0)) == small_cell

    def test_format_2_file_is_a_clean_miss_that_heals(self, tmp_path):
        cold = SerialRunner(cache=ResultCache(disk=tmp_path)).run(
            _office_plan()
        )
        record = cold.records[-1]
        key = record.spec.cache_key
        tier = DiskCacheTier(tmp_path)
        path = tier.path_for(key)
        # What the format-2 tier wrote: the pickled result with its key.
        path.write_bytes(pickle.dumps(
            {"format": 2, "key": repr(key), "result": record.result},
            protocol=pickle.HIGHEST_PROTOCOL,
        ))

        assert tier.load(key) is None
        assert not path.exists()

        cache = ResultCache(disk=tmp_path)
        healed = SerialRunner(cache=cache).run(_office_plan())
        assert cache.misses == 1  # only the stale slot re-simulated
        assert path.read_bytes().startswith(MAGIC)
        loaded = DiskCacheTier(tmp_path).load(key)
        assert loaded == record.result
        assert loaded.summary == record.result.summary
        # The intact slot is served from disk, the healed one re-simulated.
        assert [r.from_cache for r in healed] == [True, False]
        assert _without_from_cache(healed.to_records()) == _without_from_cache(
            cold.to_records()
        )


def _refuse_unpickling(*args, **kwargs):
    raise AssertionError("a warm read unpickled")


def _refuse(*args, **kwargs):
    raise AssertionError("a warm read recomputed a cell aggregate")


class TestWarmReads:
    """A result served from disk answers its records from stored numbers."""

    @pytest.mark.parametrize("kind", list(_PLANS))
    def test_warm_hit_unpickles_nothing(self, tmp_path, monkeypatch, kind):
        make_plan = _PLANS[kind]
        cold = SerialRunner(cache=ResultCache(disk=tmp_path)).run(make_plan())
        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, _refuse_unpickling)
        warm = SerialRunner(cache=ResultCache(disk=tmp_path)).run(make_plan())
        assert warm.cache_stats.disk_hits == len(cold.records)
        assert warm.cache_stats.misses == 0
        assert _without_from_cache(warm.to_records()) == _without_from_cache(
            cold.to_records()
        )

    @pytest.mark.parametrize("make_plan", [_office_plan, _metro_plan],
                             ids=["office_day", "metro_4cell"])
    def test_warm_records_recompute_nothing(self, tmp_path, monkeypatch,
                                            make_plan):
        cold = SerialRunner(cache=ResultCache(disk=tmp_path)).run(make_plan())
        cold_records = cold.to_records()
        if make_plan is _office_plan:
            # The plan must exercise the cohort and learning columns.
            assert all(row.get("cohorts") for row in cold_records)
            assert any(row.get("learning_devices") for row in cold_records)

        for module in (switches_module, cell_module):
            monkeypatch.setattr(module, "peak_per_window", _refuse)
        for name in ("cohort_groups", "learning_summary", "int_total",
                     "row_totals"):
            monkeypatch.setattr(DeviceTable, name, _refuse)

        warm = SerialRunner(cache=ResultCache(disk=tmp_path)).run(make_plan())
        stats = warm.cache_stats
        assert stats.disk_hits == len(cold.records)
        assert stats.misses == 0
        assert _without_from_cache(warm.to_records()) == _without_from_cache(
            cold_records
        )

    @pytest.mark.parametrize("make_plan", [_office_plan, _metro_plan],
                             ids=["office_day", "metro_4cell"])
    def test_records_come_from_the_header(self, tmp_path, make_plan):
        cold = SerialRunner(cache=ResultCache(disk=tmp_path)).run(make_plan())
        warm = SerialRunner(cache=ResultCache(disk=tmp_path)).run(make_plan())
        assert warm.cache_stats.disk_hits == len(cold.records)
        # Zero every body byte in place, under the loaded results.
        for path in tmp_path.glob("*.pkl"):
            data = path.read_bytes()
            body = _body_start(data)
            with open(path, "r+b") as handle:
                handle.seek(body)
                handle.write(bytes(len(data) - body))
        assert _without_from_cache(warm.to_records()) == _without_from_cache(
            cold.to_records()
        )
        if _np is not None:
            # The columns are views on the zeroed mapping.
            touched = [c for r in warm for c in _cells_of(r.result)
                       if len(c.switch_times)]
            assert touched
            for result in touched:
                assert set(result.switch_times.tolist()) == {0.0}


class TestLoadedResultOutlivesItsFile:
    """A mapped result stays intact when its slot is replaced or removed."""

    @pytest.mark.parametrize("kind", ["cell", "metro"])
    @pytest.mark.parametrize("fate", ["replaced", "unlinked"])
    def test_outlives(self, tmp_path, cold_runs, kind, fate):
        result = cold_runs[kind].records[-1].result
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(), result)
        loaded = tier.load(_key())
        path = tier.path_for(_key())
        if fate == "replaced":
            other = tmp_path / "other.pkl"
            other.write_bytes(b"\xff" * path.stat().st_size)
            os.replace(other, path)
        else:
            os.unlink(path)
        gc.collect()
        assert loaded == result
        for got, want in zip(_cells_of(loaded), _cells_of(result)):
            assert list(got.devices) == list(want.devices)
            assert got.switch_times.tolist() == want.switch_times.tolist()


class TestStoredBytes:
    @pytest.mark.parametrize("kind", list(_PLANS))
    def test_file_does_not_depend_on_earlier_reads(self, tmp_path, kind):
        runs = SerialRunner().run(_PLANS[kind]())
        result = runs.records[-1].result
        DiskCacheTier(tmp_path / "before").store(_key(), result)
        for cell_result in _cells_of(result):
            if len(cell_result.devices):
                device_id = cell_result.devices[-1].device_id
                assert cell_result.device(device_id).device_id == device_id
            cell_result.cohort_breakdown()
        runs.to_records()
        DiskCacheTier(tmp_path / "after").store(_key(), result)
        before = DiskCacheTier(tmp_path / "before").path_for(_key())
        after = DiskCacheTier(tmp_path / "after").path_for(_key())
        assert after.read_bytes() == before.read_bytes()

    def test_round_trip_rebuilds_the_id_index(self, tmp_path, cold_runs):
        result = cold_runs["cell"].records[-1].result
        device_id = result.devices[5].device_id
        result.device(device_id)
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(), result)
        copy = tier.load(_key())
        assert copy == result
        assert copy.device(device_id) == result.device(device_id)
        with pytest.raises(KeyError):
            copy.device(10**9)

    def test_pickle_leaves_out_the_id_index(self, cold_runs):
        result = cold_runs["cell"].records[-1].result
        before = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        result.device(result.devices[3].device_id)
        assert pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL) == before
        copy = pickle.loads(before)
        assert copy == result
        assert copy.device(result.devices[3].device_id) == result.devices[3]


class TestResultCacheDiskTier:
    def test_second_cache_hits_without_running(self, tmp_path, small_cell):
        first = ResultCache(disk=tmp_path)
        assert first.lookup(_key()) is None
        first.put(_key(), small_cell)
        assert (first.hits, first.misses) == (0, 1)

        second = ResultCache(disk=tmp_path)
        assert second.lookup(_key()) == small_cell
        assert (second.hits, second.misses) == (1, 0)
        assert second.disk_hits == 1
        assert second.stats.disk_hits == 1

    def test_lookup_consults_disk(self, tmp_path, small_cell):
        ResultCache(disk=tmp_path).put(_key(), small_cell)
        cache = ResultCache(disk=tmp_path)
        assert cache.lookup(_key()) == small_cell
        assert (cache.hits, cache.disk_hits) == (1, 1)

    def test_eviction_spills_to_disk_not_oblivion(self, tmp_path, cold_runs):
        results = [r.result for r in cold_runs["ue"]]
        cache = ResultCache(max_entries=2, disk=tmp_path)
        for i, result in enumerate(results):
            cache.put(_key(i), result)
        assert len(cache) == 2  # memory stays bounded...
        for i, result in enumerate(results):  # ...but nothing is forgotten
            assert cache.lookup(_key(i)) == result

    def test_clear_preserves_the_disk_tier(self, tmp_path, small_cell):
        cache = ResultCache(disk=tmp_path)
        cache.put(_key(), small_cell)
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(_key()) == small_cell
        assert cache.disk_hits == 1


class TestLruBound:
    def test_hit_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put(_key(0), "a")
        cache.put(_key(1), "b")
        assert cache.lookup(_key(0)) == "a"  # 0 becomes most recent
        cache.put(_key(2), "c")              # evicts 1, not 0
        assert _key(0) in cache
        assert _key(1) not in cache
        assert _key(2) in cache

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestCacheStatsCompat:
    def test_positional_three_arg_construction(self):
        stats = CacheStats(3, 2, 5)
        assert (stats.hits, stats.misses, stats.size) == (3, 2, 5)
        assert stats.disk_hits == 0
        assert stats.lookups == 5
        assert stats.hit_rate == pytest.approx(0.6)


class TestCaptureFileKeys:
    """A capture file is keyed on its bytes: a file rewritten at the same
    path misses the disk cache, even through one plan object reused in
    one process (a key memoised on the spec would stay stale)."""

    @staticmethod
    def _fresh_energy(path):
        from repro.core import StatusQuoPolicy
        from repro.rrc.profiles import get_profile
        from repro.sim.simulator import TraceSimulator
        from repro.traces.pcap import read_pcap

        return TraceSimulator(get_profile("att_hspa")).run(
            read_pcap(path), StatusQuoPolicy()).total_energy_j

    def test_rewritten_file_misses_and_unchanged_file_hits(self, tmp_path):
        from repro.api import pcap
        from repro.traces.pcap import write_pcap
        from repro.traces.synthetic import generate_application_trace

        capture = tmp_path / "capture.pcap"
        write_pcap(capture, generate_application_trace("im", duration=600.0,
                                                       seed=1))
        sweep = (plan().traces(pcap(str(capture))).carriers("att_hspa")
                 .policies("status_quo"))

        def run():
            runner = SerialRunner(
                cache=ResultCache(disk=DiskCacheTier(tmp_path / "cache")))
            runs = runner.run(sweep)
            (record,) = list(runs)
            return runs.cache_stats, record.result.total_energy_j

        stats, before = run()
        assert (stats.misses, stats.disk_hits) == (1, 0)
        assert before == self._fresh_energy(capture)

        write_pcap(capture, generate_application_trace(
            "email", duration=600.0, seed=2))
        stats, after = run()
        assert (stats.misses, stats.disk_hits) == (1, 0)
        assert after == self._fresh_energy(capture)
        assert after != before

        stats, again = run()
        assert (stats.misses, stats.disk_hits) == (0, 1)
        assert again == after
