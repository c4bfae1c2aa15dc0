"""Tests for the persistent result-cache tier (repro.api.cache).

Covers the ISSUE-8 contract: cross-process (here cross-*instance*) hits,
version-stamp and truncation corruption handled as clean misses that
re-simulate, atomic writes under concurrent writers, and the LRU bound
on the in-memory tier spilling to disk instead of forgetting.
"""

import copyreg
import io
import pickle
import threading

import pytest

from repro.api import SerialRunner, plan
from repro.api.cache import (
    CacheStats,
    DiskCacheTier,
    ResultCache,
    default_cache_dir,
)
from repro.api.cells import cell
from repro.api.metro import metro
from repro.basestation import cell as cell_module
from repro.basestation.cell import CellResult
from repro.basestation.table import DeviceTable
from repro.metrics import switches as switches_module


def _key(i=0):
    return ("trace", f"fp{i}"), ("carrier", "att_hspa"), ("scheme", "makeidle")


class TestDefaultCacheDir:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RRC_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RRC_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-rrc"


class TestDiskCacheTier:
    def test_round_trip_across_instances(self, tmp_path):
        writer = DiskCacheTier(tmp_path)
        writer.store(_key(), {"energy": 42.0})
        reader = DiskCacheTier(tmp_path)  # a "new process"
        assert reader.load(_key()) == {"energy": 42.0}
        assert reader.loads == 1

    def test_missing_file_is_a_miss(self, tmp_path):
        assert DiskCacheTier(tmp_path).load(_key()) is None

    def test_different_keys_use_different_files(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(0), "a")
        tier.store(_key(1), "b")
        assert tier.path_for(_key(0)) != tier.path_for(_key(1))
        assert tier.load(_key(0)) == "a"
        assert tier.load(_key(1)) == "b"

    def test_version_mismatch_is_a_clean_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(), "payload")
        path = tier.path_for(_key())
        stale = pickle.loads(path.read_bytes())
        stale["format"] = DiskCacheTier.FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(stale))
        assert tier.load(_key()) is None
        assert not path.exists()  # the bad file is removed
        tier.store(_key(), "payload")  # and the slot heals
        assert tier.load(_key()) == "payload"

    def test_truncated_file_is_a_clean_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(), list(range(1000)))
        path = tier.path_for(_key())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert tier.load(_key()) is None
        assert not path.exists()

    def test_garbage_file_is_a_clean_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        path = tier.path_for(_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle at all")
        assert tier.load(_key()) is None

    def test_hash_collision_key_mismatch_is_a_miss(self, tmp_path):
        # Simulate two keys colliding on one file: the payload's stored
        # key repr must not match, so the reader treats it as corruption.
        tier = DiskCacheTier(tmp_path)
        tier.store(_key(0), "a")
        colliding = tier.path_for(_key(1))
        colliding.write_bytes(tier.path_for(_key(0)).read_bytes())
        assert tier.load(_key(1)) is None

    def test_unwritable_directory_fails_quietly(self, tmp_path):
        # A *file* where the cache directory should go: mkdir fails with
        # OSError regardless of privileges (chmod tricks don't bind root).
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("occupied")
        tier = DiskCacheTier(blocked / "cache")
        tier.store(_key(), "ignored")  # must not raise
        assert tier.stores == 0
        assert tier.load(_key()) is None

    def test_concurrent_writers_leave_a_complete_file(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        payload = list(range(20000))
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    tier.store(_key(), payload)
                    loaded = DiskCacheTier(tmp_path).load(_key())
                    # Atomic replace: a reader sees a full payload or a
                    # miss, never a torn file surfaced as an exception.
                    assert loaded is None or loaded == payload
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert tier.load(_key()) == payload
        leftovers = list(tmp_path.glob(".tmp-*"))
        assert leftovers == []


class TestResultCacheDiskTier:
    def test_second_cache_hits_without_running(self, tmp_path):
        first = ResultCache(disk=tmp_path)
        assert first.lookup(_key()) is None
        first.put(_key(), "fresh")
        assert (first.hits, first.misses) == (0, 1)

        second = ResultCache(disk=tmp_path)
        assert second.lookup(_key()) == "fresh"
        assert (second.hits, second.misses) == (1, 0)
        assert second.disk_hits == 1
        assert second.stats.disk_hits == 1

    def test_lookup_consults_disk(self, tmp_path):
        ResultCache(disk=tmp_path).put(_key(), "stored")
        cache = ResultCache(disk=tmp_path)
        assert cache.lookup(_key()) == "stored"
        assert (cache.hits, cache.disk_hits) == (1, 1)

    def test_eviction_spills_to_disk_not_oblivion(self, tmp_path):
        cache = ResultCache(max_entries=2, disk=tmp_path)
        for i in range(4):
            cache.put(_key(i), f"result{i}")
        assert len(cache) == 2  # memory stays bounded...
        for i in range(4):     # ...but nothing is forgotten
            assert cache.lookup(_key(i)) == f"result{i}"

    def test_clear_preserves_the_disk_tier(self, tmp_path):
        cache = ResultCache(disk=tmp_path)
        cache.put(_key(), "kept")
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(_key()) == "kept"
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


def _office_plan():
    """A 2-shard office_day cell whose records carry cohorts and learners."""
    return (plan()
            .cells(cell(devices=24, scenario="office_day", duration=300.0,
                        seed=5))
            .carriers("att_hspa")
            .policies("status_quo", "makeidle+makeactive_learn")
            .shards(2))


def _metro_plan():
    return (plan()
            .metros(metro("metro_4cell", devices=40, duration=120.0,
                          seed=3, chunk_s=60.0))
            .carriers("att_hspa")
            .policies("fixed_4.5s"))


def _without_from_cache(records):
    return [{k: v for k, v in row.items() if k != "from_cache"}
            for row in records]


class _Format1Pickler(pickle.Pickler):
    """Pickles a ``DeviceTable`` with the slot state format 1 stored."""

    def reducer_override(self, obj):
        if type(obj) is not DeviceTable:
            return NotImplemented
        slots = {name: getattr(obj, name) for name in DeviceTable.__slots__}
        slots["_totals"] = None
        return copyreg.__newobj__, (DeviceTable,), (None, slots)


def _format_1_bytes(payload):
    buffer = io.BytesIO()
    _Format1Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


def _refuse(*args, **kwargs):
    raise AssertionError("a warm read recomputed a cell aggregate")


class TestWarmReads:
    """A result served from disk answers its records from stored numbers."""

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

    def test_format_1_file_is_a_clean_miss_that_heals(self, tmp_path):
        cold = SerialRunner(cache=ResultCache(disk=tmp_path)).run(
            _office_plan()
        )
        record = cold.records[-1]
        key = record.spec.cache_key
        tier = DiskCacheTier(tmp_path)
        path = tier.path_for(key)
        # What the format-1 tier wrote: the result without a summary, its
        # table pickled by ``object.__reduce_ex__`` as a ``(None, slots)``
        # state that still has the deleted ``_totals`` slot.  The current
        # ``DeviceTable.__setstate__`` cannot read that state, so the file
        # fails while unpickling, before the format check.
        state = dict(vars(record.result))
        del state["summary"]
        stale = object.__new__(CellResult)
        vars(stale).update(state)
        path.write_bytes(_format_1_bytes(
            {"format": 1, "key": repr(key), "result": stale}
        ))
        with pytest.raises(Exception):
            pickle.loads(path.read_bytes())

        assert tier.load(key) is None
        assert not path.exists()

        cache = ResultCache(disk=tmp_path)
        healed = SerialRunner(cache=cache).run(_office_plan())
        assert cache.misses == 1  # only the stale slot re-simulated
        assert path.exists()
        loaded = DiskCacheTier(tmp_path).load(key)
        assert loaded == record.result
        assert loaded.summary == record.result.summary
        # The intact slot is served from disk, the healed one re-simulated.
        assert [r.from_cache for r in healed] == [True, False]
        assert _without_from_cache(healed.to_records()) == _without_from_cache(
            cold.to_records()
        )


class TestStoredBytes:
    def test_pickle_does_not_depend_on_earlier_reads(self):
        runs = SerialRunner().run(_office_plan())
        result = runs.records[-1].result
        before = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        device_id = result.devices[3].device_id
        assert result.device(device_id).device_id == device_id
        assert result.cohort_breakdown()
        runs.to_records()
        after = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        assert after == before

    def test_round_trip_rebuilds_the_id_index(self):
        result = SerialRunner().run(_office_plan()).records[-1].result
        device_id = result.devices[5].device_id
        result.device(device_id)
        copy = pickle.loads(pickle.dumps(result))
        assert copy == result
        assert copy.device(device_id) == result.device(device_id)
        with pytest.raises(KeyError):
            copy.device(10**9)



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
