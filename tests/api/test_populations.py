"""The population store (repro.api.populations): one draw per shared slice.

A slice that several specs of one run replay is synthesised once, stored
as a header-first file and mapped by every reader; the results must be
byte-identical to the lazy path.  Covers the generator identity pin, who
draws and when, pools, files read without numpy, bad files that heal and
mappings that outlive their files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from array import array

import pytest

import repro.api.runner as runner_mod
from repro.api import ProcessPoolRunner, SerialRunner, cell, plan
from repro.api import populations as populations_mod
from repro.api import resultfile
from repro.api.cache import DiskCacheTier, ResultCache
from repro.api.cells import execute_cell
from repro.api.populations import (
    GENERATOR_VERSION,
    MAGIC,
    SUBDIRECTORY,
    PopulationSlot,
    PopulationStore,
    RunPopulations,
    StoredPopulation,
    draw_population,
    population_key,
)
from repro.api.spec import PolicySpec
from repro.basestation.table import _np
from repro.scenarios.presets import SCENARIO_PRESETS
from repro.traces import streaming

#: Policies whose readers cover both kernels, the materialised offline
#: baselines and MakeActive's flow ids and app labels.
POLICIES = ("status_quo", "oracle", "p95_iat", "makeidle",
            "makeidle+makeactive_learn")
BOOKKEEPING = ("from_cache", "pool_jobs", "pool_clamped")


def _app_cell(devices=9, seed=4):
    return cell(devices=devices, apps=("im", "email", "news"),
                duration=300.0, seed=seed, chunk_s=120.0)


def _scenario_cell(name, devices=12, seed=3):
    return cell(devices=devices, scenario=name, duration=300.0, seed=seed,
                chunk_s=120.0)


POPULATIONS = {"app_cycle": _app_cell,
               **{name: (lambda name=name: _scenario_cell(name))
                  for name in sorted(SCENARIO_PRESETS)}}


def _plan(population, policies=POLICIES, shards=1):
    return (plan().cells(population).carriers("att_hspa")
            .policies(*policies).window_size(30).shards(shards))


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _records(runs):
    return json.dumps(_hexed([
        {k: v for k, v in row.items() if k not in BOOKKEEPING}
        for row in runs.to_records()
    ]), sort_keys=True)


@pytest.fixture
def lazy():
    """A context manager inside which runners never read a stored slice."""

    @contextlib.contextmanager
    def switched_off():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RunPopulations, "of", lambda self, key: None)
            yield

    return switched_off


@pytest.fixture
def draws(monkeypatch):
    """Counts ``application_columns`` calls made by the lazy streams."""
    counter = {"calls": 0}
    original = streaming.application_columns

    def counting(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(streaming, "application_columns", counting)
    return counter


def _one_draw(population, draws):
    """``application_columns`` calls of one synthesis of ``population``."""
    before = draws["calls"]
    draw_population(population, 0, population.devices)
    calls = draws["calls"] - before
    draws["calls"] = before
    return calls


class TestByteIdentity:
    """Stored and lazy runs of one plan give == results and float.hex
    equal records: every scenario preset and an app cycle, both kernels,
    1 and 3 shards, the materialised offline baselines and MakeActive."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("kernel", ["auto", "scalar"])
    @pytest.mark.parametrize("name", list(POPULATIONS))
    def test_stored_run_equals_lazy_run(self, name, kernel, shards, lazy,
                                        scalar_kernel, draws):
        population = POPULATIONS[name]()
        p = _plan(population, shards=shards)
        forced = (scalar_kernel() if kernel == "scalar"
                  else contextlib.nullcontext())
        with forced:
            stored = SerialRunner().run(p)
            assert draws["calls"] == _one_draw(population, draws)
            with lazy():
                reference = SerialRunner().run(p)
        assert [r.result for r in stored] == [r.result for r in reference]
        assert _records(stored) == _records(reference)

    def test_drawn_columns_are_the_lazy_merge(self):
        # A user-day device's stored rows carry each application's offset
        # flow ids and label, in the order of its lazy heapq merge.
        population = _scenario_cell("office_day")
        apps, columns = draw_population(population, 0, population.devices)
        offsets, times, sizes, uplink, flows, codes = columns
        lazy = [_full(stream) for stream in population.device_streams()]
        assert [len(device) for device in lazy] == [
            high - low for low, high in zip(offsets, offsets[1:])]
        assert [row for device in lazy for row in device] == [
            (t, s, "uplink" if u else "downlink", f, apps[c])
            for t, s, u, f, c in zip(times, sizes, uplink, flows, codes)
        ]
        assert len(apps) > 1 and max(flows) >= 1_000_000


class TestWhoDraws:
    def test_four_policy_plan_draws_once(self, draws):
        population = _scenario_cell("office_day", devices=10)
        p = _plan(population, policies=("status_quo", "fixed_4.5s",
                                          "makeidle",
                                          "makeidle+makeactive_learn"))
        SerialRunner().run(p)
        assert draws["calls"] == _one_draw(population, draws) > 0

    def test_single_spec_plan_draws_lazily_and_writes_no_file(
            self, tmp_path, draws, monkeypatch):
        made = []
        real_mkdtemp = populations_mod.tempfile.mkdtemp
        monkeypatch.setattr(populations_mod.tempfile, "mkdtemp",
                            lambda **kw: made.append(1) or real_mkdtemp(**kw))
        population = _app_cell()
        stored = []
        monkeypatch.setattr(PopulationStore, "store",
                            lambda self, *args: stored.append(args))
        SerialRunner(cache=ResultCache(disk=tmp_path)).run(
            _plan(population, policies=("makeidle",), shards=2))
        SerialRunner().run(_plan(population, policies=("makeidle",)))
        assert stored == [] and made == []
        assert not (tmp_path / SUBDIRECTORY).exists()
        assert draws["calls"] == 2 * _one_draw(population, draws)

    def test_single_reader_uses_a_file_already_on_the_disk_tier(
            self, tmp_path, draws):
        population = _app_cell()
        SerialRunner(cache=ResultCache(disk=tmp_path)).run(
            _plan(population, policies=("status_quo", "fixed_4.5s")))
        assert len(list((tmp_path / SUBDIRECTORY).glob("*.pop"))) == 1
        draws["calls"] = 0
        runs = SerialRunner(cache=ResultCache(disk=tmp_path)).run(
            _plan(population, policies=("makeidle",)))
        assert draws["calls"] == 0
        assert runs.records[0].result == SerialRunner().run(
            _plan(population, policies=("makeidle",))).records[0].result

    def test_warm_queries_open_no_population_file(self, tmp_path,
                                                  monkeypatch):
        p = _plan(_app_cell(), policies=("status_quo", "makeidle"))
        cold = SerialRunner(cache=ResultCache(disk=tmp_path)).run(p)

        def refuse(*args, **kwargs):
            raise AssertionError("a warm query touched the population store")

        monkeypatch.setattr(StoredPopulation, "__init__", refuse)
        monkeypatch.setattr(PopulationStore, "load", refuse)
        monkeypatch.setattr(PopulationStore, "store", refuse)
        warm = SerialRunner(cache=ResultCache(disk=tmp_path)).run(p)
        assert warm.cache_stats.disk_hits == len(p.build())
        assert [r.result for r in warm] == [r.result for r in cold]

    def test_temporary_directory_is_removed(self, monkeypatch):
        made = []
        real_mkdtemp = populations_mod.tempfile.mkdtemp

        def recording(**kwargs):
            made.append(real_mkdtemp(**kwargs))
            return made[-1]

        monkeypatch.setattr(populations_mod.tempfile, "mkdtemp", recording)
        SerialRunner().run(_plan(_app_cell(), policies=("status_quo",
                                                        "makeidle")))
        assert len(made) == 1 and not os.path.exists(made[0])

    def test_no_temporary_directory_streams_lazily(self, monkeypatch,
                                                   draws, lazy):
        def refuse(**kwargs):
            raise FileNotFoundError("no usable temporary directory")

        monkeypatch.setattr(populations_mod.tempfile, "mkdtemp", refuse)
        population = _app_cell()
        p = _plan(population, policies=("status_quo", "makeidle"), shards=2)
        runs = SerialRunner().run(p)
        assert draws["calls"] == 2 * _one_draw(population, draws)
        with lazy():
            reference = SerialRunner().run(p)
        assert [r.result for r in runs] == [r.result for r in reference]
        assert _records(runs) == _records(reference)

    def test_each_open_maps_afresh_and_a_slot_draws_at_most_once(
            self, tmp_path, monkeypatch):
        population = _app_cell()
        stores, inits = [], []
        real_store = PopulationStore.store
        real_init = StoredPopulation.__init__
        monkeypatch.setattr(
            PopulationStore, "store",
            lambda self, *args: stores.append(args) or real_store(self, *args))
        monkeypatch.setattr(
            StoredPopulation, "__init__",
            lambda self, *args: inits.append(1) or real_init(self, *args))
        slot = PopulationSlot(tmp_path, draw=True)
        opened = [slot.open(population, 0, 4) for _ in range(3)]
        assert len(stores) == 1 and len(inits) == 3
        assert len({id(stored) for stored in opened}) == 3
        # A store that refuses the write: the first open draws, the
        # others stream lazily rather than draw again.
        stores.clear()
        monkeypatch.setattr(PopulationStore, "store",
                            lambda self, *args: stores.append(args) or False)
        refused = PopulationSlot(tmp_path / "refused", draw=True)
        assert [refused.open(population, 0, 4) for _ in range(3)] == [None] * 3
        assert len(stores) == 1

    def test_a_reading_slot_never_draws(self, tmp_path, draws):
        population = _app_cell()
        slot = PopulationSlot(tmp_path, draw=False)
        devices = population.build_devices(PolicySpec(), population=slot)
        assert list(tmp_path.iterdir()) == [] and draws["calls"] == 0
        assert [_full(d.trace) for d in devices] == [
            _full(s) for s in population.device_streams()]


class TestPools:
    @pytest.mark.parametrize("disk", [True, False], ids=["disk", "no_disk"])
    def test_pool_run_equals_serial_run(self, disk, tmp_path, monkeypatch):
        p = _plan(_scenario_cell("learning_rollout"),
                  policies=("status_quo", "makeidle",
                            "makeidle+makeactive_learn"), shards=2)
        serial = SerialRunner().run(p)
        monkeypatch.setattr(runner_mod, "usable_cpu_count", lambda: 4)
        cache = ResultCache(disk=tmp_path) if disk else None
        pooled = ProcessPoolRunner(jobs=2, cache=cache).run(p)
        assert pooled.execution.pool_used is True
        assert [r.result for r in pooled] == [r.result for r in serial]
        assert _records(pooled) == _records(serial)
        files = list((tmp_path / SUBDIRECTORY).glob("*.pop"))
        assert len(files) == (2 if disk else 0)

    def test_a_slot_pickles_as_its_directory(self, tmp_path, draws):
        import pickle

        population = _app_cell()
        slot = PopulationSlot(tmp_path, draw=True)
        opened = slot.open(population, 0, population.devices)
        calls = draws["calls"]
        again = pickle.loads(pickle.dumps(slot))
        assert len(pickle.dumps(slot)) < 1000
        assert _packets(again.open(population, 0, population.devices)) == \
            _packets(opened)
        assert draws["calls"] == calls  # the worker maps, it does not draw


def _full(packets):
    """Every field of each packet (``Packet`` equality reads two)."""
    return [(p.timestamp, p.size, p.direction.value, p.flow_id, p.app)
            for p in packets]


def _packets(population):
    return [_full(source) for source in population.sources()]


def _columns(population):
    return [[list(column) for column in block]
            for source in population.sources()
            for block in source.column_blocks()]


class TestStoredSources:
    def test_views_match_the_lazy_streams(self, tmp_path):
        population = _scenario_cell("office_day")
        store = PopulationStore(tmp_path)
        store.store(population, 2, 9)
        loaded = store.load(population, 2, 9)
        streams = list(population.device_streams(2, 9))
        assert _packets(loaded) == [_full(s) for s in
                                    population.device_streams(2, 9)]
        assert _columns(loaded) == [
            [list(c) for c in block] for s in streams
            for block in s.column_blocks() if block[0]
        ]
        for source in loaded.sources():
            for block in source.column_blocks():
                assert {type(v) for v in block[0]} == {float}
                assert {type(v) for v in block[1]} == {int}
                assert {type(v) for v in block[2]} <= {bool}
        for source in loaded.sources():
            for packet in source:
                assert type(packet.flow_id) is int
                assert type(packet.timestamp) is float
                assert type(packet.size) is int

    def test_views_share_one_cursor(self, tmp_path):
        population = _app_cell()
        store = PopulationStore(tmp_path)
        store.store(population, 0, 3)
        expected = [_full(s) for s in population.device_streams(0, 3)]
        source = store.load(population, 0, 3).sources()[0]
        first = next(source)
        rest = [p for block in source.packet_blocks() for p in block]
        assert _full([first, *rest]) == expected[0]
        assert list(source.column_blocks()) == [] and list(source) == []
        source = store.load(population, 0, 3).sources()[0]
        next(source)
        (times, _, _), = source.column_blocks()
        assert times == [row[0] for row in expected[0][1:]]

    def test_read_without_numpy(self, tmp_path, monkeypatch):
        # A file written with numpy, read the way an interpreter without
        # it reads one: array.array columns, the same packets.
        population = _scenario_cell("office_day")
        store = PopulationStore(tmp_path)
        store.store(population, 0, population.devices)
        with_numpy = store.load(population, 0, population.devices)
        monkeypatch.setattr(resultfile, "_np", None)
        without = store.load(population, 0, population.devices)
        assert all(type(column) is array for column in (
            without._times, without._sizes, without._uplink,
            without._flows, without._codes))
        assert _packets(without) == _packets(with_numpy)
        assert _columns(without) == _columns(with_numpy)

    @pytest.mark.parametrize("fate", ["replaced", "unlinked"])
    def test_mapping_outlives_its_file(self, tmp_path, fate):
        population = _app_cell()
        store = PopulationStore(tmp_path)
        store.store(population, 0, population.devices)
        loaded = store.load(population, 0, population.devices)
        path = store.path_for(repr(population_key(population, 0,
                                                  population.devices)))
        if fate == "replaced":
            other = tmp_path / "other.pop"
            other.write_bytes(b"\0" * path.stat().st_size)
            os.replace(other, path)
        else:
            path.unlink()
        assert _packets(loaded) == [_full(s) for s in
                                    population.device_streams()]


def _with_header(data, change):
    length = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + length])
    change(header)
    encoded = json.dumps(header, separators=(",", ":")).encode()
    encoded += b" " * (-(16 + len(encoded)) % 8)
    return data[:8] + len(encoded).to_bytes(8, "little") + encoded \
        + data[16 + length:]


class TestBadFiles:
    """Each bad file is a miss that heals: removed, drawn, stored again."""

    @staticmethod
    def _other_version(data, population, tmp_path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(populations_mod, "GENERATOR_VERSION",
                          GENERATOR_VERSION + 1)
            other = PopulationStore(tmp_path / "other")
            other.store(population, 0, population.devices)
            (path,) = (tmp_path / "other").glob("*.pop")
            return path.read_bytes()

    @staticmethod
    def _offsets_backwards(data, population, tmp_path, monkeypatch):
        length = int.from_bytes(data[8:16], "little")
        body = 16 + length
        return data[:body + 8] + (10 ** 6).to_bytes(8, "little") \
            + data[body + 16:]

    CORRUPTIONS = {
        "garbage": lambda data, *_: b"not a population file at all",
        "empty": lambda data, *_: b"",
        "truncated": lambda data, *_: data[:-8],
        "wrong_key": lambda data, *_: _with_header(
            data, lambda header: header.update(key="('cell',)")),
        "other_generator_version": _other_version.__func__,
        "other_magic": lambda data, *_: resultfile.MAGIC + data[8:],
        "header_claims_more_packets": lambda data, *_: _with_header(
            data, lambda header: header.update(packets=header["packets"] + 1)),
        "offsets_out_of_order": _offsets_backwards.__func__,
    }

    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS))
    def test_miss_that_heals(self, corrupt, tmp_path, monkeypatch):
        population = _app_cell()
        p = _plan(population, policies=("status_quo", "makeidle"))
        cold = SerialRunner(cache=ResultCache(disk=tmp_path)).run(p)
        (path,) = (tmp_path / SUBDIRECTORY).glob("*.pop")
        good = path.read_bytes()
        path.write_bytes(self.CORRUPTIONS[corrupt](good, population,
                                                   tmp_path, monkeypatch))
        store = PopulationStore(tmp_path / SUBDIRECTORY)
        assert store.load(population, 0, population.devices) is None
        assert not path.exists()  # the bad file is removed
        path.write_bytes(self.CORRUPTIONS[corrupt](good, population,
                                                   tmp_path, monkeypatch))
        # A fresh plan over the same directory: every result misses, the
        # slice is drawn again and its file heals.
        for entry in tmp_path.glob("*.pkl"):
            entry.unlink()
        again = SerialRunner(cache=ResultCache(disk=tmp_path)).run(p)
        assert path.read_bytes() == good
        assert [r.result for r in again] == [r.result for r in cold]

    def test_unwritable_store_streams_lazily(self, tmp_path, draws):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        population = _app_cell()
        p = _plan(population, policies=("status_quo", "makeidle"))
        runs = SerialRunner(cache=ResultCache(disk=DiskCacheTier(blocker))
                            ).run(p)
        # Each spec streams its own draw; none is spent on the store.
        assert draws["calls"] == 2 * _one_draw(population, draws)
        assert [r.result for r in runs] == [
            execute_cell(spec) for spec in p.build()]


def _digest(population):
    apps, columns = draw_population(population, 0, population.devices)
    offsets, times, sizes, uplink, flows, codes = columns
    text = repr((apps, list(offsets), [t.hex() for t in times], list(sizes),
                 [int(u) for u in uplink], list(flows), list(codes)))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_generator_version_is_pinned_to_what_it_draws():
    """GENERATOR_VERSION next to the digests of two small populations.

    A change to synthesis, chunking, user-day merging, device seeding or
    envelopes changes a digest and fails here: move GENERATOR_VERSION with
    the digests, so no stored population of the old generator is read.
    """
    assert (GENERATOR_VERSION, _digest(_app_cell()),
            _digest(_scenario_cell("office_day"))) == (
        1,
        "dd27f9809834094c0bec9c78810a5cc5a0af6f9d4fe9b64f2637a0c3522f83e0",
        "b1d65c55c4aebcf1603f8c3c16c0dc11cea3e0ea3ed45934e96edea69bc10ab7",
    )


def test_magic_differs_from_result_files():
    assert MAGIC != resultfile.MAGIC and len(MAGIC) == 8


@pytest.mark.skipif(_np is None, reason="columns are copies without numpy")
def test_columns_are_read_only_views(tmp_path):
    population = _app_cell()
    store = PopulationStore(tmp_path)
    store.store(population, 0, population.devices)
    loaded = store.load(population, 0, population.devices)
    for column in (loaded._times, loaded._sizes, loaded._codes):
        assert not column.flags.writeable
