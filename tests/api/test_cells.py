"""Tests for the cell-sweep axis of the experiment API."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.api import (
    CellRunSpec,
    CellSpec,
    DormancySpec,
    EmptyAxisError,
    PolicySpec,
    ProcessPoolRunner,
    SerialRunner,
    cell,
    dormancy,
    execute_cell,
    execute_spec,
    load_plan,
    metro,
    plan,
    save_plan,
)
from repro.api.metro import MetroRunSpec, execute_metro
from repro.basestation.cell import CellResult, CellSimulator
from repro.metro import execution as metro_execution
from repro.rrc.profiles import get_profile
from repro.sim.vector_engine import numpy_available
from repro.traces.packet import PacketTrace


def _small_plan():
    return (plan()
            .cells(cell(devices=6, apps=("im",), duration=180.0, name="tiny"))
            .carriers("att_hspa")
            .policies("status_quo", "makeidle")
            .dormancy("accept_all", "reject_all"))


class TestCellSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellSpec(devices=0)
        with pytest.raises(ValueError):
            CellSpec(apps=())
        with pytest.raises(ValueError):
            CellSpec(apps=("no_such_app",))
        with pytest.raises(ValueError):
            CellSpec(duration_s=0.0)

    def test_unnamed_labels_distinguish_populations(self):
        # Two different unnamed populations of the same size must not share
        # a label: a shared label would merge their RunRecord groups and
        # normalise one population against the other's baseline.
        im = cell(devices=3, apps=("im",), duration=300.0)
        email = cell(devices=3, apps=("email",), duration=300.0)
        assert im.label != email.label
        # ...but repetitions of one population under different seeds do
        # share it, so repeat(seeds=...) groups correctly.
        assert im.label == im.with_seed(5).label
        assert cell(devices=3, apps=("im",), duration=300.0,
                    name="x").label == "x"

    @pytest.mark.parametrize("spec", [
        cell(devices=50, scenario="office_day", duration=900.0, seed=7),
        cell(devices=3, apps=("im", "email"), duration=300.0),
        cell(devices=3, apps=("im",), duration=300.0, name="named"),
    ], ids=["scenario", "apps", "named"])
    def test_label_computed_once(self, spec, monkeypatch):
        from repro.api import cells as cells_module

        spec = dataclasses.replace(spec)  # a fresh, uncached instance
        fresh = CellSpec.label.func(spec)
        computed = spec.to_dict(), repr(spec), hash(spec)
        crcs = []
        crc32 = cells_module.zlib.crc32

        class CountingZlib:
            @staticmethod
            def crc32(data):
                crcs.append(data)
                return crc32(data)

        monkeypatch.setattr(cells_module, "zlib", CountingZlib)
        assert [spec.label for _ in range(9)] == [fresh] * 9
        assert len(crcs) == (0 if spec.name else 1)
        # The cached label is not a field: equality, hashing, repr and the
        # plan form are what they were before it was computed.
        assert (spec.to_dict(), repr(spec), hash(spec)) == computed
        assert "label" not in repr(spec)
        assert spec == dataclasses.replace(spec)
        assert hash(spec) == hash(dataclasses.replace(spec))
        assert CellSpec.from_dict(spec.to_dict()) == spec

    def test_label_survives_pickle_and_replace_recomputes(self):
        spec = cell(devices=50, scenario="office_day", duration=900.0)
        label = spec.label
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.label == label == CellSpec.label.func(restored)
        bigger = dataclasses.replace(spec, devices=60)
        assert bigger.label == CellSpec.label.func(bigger) != label

    def test_fingerprint_distinguishes_populations(self):
        base = cell(devices=10, apps=("im",), duration=300.0)
        assert base.fingerprint == cell(devices=10, apps=("im",),
                                        duration=300.0).fingerprint
        assert base.fingerprint != base.with_seed(1).fingerprint
        assert base.fingerprint != cell(devices=11, apps=("im",),
                                        duration=300.0).fingerprint
        rechunked = cell(devices=10, apps=("im",), duration=300.0,
                         chunk_s=60.0)
        assert base.fingerprint != rechunked.fingerprint
        assert base.label != rechunked.label

    def test_build_devices_cycles_apps_and_seeds(self):
        spec = cell(devices=4, apps=("im", "email"), duration=60.0)
        devices = spec.build_devices(_policy_spec("makeidle"))
        assert [d.device_id for d in devices] == [0, 1, 2, 3]
        # Fresh policy instance per device, never shared.
        assert len({id(d.policy) for d in devices}) == 4

    def test_dormancy_spec_validation(self):
        with pytest.raises(ValueError):
            DormancySpec(scheme="nope")
        with pytest.raises(ValueError):
            DormancySpec(scheme="accept_all", param=3.0)
        with pytest.raises(ValueError):
            DormancySpec(scheme="load_aware", param=2.5)  # would truncate
        for scheme, param in (("load_aware", float("inf")),
                              ("load_aware", float("nan")),
                              ("load_aware", 0),
                              ("rate_limited", float("nan")),
                              ("rate_limited", 0.0)):
            with pytest.raises(ValueError, match=scheme):
                DormancySpec(scheme=scheme, param=param)
        unlimited = DormancySpec("rate_limited", float("inf"))
        assert unlimited == DormancySpec("rate_limited", float("inf"))
        assert unlimited.build().min_interval_s == float("inf")
        assert dormancy("rate_limited", 30.0).build().min_interval_s == 30.0
        assert dormancy("load_aware", 50).build().max_switches_per_minute == 50


def _policy_spec(scheme):
    from repro.api import PolicySpec

    return PolicySpec(scheme=scheme, window_size=20)


class TestCellPlan:
    def test_expansion_order_and_size(self):
        p = _small_plan()
        specs = p.build()
        assert len(specs) == len(p) == 4
        assert all(isinstance(s, CellRunSpec) for s in specs)
        # policy-major, dormancy-minor expansion
        assert [(s.scheme, s.dormancy.scheme) for s in specs] == [
            ("status_quo", "accept_all"),
            ("status_quo", "reject_all"),
            ("makeidle", "accept_all"),
            ("makeidle", "reject_all"),
        ]

    def test_cell_axis_excludes_trace_axis(self):
        p = _small_plan().apps("im")
        with pytest.raises(ValueError):
            p.build()

    def test_dormancy_axis_on_trace_plan_is_rejected(self):
        p = (plan().apps("im").carriers("att_hspa")
             .policies("status_quo").dormancy("reject_all"))
        with pytest.raises(ValueError, match="cell plans"):
            p.build()

    def test_missing_axes_raise(self):
        with pytest.raises(EmptyAxisError):
            plan().cells(cell(devices=2)).policies("makeidle").build()
        with pytest.raises(EmptyAxisError):
            plan().cells(cell(devices=2)).carriers("att_hspa").build()

    def test_default_dormancy_is_accept_all(self):
        p = (plan().cells(cell(devices=2, apps=("im",), duration=60.0))
             .carriers("att_hspa").policies("makeidle"))
        (spec,) = p.build()
        assert spec.dormancy == DormancySpec("accept_all")

    def test_json_round_trip(self, tmp_path):
        p = _small_plan().repeat(seeds=(0, 1)).labelled("cells")
        path = tmp_path / "plan.json"
        save_plan(p, path)
        assert load_plan(path) == p

    def test_describe_mentions_cells(self):
        assert "cell(s)" in _small_plan().describe()


#: Plan files as they were written while a plan and each of its cells or
#: metros named a kernel ("engine"/"engines") and each cell a generation
#: mode ("streaming"), without those keys.
_LEGACY_CELL_PLAN = {
    "carriers": ["att_hspa"],
    "cells": [{"apps": ["im"], "chunk_s": 300.0, "devices": 4,
               "duration_s": 120.0, "name": "legacy", "seed": 0}],
    "name": "",
    "policies": [{"scheme": "status_quo", "window_size": None},
                 {"scheme": "fixed_4.5s", "window_size": None}],
    "seeds": [], "traces": [], "window_size": 100,
}
_LEGACY_METRO_PLAN = {
    "carriers": ["att_hspa"],
    "metros": [{"chunk_s": 300.0, "devices": 8, "duration_s": 120.0,
                "metro": "metro_4cell", "name": "", "seed": 0}],
    "name": "",
    "policies": [{"scheme": "status_quo", "window_size": None}],
    "seeds": [], "traces": [], "window_size": 100,
}


class TestLegacyPlanFiles:
    """Retired options are unknown keys: each shard picks its own kernel,
    and each device's policy decides whether its trace is materialised."""

    def test_files_without_kernel_keys_load(self, tmp_path):
        from repro.api import metro

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_LEGACY_CELL_PLAN), encoding="utf-8")
        assert load_plan(path) == (
            plan()
            .cells(cell(devices=4, apps=("im",), duration=120.0,
                        name="legacy"))
            .carriers("att_hspa")
            .policies("status_quo", "fixed_4.5s")
        )
        path.write_text(json.dumps(_LEGACY_METRO_PLAN), encoding="utf-8")
        assert load_plan(path) == (
            plan()
            .metros(metro("metro_4cell", devices=8, duration=120.0))
            .carriers("att_hspa")
            .policies("status_quo")
        )

    @pytest.mark.parametrize("engine", ("vector", "cuda"))
    @pytest.mark.parametrize("where", ("plan", "cell", "metro"))
    def test_kernel_keys_are_rejected(self, tmp_path, where, engine):
        if where == "plan":
            data = {**_LEGACY_CELL_PLAN, "engines": ["scalar", engine]}
            key = "engines"
        else:
            data = json.loads(json.dumps(
                _LEGACY_CELL_PLAN if where == "cell" else _LEGACY_METRO_PLAN
            ))
            data[f"{where}s"][0]["engine"] = engine
            key = "engine"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError,
                           match=f"unknown {where} key\\(s\\) '{key}'"):
            load_plan(path)

    @pytest.mark.parametrize("streaming", (True, False))
    def test_streaming_key_is_rejected(self, tmp_path, streaming):
        data = json.loads(json.dumps(_LEGACY_CELL_PLAN))
        data["cells"][0]["streaming"] = streaming
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError,
                           match="unknown cell key\\(s\\) 'streaming'"):
            load_plan(path)


#: The paper's offline baselines (§5.1, Fig. 12): each reads its device's
#: whole trace in prepare().
_OFFLINE_SCHEMES = ("oracle", "p95_iat", "makeidle+makeactive_fixed")


def _materialised(devices):
    """The same devices, each on a PacketTrace of its source's packets."""
    return [dataclasses.replace(d, trace=PacketTrace(list(d.trace)))
            for d in devices]


def _offline_run(population, scheme, materialise=False, monkeypatch=None):
    """Run ``scheme`` on one population: an app cell, a scenario cell or
    metro_4cell.  With ``materialise`` every device is handed to
    ``CellSimulator`` on an explicit PacketTrace instead of its stream."""
    policy = PolicySpec(scheme=scheme).resolved(100)
    if population == "metro":
        spec = MetroRunSpec(
            metro=metro("metro_4cell", devices=40, duration=300.0),
            carrier="att_hspa", policy=policy,
        )
        if materialise:
            visit_devices = metro_execution._visit_devices
            monkeypatch.setattr(
                metro_execution, "_visit_devices",
                lambda *args: _materialised(visit_devices(*args)),
            )
        return execute_metro(spec)
    workload = ({"apps": ("im", "email")} if population == "app"
                else {"scenario": "office_day"})
    spec = cell(devices=6, duration=300.0, **workload)
    if materialise:
        return CellSimulator(get_profile("att_hspa")).run(
            _materialised(spec.build_devices(policy))
        )
    return execute_cell(CellRunSpec(cell=spec, carrier="att_hspa",
                                    policy=policy, dormancy=DormancySpec()))


class TestOfflineBaselines:
    """Offline baselines run on every population: the devices whose policy
    reads the whole trace are materialised for that device alone."""

    @pytest.mark.parametrize("population", ("app", "scenario", "metro"))
    @pytest.mark.parametrize("scheme", _OFFLINE_SCHEMES)
    def test_streamed_equals_materialised_on_both_kernels(
            self, scheme, population, monkeypatch, scalar_kernel):
        streamed = _offline_run(population, scheme)
        with scalar_kernel():
            scalar = _offline_run(population, scheme)
        assert streamed == scalar
        assert streamed == _offline_run(population, scheme,
                                        materialise=True,
                                        monkeypatch=monkeypatch)
        if population != "metro":
            assert isinstance(streamed, CellResult)
            if scheme == "p95_iat" and numpy_available():
                assert streamed.vector_devices == len(streamed.devices)
            if scheme == "oracle":
                assert streamed.dormancy_requests > 0  # the oracle demoted


class TestCellRunners:
    def test_serial_runner_runs_and_caches(self):
        runner = SerialRunner()
        runs = runner.run(_small_plan())
        assert len(runs) == 4
        assert all(isinstance(r.result, CellResult) for r in runs)
        # status_quo devices never request dormancy, so the baseline cell
        # is simulated once and reused across both dormancy policies.
        assert runs.cache_stats.misses == 3
        assert runs.cache_stats.hits == 1
        status_quo = [r for r in runs if r.scheme == "status_quo"]
        assert [r.from_cache for r in status_quo] == [False, True]
        replay = runner.run(_small_plan())
        assert replay.cache_stats.misses == 0
        assert replay.cache_stats.hits == 4

    def test_pool_matches_serial_byte_for_byte(self):
        serial = SerialRunner().run(_small_plan())
        pooled = ProcessPoolRunner(jobs=2).run(_small_plan())

        # Execution metadata (pool_jobs / pool_clamped) is backend-local
        # provenance by design; every *result* column must stay
        # byte-identical across backends.
        def strip(rows):
            return [
                {k: v for k, v in row.items()
                 if k not in ("pool_jobs", "pool_clamped")}
                for row in rows
            ]

        assert (json.dumps(strip(serial.to_records()))
                == json.dumps(strip(pooled.to_records())))
        pool_rows = pooled.to_records()
        assert all("pool_jobs" in row for row in pool_rows)
        assert pooled.execution is not None
        assert pool_rows[0]["pool_jobs"] == pooled.execution.effective_jobs

    def test_execute_spec_dispatches_cells(self):
        (spec, *_rest) = _small_plan().build()
        result = execute_spec(spec)
        assert isinstance(result, CellResult)

    def test_records_carry_cell_metrics(self):
        runs = SerialRunner().run(_small_plan())
        rows = runs.to_records()
        reject_row = next(
            r for r in rows
            if r["scheme"] == "makeidle" and r["dormancy"] == "reject_all"
        )
        assert reject_row["devices"] == 6
        assert reject_row["denial_rate"] == 1.0
        assert reject_row["peak_switches_per_minute"] >= 1
        assert "saved_percent" in reject_row  # vs status_quo, same dormancy
        accept_row = next(
            r for r in rows
            if r["scheme"] == "makeidle" and r["dormancy"] == "accept_all"
        )
        # Always-accept dormancy saves at least as much as reject-all.
        assert accept_row["saved_percent"] >= reject_row["saved_percent"]

    def test_group_by_dormancy(self):
        runs = SerialRunner().run(_small_plan())
        groups = runs.group_by("dormancy")
        assert set(groups) == {"accept_all", "reject_all"}
        assert all(len(g) == 2 for g in groups.values())

    def test_savings_refuses_cell_records(self):
        runs = SerialRunner().run(_small_plan())
        with pytest.raises(TypeError):
            runs.savings()

    def test_to_csv_includes_cell_columns(self, tmp_path):
        runs = SerialRunner().run(_small_plan())
        path = tmp_path / "cells.csv"
        runs.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert "denial_rate" in header
        assert "peak_switches_per_minute" in header
