"""Scenario populations through the cell sweep stack: specs, plans, runners."""

import pytest

from repro.api import (
    PolicySpec,
    SerialRunner,
    cell,
    execute_cell,
    plan,
)
from repro.api.cells import CellRunSpec, CellSpec, DormancySpec
from repro.scenarios import Cohort, Scenario, get_archetype, get_scenario


def _run_spec(scenario_name="office_day", devices=9, scheme="makeidle",
              dormancy=DormancySpec(), duration=300.0, shards=1):
    return CellRunSpec(
        cell=cell(devices=devices, scenario=scenario_name, duration=duration),
        carrier="att_hspa",
        policy=PolicySpec(scheme=scheme).resolved(100),
        dormancy=dormancy,
        shards=shards,
    )


class TestScenarioCellSpec:
    def test_helper_resolves_preset_names(self):
        spec = cell(devices=10, scenario="office_day")
        assert spec.scenario is not None
        assert spec.scenario.name == "office_day"

    def test_helper_rejects_unknown_preset(self):
        with pytest.raises(KeyError, match="available presets"):
            cell(devices=10, scenario="not_a_preset")

    def test_helper_rejects_apps_with_scenario(self):
        with pytest.raises(ValueError, match="not both"):
            cell(devices=10, apps=("social",), scenario="office_day")

    def test_scenario_spec_carries_no_apps(self):
        # A scenario defines every workload: the spec must not carry (or
        # serialise) an apps cycle that never runs.
        spec = CellSpec(devices=10, apps=("social",),
                        scenario=get_scenario("office_day"))
        assert spec.apps == ()
        assert "apps" not in spec.to_dict()
        assert spec == cell(devices=10, scenario="office_day")

    def test_rejects_non_scenario_payload(self):
        with pytest.raises(TypeError, match="scenario must be"):
            CellSpec(devices=10, scenario=object())

    def test_label_carries_scenario_name_and_digest(self):
        a = cell(devices=10, scenario="office_day")
        b = cell(devices=10, scenario="evening_peak")
        assert a.label.startswith("office_day10-")
        assert b.label.startswith("evening_peak10-")
        assert a.label != b.label

    def test_fingerprint_distinguishes_scenarios(self):
        a = cell(devices=10, scenario="office_day")
        b = cell(devices=10, scenario="evening_peak")
        plain = cell(devices=10)
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint != plain.fingerprint

    def test_round_trips_through_dict(self):
        spec = cell(devices=10, scenario="mixed_policy", duration=200.0)
        clone = CellSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint == spec.fingerprint

    def test_identity_sees_chunk_s(self):
        # Every population generates via the chunked stream, so chunk_s is
        # in every identity: two specs differing only in chunk_s build
        # different populations and must never share a cache entry or a
        # label, whether a scenario or the app cycle describes them.
        for workload in ({"scenario": "office_day"}, {}):
            a = cell(devices=6, duration=200.0, chunk_s=50.0, **workload)
            b = cell(devices=6, duration=200.0, chunk_s=100.0, **workload)
            assert a.fingerprint != b.fingerprint
            assert a.label != b.label

    def test_plain_cell_dict_has_no_scenario_key(self):
        assert "scenario" not in cell(devices=5).to_dict()

    def test_build_devices_labels_cohorts(self):
        spec = cell(devices=10, scenario="office_day", duration=200.0)
        devices = spec.build_devices(PolicySpec(scheme="makeidle").resolved(100))
        labels = [d.cohort for d in devices]
        assert labels == (["office_worker"] * 5 + ["heavy_streamer"] * 2
                          + ["idle_messenger"] * 3)

    def test_build_devices_shard_slices_match_whole_build(self):
        spec = cell(devices=10, scenario="mixed_policy", duration=200.0)
        policy = PolicySpec(scheme="makeidle").resolved(100)
        whole = spec.build_devices(policy)
        sliced = (spec.build_devices(policy, 0, 4)
                  + spec.build_devices(policy, 4, 10))
        assert [d.device_id for d in whole] == [d.device_id for d in sliced]
        assert [d.cohort for d in whole] == [d.cohort for d in sliced]
        assert [d.policy.name for d in whole] == [d.policy.name for d in sliced]
        for a, b in zip(whole, sliced):
            assert list(a.trace) == list(b.trace)

    def test_mixed_policy_overrides_device_policies(self):
        spec = cell(devices=10, scenario="mixed_policy", duration=200.0)
        devices = spec.build_devices(PolicySpec(scheme="makeidle").resolved(100))
        by_cohort = {}
        for device in devices:
            by_cohort.setdefault(device.cohort, set()).add(device.policy.name)
        assert by_cohort["legacy_fleet"] == {"status_quo"}
        assert by_cohort["early_adopters"] == {"makeidle+makeactive_learn"}
        # The un-overridden cohort runs the sweep's policy axis value.
        assert by_cohort["standard"] == {"makeidle"}

    def test_intensity_thins_traffic(self):
        quiet = Scenario(
            name="quiet",
            cohorts=(Cohort(archetype=get_archetype("idle_messenger")),),
        )
        busy = Scenario(
            name="busy",
            cohorts=(Cohort(archetype=get_archetype("background_chatter")),),
        )
        # idle_messenger: im at intensity 0.35; compare against im+email at
        # 1.0 — the quiet archetype must produce far fewer packets.
        policy = PolicySpec(scheme="status_quo")
        quiet_packets = sum(
            1 for d in
            cell(devices=3, scenario=quiet, duration=600.0).build_devices(policy)
            for _ in d.trace
        )
        busy_packets = sum(
            1 for d in
            cell(devices=3, scenario=busy, duration=600.0).build_devices(policy)
            for _ in d.trace
        )
        assert 0 < quiet_packets < busy_packets


class TestScenarioExecution:
    def test_cohort_breakdown_partitions_cell_totals(self):
        result = execute_cell(_run_spec())
        breakdown = result.cohort_breakdown()
        assert set(breakdown) == set(result.cohorts())
        assert sum(b.devices for b in breakdown.values()) == len(result.devices)
        assert sum(b.packets for b in breakdown.values()) == result.total_packets
        assert (sum(b.energy_j for b in breakdown.values())
                == pytest.approx(result.total_energy_j, rel=1e-12))
        assert (sum(b.dormancy_requests for b in breakdown.values())
                == result.dormancy_requests)

    @pytest.mark.parametrize("scenario_name", ["office_day", "mixed_policy"])
    def test_sharded_runs_byte_identical(self, scenario_name):
        reference = execute_cell(_run_spec(scenario_name, devices=11))
        sharded = execute_cell(_run_spec(scenario_name, devices=11), shards=3)
        assert sharded.devices == reference.devices
        assert sharded.signaling == reference.signaling
        assert sharded.switch_times == reference.switch_times
        assert sharded.cohort_breakdown() == reference.cohort_breakdown()

    def test_mixed_policy_status_quo_keeps_dormancy_in_cache_key(self):
        accept = _run_spec("mixed_policy", scheme="status_quo")
        reject = _run_spec("mixed_policy", scheme="status_quo",
                           dormancy=DormancySpec("reject_all"))
        assert accept.cache_key != reject.cache_key

    def test_homogeneous_status_quo_still_collapses_dormancy(self):
        accept = _run_spec("uniform", scheme="status_quo")
        reject = _run_spec("uniform", scheme="status_quo",
                           dormancy=DormancySpec("reject_all"))
        assert accept.cache_key == reject.cache_key

    def test_mixed_policy_legacy_cohort_ignores_policy_axis(self):
        # The legacy cohort is pinned to status_quo: its devices behave
        # identically whether the axis says status_quo or makeidle.
        baseline = execute_cell(_run_spec("mixed_policy", scheme="status_quo"))
        treated = execute_cell(_run_spec("mixed_policy", scheme="makeidle"))
        legacy_ids = [d.device_id for d in baseline.devices
                      if d.cohort == "legacy_fleet"]
        assert legacy_ids
        for device_id in legacy_ids:
            assert (baseline.device(device_id).breakdown
                    == treated.device(device_id).breakdown)


class TestScenarioPlans:
    def _plan(self, *names, devices=8):
        return (
            plan()
            .scenarios(*names, devices=devices, duration=250.0)
            .carriers("att_hspa")
            .policies("status_quo", "makeidle")
        )

    def test_scenarios_axis_expands_like_cells(self):
        p = self._plan("office_day", "evening_peak")
        assert p.is_cell_plan
        assert len(p) == 4
        scenarios = {spec.cell.scenario.name for spec in p.build()}
        assert scenarios == {"office_day", "evening_peak"}

    def test_scenarios_axis_rejects_bad_entries(self):
        with pytest.raises(TypeError, match="Scenario or a preset"):
            plan().scenarios(42)
        with pytest.raises(KeyError, match="available presets"):
            plan().scenarios("not_a_preset")

    def test_plan_round_trips_scenarios_through_dict(self):
        p = self._plan("mixed_policy").dormancy("accept_all").shards(2)
        clone = type(p).from_dict(p.to_dict())
        assert clone.build() == p.build()

    def test_runner_reports_per_cohort_records(self):
        runs = SerialRunner().run(self._plan("office_day"))
        rows = runs.to_records()
        for row in rows:
            cohorts = row["cohorts"]
            assert set(cohorts) == {"office_worker", "heavy_streamer",
                                    "idle_messenger"}
            assert sum(c["devices"] for c in cohorts.values()) == row["devices"]
            assert sum(c["energy_j"] for c in cohorts.values()) == pytest.approx(
                row["energy_j"], rel=1e-12
            )
        makeidle = next(r for r in rows if r["scheme"] == "makeidle")
        for entry in makeidle["cohorts"].values():
            assert "saved_percent" in entry

    def test_homogeneous_records_have_no_cohorts_key(self):
        p = (
            plan()
            .cells(cell(devices=4, apps=("im",), duration=200.0))
            .carriers("att_hspa")
            .policies("status_quo")
        )
        rows = SerialRunner().run(p).to_records()
        assert all("cohorts" not in row for row in rows)

    def test_csv_export_omits_nested_cohorts(self, tmp_path):
        runs = SerialRunner().run(self._plan("office_day", devices=4))
        path = tmp_path / "out.csv"
        runs.to_csv(path)
        text = path.read_text(encoding="utf-8")
        assert "cohorts" not in text
        assert "energy_j" in text
