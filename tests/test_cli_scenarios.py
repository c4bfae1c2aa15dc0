"""CLI validation for scenario sweeps: flag guards, presets, plan round-trips."""

import json

import pytest

from repro.api import load_plan
from repro.cli import main
from repro.scenarios import scenario_names


def _sweep(*extra):
    return main([
        "sweep", "--cell", "--devices", "8", "--duration", "200",
        "--carriers", "att_hspa", "--schemes", "makeidle", *extra,
    ])


class TestScenarioFlagValidation:
    def test_scenario_without_cell_is_rejected(self, capsys):
        code = main(["sweep", "--apps", "im", "--scenario", "office_day",
                     "--duration", "120"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--scenario" in err
        assert "--cell" in err

    def test_unknown_preset_lists_available_presets(self, capsys):
        code = _sweep("--scenario", "not_a_preset")
        assert code == 2
        err = capsys.readouterr().err
        for name in scenario_names():
            assert name in err

    def test_scenario_conflicts_with_apps(self, capsys):
        code = main([
            "sweep", "--cell", "--apps", "im", "--scenario", "uniform",
            "--duration", "120",
        ])
        assert code == 2
        assert "--apps" in capsys.readouterr().err

    def test_empty_scenario_list_is_rejected(self, capsys):
        code = _sweep("--scenario", ",")
        assert code == 2
        assert "at least one preset" in capsys.readouterr().err


class TestScenarioSweeps:
    def test_scenario_sweep_prints_cohort_table(self, capsys):
        code = _sweep("--scenario", "office_day")
        assert code == 0
        out = capsys.readouterr().out
        assert "office_day" in out
        assert "cohort" in out
        for cohort in ("office_worker", "heavy_streamer", "idle_messenger"):
            assert cohort in out
        # The cohort table repeats the disambiguating axes of the cell
        # table (carrier/shards/seed), so multi-carrier or repeated
        # sweeps stay readable.
        cohort_header = [line for line in out.splitlines()
                         if "cohort" in line and "carrier" in line]
        assert cohort_header and "seed" in cohort_header[0]

    def test_scenario_json_carries_cohort_breakdowns(self, capsys):
        code = _sweep("--scenario", "uniform", "--json", "-")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        records = payload["records"]
        assert records
        for record in records:
            assert set(record["cohorts"]) == {"background_chatter"}

    def test_multiple_presets_sweep_together(self, capsys):
        code = _sweep("--scenario", "uniform,evening_peak", "--json", "-")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        labels = {record["trace"] for record in payload["records"]}
        assert any(label.startswith("uniform") for label in labels)
        assert any(label.startswith("evening_peak") for label in labels)


class TestScenarioPlanRoundTrip:
    def test_save_plan_round_trips_scenario_json(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code = _sweep("--scenario", "mixed_policy", "--shards", "2",
                      "--save-plan", str(plan_path))
        assert code == 0
        first = capsys.readouterr()

        saved = load_plan(plan_path)
        assert saved.is_cell_plan
        (spec,) = saved.cell_specs
        assert spec.scenario is not None
        assert spec.scenario.name == "mixed_policy"
        assert spec.scenario.has_policy_overrides

        # Replaying the saved plan reproduces the exact same sweep.
        code = main(["sweep", "--plan", str(plan_path)])
        assert code == 0
        replay = capsys.readouterr()
        assert replay.out == first.out

    def test_saved_plan_json_is_self_contained(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code = _sweep("--scenario", "office_day", "--save-plan",
                      str(plan_path))
        assert code == 0
        capsys.readouterr()
        data = json.loads(plan_path.read_text(encoding="utf-8"))
        (cell_entry,) = data["cells"]
        scenario = cell_entry["scenario"]
        assert scenario["name"] == "office_day"
        assert scenario["shape"]["name"] == "office_hours"
        assert [c["archetype"]["name"] for c in scenario["cohorts"]] == [
            "office_worker", "heavy_streamer", "idle_messenger",
        ]
