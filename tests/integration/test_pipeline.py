"""End-to-end pipeline tests: plan file -> simulation -> metrics -> report.

These exercise the path a downstream user takes: describe an experiment as
an :class:`~repro.api.plan.ExperimentPlan`, save it to a JSON plan file and
load it back, run the planned schemes, and render the outcome with the
reporting layer — all without touching any module internals.
"""

import json

import pytest

from repro.api import ExperimentPlan, SerialRunner, load_plan, plan, save_plan
from repro.metrics import savings_table
from repro.reporting import csv_rows, format_markdown_table, headline_report
from repro.rrc import get_profile, signaling_load


def run_experiment(experiment: ExperimentPlan):
    """Run one planned experiment and return (baseline, {scheme: result})."""
    results = {record.scheme: record.result
               for record in SerialRunner().run(experiment)}
    baseline = results.pop("status_quo")
    return baseline, results


class TestPlannedPipeline:
    @pytest.fixture
    def planned(self):
        return (plan()
                .apps("im", duration=900.0, seed=4)
                .carriers("att_hspa")
                .policies("status_quo", "makeidle", "oracle")
                .window_size(50)
                .labelled("pipeline-test"))

    @pytest.fixture
    def experiment(self, tmp_path, planned):
        path = tmp_path / "experiment.json"
        save_plan(planned, path)
        return load_plan(path)

    def test_plan_round_trip_then_run(self, planned, experiment):
        assert experiment == planned
        baseline, results = run_experiment(experiment)
        assert set(results) == {"makeidle", "oracle"}
        assert baseline.total_energy_j > 0
        for result in results.values():
            assert result.total_energy_j > 0

    def test_metrics_and_report_from_results(self, experiment):
        baseline, results = run_experiment(experiment)
        table = savings_table(results, baseline)
        assert table["oracle"].saved_percent >= table["makeidle"].saved_percent - 1.0

        markdown = format_markdown_table(
            ["scheme", "saved %"],
            [[scheme, round(report.saved_percent, 1)] for scheme, report in table.items()],
        )
        assert "makeidle" in markdown

        records = [
            {"scheme": scheme, "saved_percent": report.saved_percent}
            for scheme, report in table.items()
        ]
        text = csv_rows(records)
        assert text.splitlines()[0] == "scheme,saved_percent"

    def test_signaling_load_comparison(self, experiment):
        baseline, results = run_experiment(experiment)
        (carrier,) = experiment.carrier_keys
        profile = get_profile(carrier)
        (trace,) = experiment.trace_specs
        duration = trace.duration_s
        baseline_load = signaling_load(
            baseline.switches, duration, technology=profile.technology
        )
        makeidle_load = signaling_load(
            results["makeidle"].switches, duration, technology=profile.technology
        )
        # MakeIdle introduces fast-dormancy releases the status quo never does.
        assert makeidle_load.fast_dormancy_demotions > 0
        assert baseline_load.fast_dormancy_demotions == 0
        assert makeidle_load.messages > 0

    def test_headline_report_from_measured_savings(self, experiment):
        baseline, results = run_experiment(experiment)
        saving = 100.0 * results["makeidle"].energy_saved_fraction(baseline)
        report = headline_report({"makeidle_3g_savings_high": saving})
        assert "makeidle_3g_savings_high" in report
        assert "headline claims reproduced" in report

    def test_plan_json_is_human_editable(self, tmp_path, planned):
        path = tmp_path / "experiment.json"
        save_plan(planned, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["carriers"] = ["verizon_lte"]
        path.write_text(json.dumps(data), encoding="utf-8")
        edited = load_plan(path)
        assert edited.carrier_keys == ("verizon_lte",)
        assert edited.trace_specs == planned.trace_specs
