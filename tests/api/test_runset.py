"""Tests for the RunSet result container: grouping, normalisation, export."""

from __future__ import annotations

import csv
import json

import pytest

from repro.api import SerialRunner, plan
from repro.metrics.savings import compare


@pytest.fixture(scope="module")
def runs():
    sweep = (plan()
             .apps("im", "email", duration=600.0)
             .carriers("att_hspa", "verizon_lte")
             .policies("status_quo", "makeidle", "oracle")
             .window_size(30))
    return SerialRunner().run(sweep)


class TestGrouping:
    def test_group_by_single_axis(self, runs):
        by_carrier = runs.group_by("carrier")
        assert set(by_carrier) == {"att_hspa", "verizon_lte"}
        assert all(len(group) == 6 for group in by_carrier.values())

    def test_group_by_multiple_axes(self, runs):
        cells = runs.group_by("trace", "carrier")
        assert len(cells) == 4
        for (trace, carrier), cell in cells.items():
            assert {r.trace_label for r in cell} == {trace}
            assert {r.carrier for r in cell} == {carrier}

    def test_group_by_rejects_unknown_axis(self, runs):
        # The kernel is picked per shard, not declared: "engine" is no axis.
        for axis in ("flavour", "engine"):
            with pytest.raises(ValueError):
                runs.group_by(axis)
        with pytest.raises(ValueError):
            runs.group_by()

    def test_only_filters_conjunctively(self, runs):
        subset = runs.only(trace="im", carrier="att_hspa")
        assert len(subset) == 3
        assert {r.scheme for r in subset} == {"status_quo", "makeidle", "oracle"}


class TestNormalisation:
    def test_savings_matches_metrics_compare(self, runs):
        table = runs.savings()
        for (trace, carrier, seed), per_scheme in table.items():
            cell = runs.only(trace=trace, carrier=carrier, seed=seed)
            baseline = next(r for r in cell if r.scheme == "status_quo")
            for scheme, report in per_scheme.items():
                record = next(r for r in cell if r.scheme == scheme)
                assert report == compare(record.result, baseline.result)

    def test_savings_excludes_baseline_itself(self, runs):
        for per_scheme in runs.savings().values():
            assert "status_quo" not in per_scheme
            assert set(per_scheme) == {"makeidle", "oracle"}

    def test_savings_requires_baseline_in_plan(self):
        sweep = (plan().apps("im", duration=600.0).carriers("att_hspa")
                 .policies("makeidle"))
        baseline_free = SerialRunner().run(sweep)
        with pytest.raises(ValueError):
            baseline_free.savings()

    def test_baseline_for_finds_cell_baseline(self, runs):
        record = next(r for r in runs if r.scheme == "oracle")
        baseline = runs.baseline_for(record)
        assert baseline is not None
        assert baseline.scheme == "status_quo"
        assert baseline.group_key == record.group_key


class TestExport:
    def test_to_records_carries_normalised_columns(self, runs):
        rows = runs.to_records()
        assert len(rows) == len(runs)
        for row in rows:
            assert {"trace", "carrier", "scheme", "seed", "energy_j",
                    "saved_percent", "switches_normalized"} <= set(row)
        baseline_rows = [r for r in rows if r["scheme"] == "status_quo"]
        assert all(r["saved_percent"] == 0.0 for r in baseline_rows)

    def test_to_records_without_baseline_normalisation(self, runs):
        rows = runs.to_records(baseline_scheme=None)
        assert all("saved_percent" not in r for r in rows)

    def test_to_csv(self, runs, tmp_path):
        path = tmp_path / "runs.csv"
        runs.to_csv(path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(runs)
        assert rows[0]["scheme"] == "status_quo"

    def test_to_json_round_trips_and_embeds_cache_stats(self, runs, tmp_path):
        path = tmp_path / "runs.json"
        text = runs.to_json(path)
        payload = json.loads(text)
        assert payload == json.loads(path.read_text(encoding="utf-8"))
        assert len(payload["records"]) == len(runs)
        assert payload["cache"]["misses"] == runs.cache_stats.misses

    def test_slicing_preserves_runset_type(self, runs):
        head = runs[:4]
        assert len(head) == 4
        assert head.cache_stats is runs.cache_stats
