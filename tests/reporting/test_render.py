"""Tests for the low-level renderers (markdown tables, CSV)."""

import csv
import io

import pytest

from repro.reporting import csv_rows, format_markdown_table, write_csv


class TestMarkdownTable:
    def test_structure(self):
        table = format_markdown_table(["a", "b"], [[1, 2.5], ["x", "y"]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1].count("---") == 2
        assert lines[2] == "| 1 | 2.5 |"
        assert lines[3] == "| x | y |"

    def test_float_trimming(self):
        table = format_markdown_table(["v"], [[1.0], [0.3333333]])
        assert "| 1 |" in table
        assert "| 0.333 |" in table

    def test_whole_and_zero_floats_lose_their_decimals(self):
        table = format_markdown_table(["v"], [[0.0], [10.0], [100.0], [1.23456]])
        assert table.splitlines()[2:] == [
            "| 0 |", "| 10 |", "| 100 |", "| 1.235 |",
        ]

    def test_headers_without_rows(self):
        assert format_markdown_table(["a", "b"], []).splitlines() == [
            "| a | b |", "| --- | --- |",
        ]

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_markdown_table([], [])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_markdown_table(["a", "b"], [[1]])


class TestCsv:
    def test_round_trip_through_csv_reader(self):
        records = [
            {"carrier": "att_hspa", "saved": 61.5},
            {"carrier": "verizon_lte", "saved": 67.0},
        ]
        text = csv_rows(records)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["carrier"] == "att_hspa"
        assert float(parsed[1]["saved"]) == pytest.approx(67.0)

    def test_missing_fields_become_empty_cells(self):
        text = csv_rows(
            [{"a": 1, "b": 2}, {"a": 3}], fieldnames=["a", "b"]
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[1]["b"] == ""

    def test_extra_fields_rejected(self):
        with pytest.raises(ValueError):
            csv_rows([{"a": 1, "surprise": 2}], fieldnames=["a"])

    def test_empty_records(self):
        assert csv_rows([]) == ""

    def test_fieldnames_set_the_column_order(self):
        text = csv_rows([{"a": 1, "b": 2}], fieldnames=["b", "a"])
        assert text.splitlines() == ["b,a", "2,1"]

    def test_columns_default_to_the_first_record(self):
        text = csv_rows([{"z": 1, "a": 2}, {"a": 3}])
        assert text.splitlines() == ["z,a", "1,2", ",3"]

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        count = write_csv([{"x": 1}, {"x": 2}], path)
        assert count == 2
        assert path.read_text(encoding="utf-8").startswith("x")

    def test_write_csv_without_records_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "out.csv"
        assert write_csv([], path) == 0
        assert path.read_text(encoding="utf-8") == ""
