"""Tests for the plain-text table renderers."""

from __future__ import annotations

from repro.analysis import format_grouped_bars, format_table


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.50" in text
        assert "bb" in text

    def test_column_alignment(self):
        text = format_table(["x", "long_header"], [["val", 1.0]])
        header, rule, row = text.splitlines()
        assert len(header) == len(rule)

    def test_custom_float_format(self):
        text = format_table(["v"], [[3.14159]], float_format="{:.4f}")
        assert "3.1416" in text

    def test_untitled_table_starts_with_the_header(self):
        lines = format_table(["a", "b"], [[1, 2]]).splitlines()
        assert lines == ["a  b", "-  -", "1  2"]

    def test_headers_without_rows(self):
        assert format_table(["name"], []).splitlines() == ["name", "----"]

    def test_non_float_cells_stringified(self):
        text = format_table(["a", "b"], [[None, 7]])
        assert "None" in text
        assert "7" in text


class TestFormatGroupedBars:
    def test_groups_become_rows(self):
        text = format_grouped_bars(
            {"user1": {"makeidle": 60.0, "oracle": 70.0},
             "user2": {"makeidle": 55.0}},
            title="savings",
        )
        lines = text.splitlines()
        assert lines[0] == "savings"
        assert any("user1" in line and "60.0" in line for line in lines)
        # Missing series entries render as '-'.
        assert any("user2" in line and "-" in line for line in lines)

    def test_series_union_preserved(self):
        text = format_grouped_bars({"g1": {"a": 1.0}, "g2": {"b": 2.0}})
        header = text.splitlines()[0]
        assert "a" in header and "b" in header

    def test_unit_and_float_format_apply_to_every_value(self):
        text = format_grouped_bars({"u1": {"a": 61.25, "b": 7.0}},
                                   unit="%", float_format="{:.2f}")
        row = text.splitlines()[-1]
        assert "61.25%" in row and "7.00%" in row

    def test_series_keep_first_seen_order(self):
        text = format_grouped_bars({"g1": {"z": 1.0}, "g2": {"a": 2.0, "z": 3.0}})
        assert text.splitlines()[0].split() == ["group", "z", "a"]

    def test_no_groups_gives_the_header_only(self):
        assert format_grouped_bars({}).splitlines() == ["group", "-----"]
