"""Text renderers for the reproduced tables and figures.

The benchmark harness prints its results as plain-text tables so they can
be compared with the paper's figures without any plotting dependency.
These helpers are deliberately dumb: they format numbers, they never
compute them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_grouped_bars"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render a list of rows as an aligned plain-text table."""
    rendered_rows = [
        [
            float_format.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_grouped_bars(
    groups: Mapping[str, Mapping[str, float]],
    title: str = "",
    unit: str = "",
    float_format: str = "{:.1f}",
) -> str:
    """Render ``{group: {series: value}}`` as a table (groups are rows).

    This matches the grouped-bar figures of the paper (e.g. energy saved per
    user per scheme): one row per group, one column per series.
    """
    series: list[str] = []
    for group_values in groups.values():
        for name in group_values:
            if name not in series:
                series.append(name)
    rows = []
    for group, group_values in groups.items():
        row: list[object] = [group]
        for name in series:
            value = group_values.get(name)
            row.append(float_format.format(value) + unit if value is not None else "-")
        rows.append(row)
    return format_table(["group"] + series, rows, title=title)
