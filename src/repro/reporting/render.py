"""Low-level renderers: markdown tables and CSV export."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["format_markdown_table", "csv_rows", "write_csv"]


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Render a GitHub-flavoured markdown table.

    Cells are converted with ``str``; floats are shown with three significant
    decimals to keep the table readable.
    """
    if not headers:
        raise ValueError("headers must not be empty")
    width = len(headers)
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {width}"
            )

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
        return str(value)

    lines = [
        "| " + " | ".join(cell(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(value) for value in row) + " |")
    return "\n".join(lines)


def csv_rows(
    records: Sequence[Mapping[str, Any]], fieldnames: Sequence[str] | None = None
) -> str:
    """Render a list of dictionaries as CSV text.

    ``fieldnames`` defaults to the keys of the first record (in order);
    records missing a field emit an empty cell, extra fields are an error —
    silently dropping data from a results file is worse than failing.
    """
    if not records:
        return ""
    names = list(fieldnames) if fieldnames is not None else list(records[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=names)
    writer.writeheader()
    for record in records:
        extras = set(record) - set(names)
        if extras:
            raise ValueError(
                f"record has fields {sorted(extras)} not listed in {names}"
            )
        writer.writerow({name: record.get(name, "") for name in names})
    return buffer.getvalue()


def write_csv(
    records: Sequence[Mapping[str, Any]],
    path: str | Path,
    fieldnames: Sequence[str] | None = None,
) -> int:
    """Write records to a CSV file; returns the number of data rows written."""
    text = csv_rows(records, fieldnames)
    Path(path).write_text(text, encoding="utf-8")
    return len(records)
