"""Result rendering: text/markdown tables, CSV export, paper-vs-measured reports.

The :mod:`repro.analysis` drivers return plain data structures; this package
turns them into artefacts people actually read — fixed-width tables for the
terminal, markdown tables for EXPERIMENTS.md, CSV files for spreadsheets,
and a paper-comparison report that checks every measured headline number
against the claim the paper makes for it.
"""

from .claims import PAPER_CLAIMS, ClaimCheck, PaperClaim, check_claims
from .render import csv_rows, format_markdown_table, write_csv
from .report import experiments_report, headline_report

__all__ = [
    "PAPER_CLAIMS",
    "ClaimCheck",
    "PaperClaim",
    "check_claims",
    "csv_rows",
    "experiments_report",
    "format_markdown_table",
    "headline_report",
    "write_csv",
]
