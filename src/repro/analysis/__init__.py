"""Experiment drivers and text renderers for the paper's tables and figures."""

from .experiments import (
    CarrierComparisonRow,
    UserStudyResult,
    application_energy_breakdowns,
    application_savings,
    carrier_comparison,
    headline_savings,
    learning_curve,
    run_schemes,
    twait_series,
    user_study,
    window_size_sweep,
)
from .figures import format_grouped_bars, format_table

__all__ = [
    "CarrierComparisonRow",
    "UserStudyResult",
    "application_energy_breakdowns",
    "application_savings",
    "carrier_comparison",
    "format_grouped_bars",
    "format_table",
    "headline_savings",
    "learning_curve",
    "run_schemes",
    "twait_series",
    "user_study",
    "window_size_sweep",
]
