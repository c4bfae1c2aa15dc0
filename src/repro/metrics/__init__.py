"""Evaluation metrics: savings, signalling overhead, confusion vs Oracle, delays."""

from .confusion import ConfusionCounts, confusion_for_result, confusion_from_decisions
from .delays import DelayStats, delay_stats, delay_stats_for_result
from .savings import SavingsReport, compare, energy_saved_percent, savings_table

__all__ = [
    "ConfusionCounts",
    "DelayStats",
    "SavingsReport",
    "compare",
    "confusion_for_result",
    "confusion_from_decisions",
    "delay_stats",
    "delay_stats_for_result",
    "energy_saved_percent",
    "savings_table",
]
