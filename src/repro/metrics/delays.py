"""Session-delay metrics for MakeActive (Figure 15 and Table 3).

MakeActive trades a bounded session-start delay for fewer promotions.  The
paper reports the mean and median delay per traffic burst for the learning
and fixed-bound variants (Figure 15) and per carrier (Table 3).  The
helpers here summarise the per-session delays a simulation recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..folds import left_fold
from ..sim.results import SimulationResult

__all__ = ["DelayStats", "delay_stats", "delay_stats_for_result"]


@dataclass(frozen=True)
class DelayStats:
    """Summary statistics of a collection of session delays (seconds)."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float
    delayed_fraction: float

    @classmethod
    def empty(cls) -> "DelayStats":
        """Statistics of an empty delay collection (all zeros)."""
        return cls(count=0, mean=0.0, median=0.0, p95=0.0, maximum=0.0,
                   delayed_fraction=0.0)


def delay_stats(delays: Iterable[float]) -> DelayStats:
    """Summarise a collection of per-session delays.

    ``delayed_fraction`` is the share of sessions that were actually held
    back (delay > 10 ms); the fixed-bound scheme pushes most sessions to the
    full bound while the learning scheme spreads them lower — the contrast
    the paper draws in Section 5.2.
    """
    values = sorted(float(d) for d in delays)
    if not values:
        return DelayStats.empty()
    count = len(values)
    mean = left_fold(values) / count
    mid = count // 2
    median = values[mid] if count % 2 else (values[mid - 1] + values[mid]) / 2.0
    p95_index = min(count - 1, max(0, int(round(0.95 * count)) - 1))
    delayed = sum(1 for v in values if v > 0.01)  # repro-lint: allow[left-fold] reason=integer count; exact
    return DelayStats(
        count=count,
        mean=mean,
        median=median,
        p95=values[p95_index],
        maximum=values[-1],
        delayed_fraction=delayed / count,
    )


def delay_stats_for_result(
    result: SimulationResult, only_delayed: bool = False
) -> DelayStats:
    """Delay statistics of one simulated run.

    With ``only_delayed=True`` sessions that were promoted immediately
    (zero delay) are excluded, which matches the per-burst delay numbers in
    Figure 15 / Table 3 (those figures discuss the delays MakeActive
    *introduces*).
    """
    delays: Sequence[float] = result.delays
    if only_delayed:
        delays = [d for d in delays if d > 0.01]
    return delay_stats(delays)
