"""Signalling-overhead metrics: state-switch counts and normalisations.

Figures 10(b), 11(b) and 18 report the number of radio state switches of
each scheme divided by the number under the status quo, because every
promotion costs the base station signalling messages and channel
(re)allocation work.  These helpers compute the counts, the normalised
ratios and the "energy saved per switch" efficiency measure of
Figures 10(c)/11(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..rrc.state_machine import SwitchKind
from ..sim.results import SimulationResult

__all__ = [
    "SwitchStats",
    "peak_per_window",
    "switch_stats",
    "switches_normalized_table",
]


def peak_per_window(
    times: Sequence[float], window_s: float, presorted: bool = False
) -> int:
    """Largest number of events falling in any ``window_s``-second window.

    The cell simulation uses this for its peak-switches-per-minute load
    metric.  ``times`` is sorted once unless the caller promises
    ``presorted=True``; the sweep itself is a linear two-pointer pass.

    Windows are **half-open**: an event at time ``t`` and another at
    exactly ``t + window_s`` fall in different windows, so two switches
    exactly one minute apart never count as the same minute's load
    (mirrors :meth:`repro.sim.engine.CellLoad.switches_within_window`).
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    ordered = times if presorted else sorted(times)
    best = 0
    start = 0
    for end, time in enumerate(ordered):
        while time - ordered[start] >= window_s:
            start += 1
        if end - start + 1 > best:
            best = end - start + 1
    return best


@dataclass(frozen=True)
class SwitchStats:
    """Breakdown of the switches recorded in one simulated run."""

    promotions: int
    fast_dormancy_demotions: int
    timer_demotions: int

    @property
    def total(self) -> int:
        """All switches (promotions plus demotions of either kind)."""
        return self.promotions + self.fast_dormancy_demotions + self.timer_demotions

    @property
    def signalling_switches(self) -> int:
        """Switches that cost base-station signalling (promotions + dormancy requests)."""
        return self.promotions + self.fast_dormancy_demotions


def switch_stats(result: SimulationResult) -> SwitchStats:
    """Count the promotions and demotions of one run by kind."""
    promotions = sum(1 for s in result.switches if s.kind is SwitchKind.PROMOTION)  # repro-lint: allow[left-fold] reason=integer count; exact
    dormancy = sum(1 for s in result.switches if s.kind is SwitchKind.FAST_DORMANCY)  # repro-lint: allow[left-fold] reason=integer count; exact
    timer = sum(1 for s in result.switches if s.kind is SwitchKind.TIMER_DEMOTION)  # repro-lint: allow[left-fold] reason=integer count; exact
    return SwitchStats(
        promotions=promotions,
        fast_dormancy_demotions=dormancy,
        timer_demotions=timer,
    )


def switches_normalized_table(
    results: Mapping[str, SimulationResult], baseline: SimulationResult
) -> dict[str, float]:
    """Switch counts of each scheme divided by the status-quo count."""
    return {
        name: result.switches_normalized(baseline)
        for name, result in results.items()
    }


def energy_saved_per_switch_table(
    results: Mapping[str, SimulationResult], baseline: SimulationResult
) -> dict[str, float]:
    """Joules saved per switch performed, per scheme (Figures 10c/11c)."""
    return {
        name: result.energy_saved_per_switch(baseline)
        for name, result in results.items()
    }
