"""Signalling load: the most state switches in any window of time.

Every promotion and fast-dormancy request costs the base station
signalling messages, so a cell reports its busiest minute of switches
(:func:`peak_per_window` over the cell's switch timeline).  The per-run
ratios of Figures 10(b)/(c), 11(b)/(c) and 18 are methods of
:class:`~repro.sim.results.SimulationResult`: ``switches_normalized``
and ``energy_saved_per_switch``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["peak_per_window"]


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
