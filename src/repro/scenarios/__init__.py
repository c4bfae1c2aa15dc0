"""Scenario library: heterogeneous populations, diurnal shaping, mixed policies.

Real cells are not 10 000 copies of one phone.  This package describes
*who* is in a cell and *when* they talk, declaratively and serialisably:

* :class:`DeviceArchetype` — one kind of device: an application mix at a
  traffic intensity (``heavy_streamer``, ``background_chatter``,
  ``idle_messenger``, ...);
* :class:`DiurnalShape` — a piecewise-constant time-of-day session-rate
  envelope (office hours, evening peak), applied to the streamed packet
  generators in :mod:`repro.traces.streaming`;
* :class:`Cohort` / :class:`Scenario` — weighted archetype cohorts, each
  optionally running its *own* device-side RRC policy (mixed-policy
  cells), composed into one digest-stable population description;
* :data:`SCENARIO_PRESETS` — the built-in library (``uniform``,
  ``office_day``, ``evening_peak``, ``mixed_policy``), also reachable as
  ``repro-rrc sweep --cell --scenario NAME``.

A :class:`Scenario` plugs into the cell sweep lifecycle through
:class:`repro.api.cells.CellSpec` (``scenario=...``) and the plan-level
:meth:`repro.api.plan.ExperimentPlan.scenarios` axis; cell results then
report per-cohort energy/denial/switch breakdowns
(:meth:`repro.basestation.cell.CellResult.cohort_breakdown`).
"""

from .archetypes import ARCHETYPES, DeviceArchetype, get_archetype
from .presets import SCENARIO_PRESETS, get_scenario, scenario_names
from .scenario import Cohort, Scenario
from .shapes import EVENING_PEAK, FLAT, OFFICE_HOURS, DiurnalShape

__all__ = [
    "ARCHETYPES",
    "Cohort",
    "DeviceArchetype",
    "DiurnalShape",
    "EVENING_PEAK",
    "FLAT",
    "OFFICE_HOURS",
    "SCENARIO_PRESETS",
    "Scenario",
    "get_archetype",
    "get_scenario",
    "scenario_names",
]
