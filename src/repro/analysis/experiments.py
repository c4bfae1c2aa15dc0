"""Experiment drivers: one thin plan declaration per paper table/figure family.

Each driver builds an :class:`~repro.api.plan.ExperimentPlan` over the
workload × carrier × policy grid of its figure, runs it, and reshapes the
resulting :class:`~repro.api.runset.RunSet` into the result types the
benchmarks and figures consume.  The plan is the driver's only execution
path: a driver that takes a :class:`CarrierProfile` declares
``.carriers(profile.key)`` and runs the plan through one helper.

* A registered profile runs on a runner: ``runner=`` if given, else the
  process-wide :func:`~repro.api.runner.default_runner`, so the
  status-quo baseline of a (trace, carrier) pair is simulated once and
  reused across drivers instead of once per figure.
* An ablated variant — a registered key carrying other values, such as
  ``get_profile("att_hspa").with_dormancy_fraction(0.1)`` or
  :func:`~repro.rrc.drx.profile_with_drx` — would share that carrier's
  cache keys, so the same grid runs spec by spec on
  ``TraceSimulator(profile)`` and nothing is stored in any cache.
* A profile whose key the registry does not know raises the registry's
  ``KeyError`` from ``.carriers()``; such a carrier runs on
  :class:`~repro.sim.simulator.TraceSimulator` directly.

Two drivers remain direct simulator calls by design: :func:`twait_series`
and :func:`learning_curve` inspect the *internal state* of one policy
instance after its run (MakeIdle's wait history, MakeActive's learning
iterations), which a declarative grid of reconstructable specs cannot
expose.

Every driver takes explicit duration/seed arguments so benchmarks can trade
runtime for fidelity; the defaults are sized to finish in seconds on a
laptop while preserving the qualitative shape of the paper's results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..api import PolicySpec, Runner, default_runner, inline, plan
from ..api.plan import ExperimentPlan
from ..api.runset import RunRecord, RunSet
from ..api.spec import build_trace
from ..core.controller import SCHEME_ORDER, build_scheme
from ..core.makeactive import LearningMakeActive, LearningRecord
from ..core.makeidle import WaitDecision
from ..energy.accounting import EnergyBreakdown
from ..energy.model import TailEnergyModel
from ..metrics.confusion import ConfusionCounts, confusion_for_result
from ..metrics.delays import DelayStats, delay_stats, delay_stats_for_result
from ..metrics.savings import SavingsReport, savings_table
from ..rrc.profiles import CARRIER_ORDER, CarrierProfile, get_profile
from ..sim.simulator import TraceSimulator
from ..sim.results import SimulationResult
from ..traces.packet import PacketTrace
from ..traces.synthetic import APPLICATION_NAMES
from ..traces.users import user_ids

__all__ = [
    "run_schemes",
    "application_energy_breakdowns",
    "application_savings",
    "user_study",
    "carrier_comparison",
    "window_size_sweep",
    "twait_series",
    "learning_curve",
    "headline_savings",
    "UserStudyResult",
    "CarrierComparisonRow",
]

#: Schemes whose demotion behaviour is compared against the Oracle in Fig. 12.
CONFUSION_SCHEMES: tuple[str, ...] = ("fixed_4.5s", "p95_iat", "makeidle")

#: Every compared scheme plus the normalisation baseline, in display order.
_ALL_SCHEMES: tuple[str, ...] = ("status_quo",) + SCHEME_ORDER


def _runner(runner: Runner | None) -> Runner:
    return runner if runner is not None else default_runner()


def _run(p: ExperimentPlan, profile: CarrierProfile,
         runner: Runner | None) -> RunSet:
    """Run a driver's plan, declared with ``.carriers(profile.key)``.

    A registered profile runs on the runner.  An ablated variant of a
    registered carrier runs the same grid spec by spec on
    ``TraceSimulator(profile)``, uncached: its results must not land under
    the registered carrier's cache keys.
    """
    if profile == get_profile(profile.key):
        return _runner(runner).run(p)
    simulator = TraceSimulator(profile)
    return RunSet([
        RunRecord(spec=spec, result=simulator.run(build_trace(spec.trace),
                                                  spec.policy.build()))
        for spec in p.build()
    ])


def run_schemes(
    trace: PacketTrace,
    profile: CarrierProfile,
    window_size: int = 100,
    runner: Runner | None = None,
) -> dict[str, SimulationResult]:
    """Simulate ``trace`` under the status quo plus every compared scheme.

    Returns a dict keyed by scheme name, with ``"status_quo"`` always
    included first so callers can normalise against it.
    """
    p = (plan()
         .traces(inline(trace))
         .carriers(profile.key)
         .policies(*_ALL_SCHEMES)
         .window_size(window_size))
    return {r.scheme: r.result for r in _run(p, profile, runner)}


# ----------------------------------------------------------------------------------
# Figure 1: per-application energy breakdown under the status quo
# ----------------------------------------------------------------------------------

def application_energy_breakdowns(
    profile: CarrierProfile,
    apps: Sequence[str] = APPLICATION_NAMES,
    duration: float = 3600.0,
    seed: int = 0,
    runner: Runner | None = None,
) -> dict[str, EnergyBreakdown]:
    """Status-quo energy breakdown (data / DCH tail / FACH tail / switch) per app."""
    p = (plan()
         .apps(*apps, duration=duration, seed=seed)
         .carriers(profile.key)
         .policies("status_quo"))
    return {r.trace_label: r.result.breakdown
            for r in _run(p, profile, runner)}


# ----------------------------------------------------------------------------------
# Figure 9: energy savings per application
# ----------------------------------------------------------------------------------

def application_savings(
    profile: CarrierProfile,
    apps: Sequence[str] = APPLICATION_NAMES,
    duration: float = 3600.0,
    seed: int = 0,
    window_size: int = 100,
    runner: Runner | None = None,
) -> dict[str, dict[str, SavingsReport]]:
    """Energy saved by each scheme on each application trace (Figure 9)."""
    p = (plan()
         .apps(*apps, duration=duration, seed=seed)
         .carriers(profile.key)
         .policies(*_ALL_SCHEMES)
         .window_size(window_size))
    savings = _run(p, profile, runner).savings()
    return {trace: table for (trace, _carrier, _seed), table in savings.items()}


# ----------------------------------------------------------------------------------
# Figures 10-12 and 15: per-user studies
# ----------------------------------------------------------------------------------

@dataclass(frozen=True)
class UserStudyResult:
    """Per-user outcome of the scheme comparison (drives Figures 10-12, 15)."""

    user_id: int
    savings: dict[str, SavingsReport]
    confusion: dict[str, ConfusionCounts]
    delays: dict[str, DelayStats]
    status_quo_energy_j: float
    status_quo_switches: int


def _study_outcome(
    uid: int, cell: RunSet, threshold: float
) -> UserStudyResult:
    """Shape one (user, carrier) cell of a run set into a study result."""
    results = {r.scheme: r.result for r in cell}
    baseline = results.pop("status_quo")
    savings = savings_table(results, baseline)
    confusion = {
        scheme: confusion_for_result(results[scheme], threshold)
        for scheme in CONFUSION_SCHEMES
        if scheme in results
    }
    delays = {
        scheme: delay_stats_for_result(results[scheme], only_delayed=True)
        for scheme in ("makeidle+makeactive_learn", "makeidle+makeactive_fixed")
        if scheme in results
    }
    return UserStudyResult(
        user_id=uid,
        savings=savings,
        confusion=confusion,
        delays=delays,
        status_quo_energy_j=baseline.total_energy_j,
        status_quo_switches=baseline.switch_count,
    )


def user_study(
    population: str,
    profile: CarrierProfile,
    hours_per_day: float = 2.0,
    seed: int = 0,
    window_size: int = 100,
    users: Iterable[int] | None = None,
    runner: Runner | None = None,
) -> dict[int, UserStudyResult]:
    """Run the full scheme comparison for every user in a population.

    ``population`` selects the synthetic user roster (``"verizon_3g"``,
    ``"verizon_lte"`` or ``"tmobile_3g"``); ``profile`` selects the carrier
    constants, which the paper varies independently of the trace source in
    Section 6.5.
    """
    threshold = TailEnergyModel(profile).t_threshold
    selected = tuple(users) if users is not None else user_ids(population)
    p = (plan()
         .users(population, selected, hours_per_day=hours_per_day, seed=seed)
         .carriers(profile.key)
         .policies(*_ALL_SCHEMES)
         .window_size(window_size))
    cells = _run(p, profile, runner).group_by("trace")
    return {
        uid: _study_outcome(uid, cells[f"{population}:user{uid}"], threshold)
        for uid in selected
    }


# ----------------------------------------------------------------------------------
# Figures 17-18 and Table 3: carrier comparison
# ----------------------------------------------------------------------------------

@dataclass(frozen=True)
class CarrierComparisonRow:
    """Aggregated results for one carrier (one group of bars in Figs 17/18)."""

    carrier_key: str
    saved_percent: dict[str, float]
    switches_normalized: dict[str, float]
    mean_delay_s: dict[str, float]
    median_delay_s: dict[str, float]


def _comparison_row(carrier_key: str, runs: RunSet) -> CarrierComparisonRow:
    """Aggregate one carrier's user runs into a Figure 17/18 row.

    Savings are energy-weighted over users and delays pooled over sessions,
    exactly as the paper's Section 6.5 aggregates.
    """
    total_baseline = 0.0
    total_baseline_switches = 0
    per_scheme_energy: dict[str, float] = {}
    per_scheme_switches: dict[str, int] = {}
    pooled_delays: dict[str, list[float]] = {}
    for cell in runs.group_by("trace").values():
        results = {r.scheme: r.result for r in cell}
        baseline = results.pop("status_quo")
        total_baseline += baseline.total_energy_j
        total_baseline_switches += baseline.switch_count
        for scheme, result in results.items():
            per_scheme_energy[scheme] = (
                per_scheme_energy.get(scheme, 0.0) + result.total_energy_j
            )
            per_scheme_switches[scheme] = (
                per_scheme_switches.get(scheme, 0) + result.switch_count
            )
            if scheme.startswith("makeidle+makeactive"):
                pooled_delays.setdefault(scheme, []).extend(
                    d for d in result.delays if d > 0.01
                )
    saved_percent = {
        scheme: 100.0 * (total_baseline - energy) / total_baseline
        if total_baseline > 0
        else 0.0
        for scheme, energy in per_scheme_energy.items()
    }
    switches_normalized = {
        scheme: (count / total_baseline_switches
                 if total_baseline_switches else float(count))
        for scheme, count in per_scheme_switches.items()
    }
    pooled_stats = {scheme: delay_stats(values)
                    for scheme, values in pooled_delays.items()}
    return CarrierComparisonRow(
        carrier_key=carrier_key,
        saved_percent=saved_percent,
        switches_normalized=switches_normalized,
        mean_delay_s={s: stats.mean for s, stats in pooled_stats.items()},
        median_delay_s={s: stats.median for s, stats in pooled_stats.items()},
    )


def carrier_comparison(
    carriers: Sequence[str] = CARRIER_ORDER,
    population: str = "verizon_3g",
    hours_per_day: float = 2.0,
    seed: int = 0,
    window_size: int = 100,
    users: Iterable[int] | None = None,
    runner: Runner | None = None,
) -> dict[str, CarrierComparisonRow]:
    """Run the scheme comparison across carrier profiles (Figures 17/18, Table 3).

    The same user traces are replayed against each carrier's RRC parameters,
    exactly as the paper's Section 6.5 does, and savings / switch counts /
    MakeActive delays are aggregated over users (energy-weighted for the
    savings, delay-pooled for Table 3).
    """
    selected = tuple(users) if users is not None else user_ids(population)
    p = (plan()
         .users(population, selected, hours_per_day=hours_per_day, seed=seed)
         .carriers(*carriers)
         .policies(*_ALL_SCHEMES)
         .window_size(window_size))
    runs = _runner(runner).run(p)
    by_carrier = runs.group_by("carrier")
    rows: dict[str, CarrierComparisonRow] = {}
    for carrier in carriers:
        carrier_key = get_profile(carrier).key
        rows[carrier_key] = _comparison_row(carrier_key, by_carrier[carrier_key])
    return rows


# ----------------------------------------------------------------------------------
# Figure 13: MakeIdle window-size sweep
# ----------------------------------------------------------------------------------

def window_size_sweep(
    profile: CarrierProfile,
    trace: PacketTrace,
    window_sizes: Sequence[int] = (10, 25, 50, 100, 200, 400),
    runner: Runner | None = None,
) -> dict[int, ConfusionCounts]:
    """False/missed switch rates of MakeIdle as a function of window size ``n``."""
    threshold = TailEnergyModel(profile).t_threshold
    p = (plan()
         .traces(inline(trace))
         .carriers(profile.key)
         .policies(*(PolicySpec("makeidle", window_size=n) for n in window_sizes)))
    return {
        r.spec.policy.window_size: confusion_for_result(r.result, threshold)
        for r in _run(p, profile, runner)
    }


# ----------------------------------------------------------------------------------
# Figure 14: the waiting time chosen by MakeIdle over a trace
# ----------------------------------------------------------------------------------

def twait_series(
    profile: CarrierProfile,
    trace: PacketTrace,
    window_size: int = 100,
) -> list[WaitDecision]:
    """The sequence of MakeIdle waiting-time decisions over one trace.

    Runs the simulator directly (not through the plan API): the figure plots
    the *policy instance's* recorded wait history, which only exists on the
    live object after its run.
    """
    simulator = TraceSimulator(profile)
    policy = build_scheme("makeidle", window_size)
    simulator.run(trace, policy)
    return list(policy.wait_history)


# ----------------------------------------------------------------------------------
# Figure 16: MakeActive learning curve
# ----------------------------------------------------------------------------------

def learning_curve(
    profile: CarrierProfile,
    trace: PacketTrace,
    window_size: int = 100,
) -> list[LearningRecord]:
    """Learned delay and buffered-burst count per MakeActive iteration.

    Like :func:`twait_series`, this inspects the live learner's history and
    therefore drives the simulator directly.
    """
    from ..core.controller import CombinedPolicy  # local import avoids a cycle at module load
    from ..core.makeidle import MakeIdlePolicy

    simulator = TraceSimulator(profile)
    # The figure needs a handle on the live learner to read its history
    # after the run, which build_scheme (correctly) does not expose.
    learner = LearningMakeActive()  # repro-lint: allow[registry-bypass] reason=figure 16 reads the live learner's history; the registry hides the instance
    policy = CombinedPolicy(  # repro-lint: allow[registry-bypass] reason=pairs the learner instance above; mirrors build_scheme("makeidle+makeactive_learn")
        MakeIdlePolicy(window_size=window_size), learner,  # repro-lint: allow[registry-bypass] reason=single-run figure driver; one device, no shared-instance hazard
        name="makeidle+makeactive_learn",
    )
    simulator.run(trace, policy)
    return list(learner.history)


# ----------------------------------------------------------------------------------
# Headline numbers (abstract / Section 6.2)
# ----------------------------------------------------------------------------------

def headline_savings(
    carriers: Sequence[str] = CARRIER_ORDER,
    population: str = "verizon_3g",
    hours_per_day: float = 2.0,
    seed: int = 0,
    users: Iterable[int] | None = None,
    runner: Runner | None = None,
) -> dict[str, dict[str, float]]:
    """Per-carrier savings of MakeIdle alone and MakeIdle+MakeActive (learning).

    The abstract's claim is that MakeIdle alone saves 51–66 % on 3G and 67 %
    on LTE, rising to 62–75 % / 71 % when MakeActive delays are allowed.
    Returns ``{carrier: {"makeidle": pct, "makeidle+makeactive": pct}}``.
    """
    comparison = carrier_comparison(
        carriers=carriers,
        population=population,
        hours_per_day=hours_per_day,
        seed=seed,
        users=users,
        runner=runner,
    )
    headline: dict[str, dict[str, float]] = {}
    for carrier_key, row in comparison.items():
        headline[carrier_key] = {
            "makeidle": row.saved_percent.get("makeidle", 0.0),
            "makeidle+makeactive": row.saved_percent.get(
                "makeidle+makeactive_learn", 0.0
            ),
        }
    return headline
