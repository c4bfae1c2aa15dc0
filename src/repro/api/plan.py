"""The fluent, immutable :class:`ExperimentPlan` builder.

Every result in the paper's evaluation is a sweep over the same axes —
workload × carrier × policy, sometimes repeated over seeds.  A plan declares
those axes once and expands them into the full grid of
:class:`~repro.api.spec.RunSpec` cells::

    from repro.api import plan

    p = (plan()
         .apps("email", "im", duration=1800.0)
         .carriers("att_hspa", "verizon_lte")
         .policies("status_quo", "makeidle", "oracle")
         .window_size(100)
         .repeat(seeds=(0, 1)))
    specs = p.build()          # 2 apps x 2 carriers x 3 policies x 2 seeds = 24

Plans are frozen dataclasses: every fluent method returns a *new* plan, so a
partially built plan can be reused as a template.  A plan never runs
anything itself — hand it to a :class:`~repro.api.runner.SerialRunner` or
:class:`~repro.api.runner.ProcessPoolRunner` to obtain a
:class:`~repro.api.runset.RunSet`.

Plans round-trip through plain dicts (:meth:`ExperimentPlan.to_dict` /
:meth:`ExperimentPlan.from_dict`) and JSON files (:func:`save_plan` /
:func:`load_plan`), so a sweep is reproducible from a plan file.  The plan
is the only experiment format, and a file is read strictly:
:meth:`~ExperimentPlan.from_dict` builds through the same fluent methods
(and so the same validation) as a plan written in Python, and every key
that no ``to_dict`` writes raises a ``ValueError`` naming it.

A plan can instead sweep *device populations* against a base station: the
cell axes (:meth:`ExperimentPlan.cells` / :meth:`ExperimentPlan.dormancy`)
expand to :class:`~repro.api.cells.CellRunSpec` cells — population ×
carrier × device policy × dormancy policy — run by the same runners with
the same cache (see :mod:`repro.api.cells`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..dictform import strict_fields
from ..rrc.profiles import get_profile
from ..traces.packet import PacketTrace
from .cells import CellRunSpec, CellSpec, DormancySpec
from .metro import MetroRunSpec, MetroSpec, metro as metro_spec
from .spec import PolicySpec, RunSpec, TraceSpec, user as user_spec

__all__ = [
    "EmptyAxisError",
    "ExperimentPlan",
    "load_plan",
    "plan",
    "save_plan",
]

#: The keys :meth:`ExperimentPlan.to_dict` writes, with their JSON types
#: (see :mod:`repro.dictform`); each axis entry is read by its own spec.
_PLAN_FIELDS = {
    "name": "string", "traces": "list", "carriers": "list[string]",
    "policies": "list", "seeds": "list[integer]", "window_size": "integer",
    "cells": "list", "dormancy": "list", "shards": "list[integer]",
    "metros": "list",
}


class EmptyAxisError(ValueError):
    """Raised when a plan is expanded while one of its axes is still empty."""

    def __init__(self, axis: str) -> None:
        super().__init__(
            f"cannot expand an ExperimentPlan with an empty {axis} axis; "
            f"declare at least one entry with .{axis}(...)"
        )
        self.axis = axis


def _as_trace_spec(entry: TraceSpec | PacketTrace) -> TraceSpec:
    if isinstance(entry, TraceSpec):
        return entry
    if isinstance(entry, PacketTrace):
        return TraceSpec(kind="inline", trace=entry)
    raise TypeError(
        f"trace axis entries must be TraceSpec or PacketTrace, got {type(entry).__name__}"
    )


def _as_policy_spec(entry: PolicySpec | str) -> PolicySpec:
    if isinstance(entry, PolicySpec):
        return entry
    if isinstance(entry, str):
        return PolicySpec(scheme=entry)
    raise TypeError(
        f"policy axis entries must be PolicySpec or str, got {type(entry).__name__}"
    )


def _as_dormancy_spec(entry: DormancySpec | str) -> DormancySpec:
    if isinstance(entry, DormancySpec):
        return entry
    if isinstance(entry, str):
        return DormancySpec(scheme=entry)
    raise TypeError(
        f"dormancy axis entries must be DormancySpec or str, "
        f"got {type(entry).__name__}"
    )


@dataclass(frozen=True)
class ExperimentPlan:
    """An immutable declaration of a sweep grid.

    Use the fluent methods (:meth:`traces`, :meth:`carriers`,
    :meth:`policies`, :meth:`repeat`, ...) rather than the constructor; each
    returns a new plan with that axis extended or replaced.
    """

    trace_specs: tuple[TraceSpec, ...] = ()
    carrier_keys: tuple[str, ...] = ()
    policy_specs: tuple[PolicySpec, ...] = ()
    seeds: tuple[int, ...] = ()
    default_window: int = 100
    name: str = ""
    cell_specs: tuple[CellSpec, ...] = ()
    dormancy_specs: tuple[DormancySpec, ...] = ()
    shard_counts: tuple[int, ...] = ()
    metro_specs: tuple[MetroSpec, ...] = ()

    # -- axis declaration ------------------------------------------------------------

    def traces(self, *entries: TraceSpec | PacketTrace) -> "ExperimentPlan":
        """Append workload axis entries (:class:`TraceSpec` or concrete traces)."""
        new = tuple(_as_trace_spec(e) for e in entries)
        return replace(self, trace_specs=self.trace_specs + new)

    def apps(self, *names: str, duration: float = 3600.0,
             seed: int = 0) -> "ExperimentPlan":
        """Append one synthetic application workload per name."""
        new = tuple(
            TraceSpec(kind="application", name=n, duration_s=duration, seed=seed)
            for n in names
        )
        return replace(self, trace_specs=self.trace_specs + new)

    def users(self, population: str, users: Iterable[int] | None = None,
              hours_per_day: float = 2.0, seed: int = 0) -> "ExperimentPlan":
        """Append one synthetic user-day workload per user of ``population``.

        ``users=None`` selects the population's whole roster.
        """
        from ..traces.users import user_ids

        selected = tuple(users) if users is not None else user_ids(population)
        new = tuple(
            user_spec(population, uid, hours_per_day=hours_per_day, seed=seed)
            for uid in selected
        )
        return replace(self, trace_specs=self.trace_specs + new)

    def cells(self, *entries: CellSpec) -> "ExperimentPlan":
        """Append device-population axis entries (switches the plan to cell mode).

        A plan with a cell axis expands to :class:`CellRunSpec` cells —
        population × carrier × device policy × dormancy policy — instead of
        single-UE runs; the two workload axes are mutually exclusive.
        """
        for entry in entries:
            if not isinstance(entry, CellSpec):
                raise TypeError(
                    f"cell axis entries must be CellSpec, got {type(entry).__name__}"
                )
        return replace(self, cell_specs=self.cell_specs + tuple(entries))

    def scenarios(self, *entries: "Scenario | str", devices: int = 100,
                  duration: float = 900.0, seed: int = 0,
                  chunk_s: float = 300.0) -> "ExperimentPlan":
        """Append one scenario population per entry (switches to cell mode).

        Entries are :class:`~repro.scenarios.Scenario` values or preset
        names (``"uniform"``, ``"office_day"``, ``"evening_peak"``,
        ``"mixed_policy"``, ...); each becomes a ``devices``-strong
        :class:`CellSpec` carrying that scenario, so scenarios compose
        with ``.carriers()`` / ``.policies()`` / ``.dormancy()`` /
        ``.shards()`` / ``.repeat()`` exactly like any other cell axis
        entry.
        """
        from ..scenarios.presets import get_scenario
        from ..scenarios.scenario import Scenario

        specs = []
        for entry in entries:
            if isinstance(entry, str):
                entry = get_scenario(entry)
            elif not isinstance(entry, Scenario):
                raise TypeError(
                    "scenario axis entries must be Scenario or a preset "
                    f"name, got {type(entry).__name__}"
                )
            specs.append(
                CellSpec(
                    devices=devices, duration_s=duration, seed=seed,
                    chunk_s=chunk_s, scenario=entry,
                )
            )
        return self.cells(*specs)

    def metros(self, *entries: "MetroSpec | str", devices: int = 1000,
               duration: float = 3600.0, seed: int = 0,
               chunk_s: float = 300.0) -> "ExperimentPlan":
        """Append metro-population axis entries (switches to metro mode).

        Entries are :class:`~repro.api.metro.MetroSpec` values or preset
        topology names (``"commuter_2cell"``, ``"metro_4cell"``, ...);
        names become ``devices``-strong specs over ``duration`` seconds.
        Metro plans expand to :class:`MetroRunSpec` cells — metro ×
        carrier × device policy × shards — and are mutually exclusive
        with the single-UE and cell axes.  There is no dormancy axis:
        station policies belong to the metro's cells.
        """
        specs = []
        for entry in entries:
            if isinstance(entry, str):
                entry = metro_spec(entry, devices=devices, duration=duration,
                                   seed=seed, chunk_s=chunk_s)
            elif not isinstance(entry, MetroSpec):
                raise TypeError(
                    "metro axis entries must be MetroSpec or a preset "
                    f"name, got {type(entry).__name__}"
                )
            specs.append(entry)
        return replace(self, metro_specs=self.metro_specs + tuple(specs))

    def dormancy(self, *entries: DormancySpec | str) -> "ExperimentPlan":
        """Append base-station dormancy axis entries (cell mode only).

        Entries are scheme names (``"accept_all"``, ``"reject_all"``,
        ``"rate_limited"``, ``"load_aware"``) or :class:`DormancySpec`s;
        cell plans without this axis default to the paper's always-accept
        assumption.
        """
        new = tuple(_as_dormancy_spec(e) for e in entries)
        return replace(self, dormancy_specs=self.dormancy_specs + new)

    def shards(self, *counts: int) -> "ExperimentPlan":
        """Append shard-count axis entries (cell mode only).

        Each entry runs every cell of the grid partitioned into that many
        device shards — ``1`` is the single-process reference; higher
        counts let :class:`~repro.api.runner.ProcessPoolRunner` execute
        one cell across several worker processes.  Per-device results are
        byte-identical across shard counts for shard-independent dormancy
        policies (``load_aware`` partitions its budget; see
        ``docs/DESIGN.md``), so sweeping several counts is mainly useful
        for benchmarking the execution path itself.
        """
        for count in counts:
            if not isinstance(count, int) or isinstance(count, bool):
                raise TypeError(
                    f"shard counts must be int, got {type(count).__name__}"
                )
            if count < 1:
                raise ValueError(f"shard counts must be >= 1, got {count}")
        return replace(self, shard_counts=self.shard_counts + counts)

    def carriers(self, *keys: str) -> "ExperimentPlan":
        """Append carrier axis entries (keys or aliases, validated eagerly)."""
        normalized = tuple(get_profile(k).key for k in keys)
        return replace(self, carrier_keys=self.carrier_keys + normalized)

    def policies(self, *entries: PolicySpec | str) -> "ExperimentPlan":
        """Append policy axis entries (scheme names or :class:`PolicySpec`)."""
        new = tuple(_as_policy_spec(e) for e in entries)
        return replace(self, policy_specs=self.policy_specs + new)

    #: ``schemes`` reads more naturally when entries are plain scheme names.
    schemes = policies

    def repeat(self, seeds: Sequence[int]) -> "ExperimentPlan":
        """Repeat the whole grid once per seed, re-seeding generated workloads."""
        return replace(self, seeds=tuple(seeds))

    def window_size(self, n: int) -> "ExperimentPlan":
        """Set the MakeIdle window used by policies that did not fix their own."""
        if n < 2:
            raise ValueError(f"window_size must be >= 2, got {n}")
        return replace(self, default_window=n)

    def labelled(self, name: str) -> "ExperimentPlan":
        """Attach a human-readable name (kept through serialisation)."""
        return replace(self, name=name)

    # -- expansion -------------------------------------------------------------------

    @property
    def is_cell_plan(self) -> bool:
        """Whether this plan sweeps device populations instead of single UEs."""
        return bool(self.cell_specs)

    @property
    def is_metro_plan(self) -> bool:
        """Whether this plan sweeps metro topologies."""
        return bool(self.metro_specs)

    def __len__(self) -> int:
        """Grid size: workloads x carriers x policies (x dormancy x shards) x seeds."""
        repetitions = len(self.seeds) if self.seeds else 1
        if self.is_metro_plan:
            shards = len(self.shard_counts) if self.shard_counts else 1
            return (len(self.metro_specs) * len(self.carrier_keys)
                    * len(self.policy_specs) * shards * repetitions)
        if self.is_cell_plan:
            dormancy = len(self.dormancy_specs) if self.dormancy_specs else 1
            shards = len(self.shard_counts) if self.shard_counts else 1
            return (len(self.cell_specs) * len(self.carrier_keys)
                    * len(self.policy_specs) * dormancy * shards
                    * repetitions)
        return (len(self.trace_specs) * len(self.carrier_keys)
                * len(self.policy_specs) * repetitions)

    def build(
        self,
    ) -> tuple[RunSpec, ...] | tuple[CellRunSpec, ...] | tuple[MetroRunSpec, ...]:
        """Expand the plan into its full grid of run specs.

        Expansion order is deterministic — seed, then workload, then
        carrier, then policy (then dormancy for cell plans, shards for
        cell and metro plans) — so two builds of the same plan yield the
        same sequence.  A plan with a metro axis yields
        :class:`MetroRunSpec` cells, one with a cell axis
        :class:`CellRunSpec` cells; otherwise :class:`RunSpec`s.
        """
        if self.is_metro_plan:
            return self._build_metros()
        if self.is_cell_plan:
            return self._build_cells()
        if self.dormancy_specs:
            raise ValueError(
                "a dormancy axis only applies to cell plans; declare a "
                "device population with .cells(...) or drop .dormancy(...)"
            )
        if self.shard_counts:
            raise ValueError(
                "a shards axis only applies to cell plans; declare a "
                "device population with .cells(...) or drop .shards(...)"
            )
        if not self.trace_specs:
            raise EmptyAxisError("traces")
        if not self.carrier_keys:
            raise EmptyAxisError("carriers")
        if not self.policy_specs:
            raise EmptyAxisError("policies")
        seeds: Sequence[int | None] = self.seeds if self.seeds else (None,)
        specs: list[RunSpec] = []
        for seed in seeds:
            for trace in self.trace_specs:
                seeded = trace if seed is None else trace.with_seed(seed)
                run_seed = seed if seed is not None else trace.seed
                for carrier in self.carrier_keys:
                    for policy in self.policy_specs:
                        specs.append(
                            RunSpec(
                                trace=seeded,
                                carrier=carrier,
                                policy=policy.resolved(self.default_window),
                                seed=run_seed,
                            )
                        )
        return tuple(specs)

    def _build_cells(self) -> tuple[CellRunSpec, ...]:
        if self.trace_specs:
            raise ValueError(
                "a plan cannot mix single-UE trace axes with a cell axis; "
                "declare one workload kind per plan"
            )
        if not self.carrier_keys:
            raise EmptyAxisError("carriers")
        if not self.policy_specs:
            raise EmptyAxisError("policies")
        dormancy = self.dormancy_specs if self.dormancy_specs else (DormancySpec(),)
        shard_counts = self.shard_counts if self.shard_counts else (1,)
        seeds: Sequence[int | None] = self.seeds if self.seeds else (None,)
        specs: list[CellRunSpec] = []
        for seed in seeds:
            for cell in self.cell_specs:
                seeded = cell if seed is None else cell.with_seed(seed)
                run_seed = seed if seed is not None else cell.seed
                for carrier in self.carrier_keys:
                    for policy in self.policy_specs:
                        for station in dormancy:
                            for shards in shard_counts:
                                specs.append(
                                    CellRunSpec(
                                        cell=seeded,
                                        carrier=carrier,
                                        policy=policy.resolved(
                                            self.default_window
                                        ),
                                        dormancy=station,
                                        seed=run_seed,
                                        shards=shards,
                                    )
                                )
        return tuple(specs)

    def _build_metros(self) -> tuple[MetroRunSpec, ...]:
        if self.trace_specs or self.cell_specs:
            raise ValueError(
                "a plan cannot mix a metro axis with single-UE trace or "
                "cell axes; declare one workload kind per plan"
            )
        if self.dormancy_specs:
            raise ValueError(
                "a dormancy axis does not apply to metro plans: station "
                "policies belong to the metro's cells (MetroCell.dormancy)"
            )
        if not self.carrier_keys:
            raise EmptyAxisError("carriers")
        if not self.policy_specs:
            raise EmptyAxisError("policies")
        shard_counts = self.shard_counts if self.shard_counts else (1,)
        seeds: Sequence[int | None] = self.seeds if self.seeds else (None,)
        specs: list[MetroRunSpec] = []
        for seed in seeds:
            for entry in self.metro_specs:
                seeded = entry if seed is None else entry.with_seed(seed)
                run_seed = seed if seed is not None else entry.seed
                for carrier in self.carrier_keys:
                    for policy in self.policy_specs:
                        for shards in shard_counts:
                            specs.append(
                                MetroRunSpec(
                                    metro=seeded,
                                    carrier=carrier,
                                    policy=policy.resolved(
                                        self.default_window
                                    ),
                                    seed=run_seed,
                                    shards=shards,
                                )
                            )
        return tuple(specs)

    def describe(self) -> str:
        """One-line summary of the declared axes."""
        repetitions = len(self.seeds) if self.seeds else 1
        label = f"{self.name!r}: " if self.name else ""
        if self.is_metro_plan:
            shards = (
                f" x {len(self.shard_counts)} shard count(s)"
                if self.shard_counts else ""
            )
            return (
                f"ExperimentPlan {label}{len(self.metro_specs)} metro(s) x "
                f"{len(self.carrier_keys)} carrier(s) x "
                f"{len(self.policy_specs)} policy(ies){shards} x "
                f"{repetitions} seed(s) = {len(self)} runs"
            )
        if self.is_cell_plan:
            dormancy = len(self.dormancy_specs) if self.dormancy_specs else 1
            shards = (
                f" x {len(self.shard_counts)} shard count(s)"
                if self.shard_counts else ""
            )
            return (
                f"ExperimentPlan {label}{len(self.cell_specs)} cell(s) x "
                f"{len(self.carrier_keys)} carrier(s) x "
                f"{len(self.policy_specs)} policy(ies) x "
                f"{dormancy} dormancy policy(ies){shards} x "
                f"{repetitions} seed(s) = {len(self)} runs"
            )
        return (
            f"ExperimentPlan {label}{len(self.trace_specs)} trace(s) x "
            f"{len(self.carrier_keys)} carrier(s) x "
            f"{len(self.policy_specs)} policy(ies) x {repetitions} seed(s) "
            f"= {len(self)} runs"
        )

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form suitable for JSON (inline traces / factories refuse)."""
        data = {
            "name": self.name,
            "traces": [t.to_dict() for t in self.trace_specs],
            "carriers": list(self.carrier_keys),
            "policies": [p.to_dict() for p in self.policy_specs],
            "seeds": list(self.seeds),
            "window_size": self.default_window,
        }
        if self.cell_specs:
            data["cells"] = [c.to_dict() for c in self.cell_specs]
        if self.dormancy_specs:
            data["dormancy"] = [d.to_dict() for d in self.dormancy_specs]
        if self.shard_counts:
            data["shards"] = list(self.shard_counts)
        if self.metro_specs:
            data["metros"] = [m.to_dict() for m in self.metro_specs]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentPlan":
        """Re-create a plan from :meth:`to_dict` output.

        Builds through the fluent methods, so a plan read from a file is
        validated (and its carrier aliases normalised) exactly like one
        declared in Python; any key ``to_dict`` does not write raises.
        """
        data = strict_fields(data, _PLAN_FIELDS, "plan")
        return (
            cls()
            .traces(*(TraceSpec.from_dict(t) for t in data.get("traces", ())))
            .carriers(*data.get("carriers", ()))
            .policies(
                *(PolicySpec.from_dict(p) for p in data.get("policies", ()))
            )
            .repeat(seeds=data.get("seeds", ()))
            .window_size(data.get("window_size", 100))
            .labelled(data.get("name", ""))
            .cells(*(CellSpec.from_dict(c) for c in data.get("cells", ())))
            .dormancy(
                *(DormancySpec.from_dict(d) for d in data.get("dormancy", ()))
            )
            .shards(*data.get("shards", ()))
            .metros(*(MetroSpec.from_dict(m) for m in data.get("metros", ())))
        )


def save_plan(plan: ExperimentPlan, path: str | Path) -> None:
    """Write ``plan`` to a JSON file that :func:`load_plan` reads back equal.

    The plan's axes, seeds and window size round-trip exactly; inline
    traces, custom policy factories and inline metros refuse
    serialisation.
    """
    Path(path).write_text(
        json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_plan(path: str | Path) -> ExperimentPlan:
    """Read a plan file through :meth:`ExperimentPlan.from_dict` (strictly)."""
    return ExperimentPlan.from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def plan() -> ExperimentPlan:
    """Start a fresh, empty :class:`ExperimentPlan`."""
    return ExperimentPlan()
