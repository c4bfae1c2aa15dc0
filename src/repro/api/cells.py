"""Cell-scale sweep specs: the population axis of an :class:`ExperimentPlan`.

The paper's §8 future-work question — what happens at the base station when
*many* phones run these schemes — becomes a first-class sweep axis here.  A
:class:`CellSpec` describes a reproducible device population (how many
devices, which application mix, how much traffic);
a :class:`DormancySpec` describes the base-station policy arbitrating
fast-dormancy requests; and a :class:`CellRunSpec` is one cell of the
expanded grid: population × carrier × device policy × dormancy policy.

Like their single-UE counterparts in :mod:`repro.api.spec`, these are
small, immutable, picklable *descriptions*: the process-pool runner ships
them to workers, and the result cache keys on
``(population fingerprint, carrier, device-policy key, dormancy key)`` so a
sweep never simulates the same cell twice.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from ..basestation.cell import (
    CellResult,
    CellShard,
    CellSimulator,
    DeviceSpec,
    merge_cell_shards,
)
from ..basestation.policies import (
    AcceptAllDormancy,
    DormancyPolicy,
    LoadAwareDormancy,
    RateLimitedDormancy,
    RejectAllDormancy,
    check_min_interval,
    check_switch_budget,
    partition_switch_budget,
)
from ..dictform import strict_fields
from ..rrc.profiles import get_profile
from ..scenarios.scenario import Cohort, Scenario
from ..traces.streaming import (
    ChunkedPacketStream,
    UserDayStream,
    stream_application_packets,
)
from .spec import PolicySpec, check_chunk, check_duration

if TYPE_CHECKING:  # populations imports this module
    from .populations import PopulationSlot

__all__ = [
    "DORMANCY_SCHEMES",
    "CellRunSpec",
    "CellSpec",
    "DormancySpec",
    "cell",
    "dormancy",
    "execute_cell",
    "execute_cell_shard",
    "shard_sizes",
]

#: Load-sample cadence of sharded cell runs, seconds.  Sharding loses the
#: exact instantaneous active-device peak (each shard only sees its own
#: devices), so sharded execution always records the load series on this
#: shared grid and the merge recomputes the peak from the summed series.
SHARD_SAMPLE_INTERVAL_S = 5.0

#: Base-station dormancy schemes selectable by name; the optional spec
#: parameter feeds the scheme's single knob.
DORMANCY_SCHEMES: tuple[str, ...] = (
    "accept_all",
    "reject_all",
    "rate_limited",
    "load_aware",
)

#: The keys :meth:`CellSpec.to_dict` writes (``apps`` or ``scenario``),
#: with their JSON types (see :mod:`repro.dictform`).
_CELL_FIELDS = {
    "devices": "integer", "duration_s": "number", "seed": "integer",
    "name": "string", "chunk_s": "number",
    "apps": "list[string]", "scenario": "object?",
}

#: Seed stride between devices of one cell, so every device's workload is
#: distinct but the whole population is reproducible from one seed.
_DEVICE_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class DormancySpec:
    """How to build one base-station dormancy policy.

    ``param`` feeds the scheme's knob: ``min_interval_s`` for
    ``rate_limited`` (positive; ``inf`` grants once per device),
    ``max_switches_per_minute`` for ``load_aware`` (a positive whole
    number); unused (and refused) for the parameterless schemes.
    """

    scheme: str = "accept_all"
    param: float | None = None

    def __post_init__(self) -> None:
        if self.scheme not in DORMANCY_SCHEMES:
            raise ValueError(
                f"unknown dormancy scheme {self.scheme!r}; "
                f"known: {list(DORMANCY_SCHEMES)}"
            )
        if self.param is not None and self.scheme in ("accept_all", "reject_all"):
            raise ValueError(f"{self.scheme!r} takes no parameter")
        # Checked here, not at build time.
        if self.scheme == "rate_limited" and self.param is not None:
            check_min_interval(self.param)
        if self.scheme == "load_aware" and self.param is not None:
            check_switch_budget(self.param)

    @property
    def key(self) -> tuple:
        """Stable cache-key component identifying the built policy."""
        return (self.scheme, self.param)

    @property
    def label(self) -> str:
        """Short human-readable identity used in result tables."""
        if self.param is None:
            return self.scheme
        return f"{self.scheme}({self.param:g})"

    def build(self) -> DormancyPolicy:
        """Construct a fresh dormancy policy instance."""
        if self.scheme == "accept_all":
            return AcceptAllDormancy()
        if self.scheme == "reject_all":
            return RejectAllDormancy()
        if self.scheme == "rate_limited":
            if self.param is not None:
                return RateLimitedDormancy(min_interval_s=self.param)
            return RateLimitedDormancy()
        if self.param is not None:
            return LoadAwareDormancy(max_switches_per_minute=int(self.param))
        return LoadAwareDormancy()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {"scheme": self.scheme, "param": self.param}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DormancySpec":
        """Re-create a spec from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        return cls(**strict_fields(
            data, {"scheme": "string", "param": "number?"}, "dormancy"
        ))


@dataclass(frozen=True)
class CellSpec:
    """A reproducible device population: the cell-sweep workload axis entry.

    Device ``i`` of the population runs the application
    ``apps[i % len(apps)]`` with a seed derived from ``seed`` and ``i``, so
    the whole population regenerates exactly from the spec.  Each
    device's workload is produced lazily in ``chunk_s``-second chunks,
    keeping a sweep's memory bounded by the device count rather than the
    total packet count.  A device whose policy reads the whole trace
    (``RadioPolicy.requires_trace``) has its stream materialised at run
    time, for that device alone.

    Alternatively a :class:`~repro.scenarios.scenario.Scenario` describes
    a *heterogeneous* population: weighted archetype cohorts (multi-app
    workloads at per-cohort traffic intensities, optionally running their
    own device-side policies) under an optional diurnal traffic shape.
    With a scenario the ``apps`` cycling rule is replaced by the
    scenario's cohort layout — devices carry cohort labels through to the
    result — while ``devices``/``duration_s``/``seed``/``chunk_s`` keep
    their meaning.
    """

    devices: int = 100
    apps: tuple[str, ...] = ("im", "email", "news")
    duration_s: float = 900.0
    seed: int = 0
    name: str = ""
    chunk_s: float = 300.0
    scenario: Scenario | None = None

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if not self.apps and self.scenario is None:
            raise ValueError("at least one application is required")
        check_duration(self.duration_s)
        check_chunk(self.chunk_s)
        if self.scenario is not None:
            if not isinstance(self.scenario, Scenario):
                raise TypeError(
                    "scenario must be a repro.scenarios.Scenario (use "
                    "get_scenario(name) for presets), got "
                    f"{type(self.scenario).__name__}"
                )
            # The scenario's cohorts define every workload: clear the apps
            # cycle so equality, repr and serialisation cannot carry an
            # app list that never runs.
            object.__setattr__(self, "apps", ())
            return
        from ..traces.synthetic import APPLICATION_PROFILES

        for app in self.apps:
            if app.lower() not in APPLICATION_PROFILES:
                raise ValueError(
                    f"unknown application {app!r}; known: "
                    f"{sorted(APPLICATION_PROFILES)}"
                )

    @cached_property
    def label(self) -> str:
        """Short human-readable identity used in result tables and grouping.

        Unnamed populations carry a digest of their seed-independent
        identity (apps, duration, chunk length), so two different
        populations of the same size never share a label — and therefore
        never share a :class:`~repro.api.runset.RunRecord` group, which
        would cross their baselines.  The seed stays out of the digest so
        ``repeat(seeds=...)`` repetitions of one population group together.

        Computed once per instance: ``cached_property`` stores it in the
        instance ``__dict__`` past the frozen ``__setattr__``, and it is not
        a field, so equality, hashing, ``repr`` and :meth:`to_dict` never
        see it; ``dataclasses.replace`` builds a new instance, which
        computes its own.
        """
        if self.name:
            return self.name
        # The literal True keeps the bytes of a retired generation-mode
        # flag, so labels, fingerprints and disk-cache keys do not move.
        if self.scenario is not None:
            identity = repr((self.scenario.fingerprint, self.duration_s,
                             True, self.chunk_s))
            digest = zlib.crc32(identity.encode("utf-8"))
            return f"{self.scenario.name}{self.devices}-{digest:08x}"
        identity = repr((self.apps, self.duration_s, True, self.chunk_s))
        digest = zlib.crc32(identity.encode("utf-8"))
        return f"cell{self.devices}-{digest:08x}"

    @cached_property
    def fingerprint(self) -> tuple:
        """Stable cache-key component identifying the population this builds.

        The chunk length changes how the workload is sampled, so
        ``chunk_s`` is part of the identity.  A scenario population's
        identity is the scenario's own fingerprint (cohorts, intensities,
        policy overrides, diurnal shape) in place of the homogeneous app
        cycle.  For the literal ``True``, see :attr:`label`.  Computed once
        per instance, as :attr:`label` is: every run's cache keys and
        population slices read it.
        """
        workload = (
            self.scenario.fingerprint if self.scenario is not None else self.apps
        )
        return (
            "cell",
            self.devices,
            workload,
            self.duration_s,
            self.seed,
            True,
            self.chunk_s,
        )

    def with_seed(self, seed: int) -> "CellSpec":
        """Return a copy regenerated under ``seed``."""
        return replace(self, seed=seed)

    def build_devices(
        self,
        policy: PolicySpec,
        start: int = 0,
        stop: int | None = None,
        *,
        population: PopulationSlot | None = None,
    ) -> list[DeviceSpec]:
        """Describe the population, one fresh policy instance per device.

        Every device gets a lazy packet stream (:meth:`device_streams`),
        or, when ``population`` opens this slice's stored file (drawing
        and storing it first if the slot says so; see
        :mod:`repro.api.populations`), its device's source in that file;
        the two hold the same packets.
        :meth:`~repro.basestation.cell.CellSimulator.run_shard` decides
        which of them to hold in memory.  ``start``/``stop`` select a
        contiguous slice of the population (a shard): device ids,
        per-device seeds and workloads are global indices, so building
        the population shard by shard yields exactly the devices a
        whole-population build would.

        A scenario population's cohort membership, per-device seeds and
        envelopes are pure functions of the *global* device index (see
        :mod:`repro.scenarios.scenario`), so shard-by-shard builds equal
        the whole-population build; a cohort with its own policy runs it
        in place of ``policy``.
        """
        stop = self._check_slice(start, stop)
        stored = (None if population is None
                  else population.open(self, start, stop))
        sources = (self.device_streams(start, stop) if stored is None
                   else iter(stored.sources()))
        specs: list[DeviceSpec] = []
        for cohort, indices in self._cohort_runs(start, stop):
            device_policy = policy
            label = ""
            if cohort is not None:
                label = cohort.label
                if cohort.policy is not None:
                    device_policy = cohort.policy
            for index in indices:
                specs.append(DeviceSpec(
                    device_id=index, trace=next(sources),
                    policy=device_policy.build(), cohort=label,
                ))
        return specs

    def device_streams(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[ChunkedPacketStream | UserDayStream]:
        """Each device's lazy packet stream of the slice, in index order.

        Device ``i`` of an app cycle streams ``apps[i % len(apps)]``; a
        scenario device streams its cohort's merged workload
        (:meth:`~repro.scenarios.scenario.Scenario.cohort_stream`).
        """
        stop = self._check_slice(start, stop)
        for cohort, indices in self._cohort_runs(start, stop):
            for index in indices:
                if cohort is None:
                    yield stream_application_packets(
                        self.apps[index % len(self.apps)],
                        duration=self.duration_s,
                        seed=self.seed * _DEVICE_SEED_STRIDE + index,
                        chunk_s=self.chunk_s,
                    )
                else:
                    yield self.scenario.cohort_stream(
                        cohort, index, self.duration_s, self.seed,
                        self.chunk_s,
                    )

    def _check_slice(self, start: int, stop: int | None) -> int:
        """The slice's stop (the population's end for ``None``), checked."""
        stop = self.devices if stop is None else stop
        if not 0 <= start <= stop <= self.devices:
            raise ValueError(
                f"invalid device slice [{start}, {stop}) of {self.devices}"
            )
        return stop

    def _cohort_runs(
        self, start: int, stop: int
    ) -> Iterator[tuple[Cohort | None, range]]:
        """The slice as ``(cohort, device indices)`` runs, in index order.

        An app cycle is one run without a cohort.  A scenario's cohorts
        occupy contiguous index blocks in declaration order: one
        apportionment for the whole slice, not a membership lookup per
        device.
        """
        scenario = self.scenario
        if scenario is None:
            yield None, range(start, stop)
            return
        offset = 0
        for cohort, size in zip(scenario.cohorts,
                                scenario.cohort_sizes(self.devices)):
            block_start, offset = offset, offset + size
            yield cohort, range(max(block_start, start), min(offset, stop))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        data = {
            "devices": self.devices,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "name": self.name,
            "chunk_s": self.chunk_s,
        }
        if self.scenario is not None:
            # The scenario defines every workload; an apps list here would
            # describe traffic that never runs.
            data["scenario"] = self.scenario.to_dict()
        else:
            data["apps"] = list(self.apps)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellSpec":
        """Re-create a spec from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        payload = strict_fields(data, _CELL_FIELDS, "cell")
        payload["apps"] = tuple(payload.get("apps", ()))
        scenario = payload.get("scenario")
        if scenario is not None:
            payload["scenario"] = Scenario.from_dict(scenario)
        return cls(**payload)


@dataclass(frozen=True)
class CellRunSpec:
    """One cell of the cell-sweep grid: population × carrier × policies.

    The single-UE :class:`~repro.api.spec.RunSpec`'s cell-scale sibling;
    ``policy`` is the *device-side* scheme every device runs, ``dormancy``
    the base-station arbiter, and ``shards`` how many device partitions
    the run executes in (1 = the single-process reference path).
    """

    cell: CellSpec
    carrier: str
    policy: PolicySpec
    dormancy: DormancySpec
    seed: int = 0
    shards: int = 1

    def __post_init__(self) -> None:
        get_profile(self.carrier)  # validate the key early, with a clear error
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    @property
    def effective_shards(self) -> int:
        """The shard count actually executed: capped at one device per shard."""
        return min(self.shards, self.cell.devices)

    @property
    def cache_key(self) -> tuple:
        """Key under which this cell run's result is cached and deduplicated.

        Status-quo devices never issue fast-dormancy requests, so the
        base-station policy cannot influence their result: the dormancy
        component is dropped from the key and the (most expensive, most
        repeated) baseline population is simulated once per
        (population, carrier) regardless of how many dormancy policies the
        plan sweeps.  That collapse is only sound when *every* device is
        on the status quo — a mixed-policy scenario's cohort overrides
        issue fast-dormancy requests whatever the policy axis says, so
        populations with overrides always keep the dormancy component.
        The shard count *is* part of the key — per-device
        records are byte-identical across shard counts only for
        shard-independent dormancy policies, and cell aggregates such as
        ``peak_active_devices`` always carry shard-dependent precision —
        so a shard sweep never serves one shard count's result for
        another.
        """
        pure_status_quo = (
            self.policy.factory is None
            and self.policy.scheme == "status_quo"
            and not (self.cell.scenario is not None
                     and self.cell.scenario.has_policy_overrides)
        )
        dormancy_key = None if pure_status_quo else self.dormancy.key
        return (
            self.cell.fingerprint,
            self.carrier,
            self.policy.key,
            dormancy_key,
            self.effective_shards,
        )

    @property
    def scheme(self) -> str:
        """The device-side policy's scheme name."""
        return self.policy.scheme

    @property
    def label(self) -> str:
        """The population label (the workload-axis value of this run)."""
        return self.cell.label


# -- axis declaration helpers --------------------------------------------------------

def check_legacy_engine(engine: Any) -> None:
    """Validate a legacy kernel choice, which is then ignored.

    ``cell(engine=...)`` still names a kernel.  Every shard now runs on
    the kernel :func:`repro.sim.vector_engine.use_vector_kernel` picks,
    and both kernels produce byte-identical results, so the value only
    has to be one the old knob accepted.
    """
    if not isinstance(engine, str):
        raise TypeError(f"engine must be str, got {type(engine).__name__}")
    if engine not in ("scalar", "vector"):
        raise ValueError(
            f"engine must be 'scalar' or 'vector', got {engine!r}"
        )


def cell(devices: int, apps: tuple[str, ...] | list[str] | None = None,
         duration: float = 900.0, seed: int = 0, name: str = "",
         chunk_s: float = 300.0,
         scenario: Scenario | str | None = None,
         engine: str = "scalar") -> CellSpec:
    """A device-population axis entry for cell sweeps.

    ``scenario`` selects a heterogeneous population instead of the
    homogeneous ``apps`` cycle: a :class:`~repro.scenarios.Scenario` or a
    preset name (``"uniform"``, ``"office_day"``, ``"evening_peak"``,
    ``"mixed_policy"``, ...).  The two workload descriptions are mutually
    exclusive; ``apps`` defaults to ``("im", "email", "news")`` when
    neither is given.

    ``engine`` is validated and then ignored (see
    :func:`check_legacy_engine`).
    """
    check_legacy_engine(engine)
    if apps is not None and scenario is not None:
        raise ValueError(
            "a scenario defines its own application mixes per cohort; "
            "pass apps or scenario, not both"
        )
    if isinstance(scenario, str):
        from ..scenarios.presets import get_scenario

        scenario = get_scenario(scenario)
    if apps is None:
        apps = () if scenario is not None else ("im", "email", "news")
    return CellSpec(
        devices=devices, apps=tuple(apps), duration_s=duration, seed=seed,
        name=name, chunk_s=chunk_s, scenario=scenario,
    )


def dormancy(scheme: str, param: float | None = None) -> DormancySpec:
    """A base-station dormancy axis entry by scheme name."""
    return DormancySpec(scheme=scheme, param=param)


def shard_sizes(devices: int, shards: int) -> list[int]:
    """Balanced contiguous-partition sizes of ``devices`` into ``shards``.

    Shard ``j`` holds the device-index block starting at
    ``sum(shard_sizes(...)[:j])``; sizes differ by at most one, with the
    remainder going to the earliest shards.
    """
    if devices < 1:
        raise ValueError(f"devices must be >= 1, got {devices}")
    if not 1 <= shards <= devices:
        raise ValueError(
            f"shards must be in [1, {devices} devices], got {shards}"
        )
    base, remainder = divmod(devices, shards)
    return [base + (1 if j < remainder else 0) for j in range(shards)]


def _shard_dormancy_policy(
    spec: DormancySpec, sizes: Sequence[int], index: int
) -> DormancyPolicy:
    """Build shard ``index``'s base-station policy for a sharded run.

    Per-device and stateless schemes build unchanged — each shard's
    instance only ever sees its own shard's devices, so decisions are
    identical to the single-process run.  ``load_aware`` couples devices
    through the cell-wide switch budget, which is partitioned
    proportionally to shard size (see
    :func:`repro.basestation.policies.partition_switch_budget`).
    """
    if spec.scheme != "load_aware" or len(sizes) == 1:
        return spec.build()
    budget = (
        int(spec.param) if spec.param is not None
        else LoadAwareDormancy().max_switches_per_minute
    )
    return LoadAwareDormancy(
        max_switches_per_minute=partition_switch_budget(budget, sizes)[index]
    )


def execute_cell_shard(
    spec: CellRunSpec,
    index: int,
    *,
    population: PopulationSlot | None = None,
) -> CellShard:
    """Run shard ``index`` of ``spec`` — the unit of sharded fan-out.

    Module-level and driven purely by the picklable spec, so
    :class:`~repro.api.runner.ProcessPoolRunner` can ship individual
    shards of one cell to different worker processes and merge the
    returned partials in the parent.  ``population``, the slot of this
    shard's stored slice, replaces their lazy streams
    (:meth:`CellSpec.build_devices`); the result is the same.
    """
    sizes = shard_sizes(spec.cell.devices, spec.effective_shards)
    if not 0 <= index < len(sizes):
        raise ValueError(f"shard index {index} out of range [0, {len(sizes)})")
    start = sum(sizes[:index])
    profile = get_profile(spec.carrier)
    simulator = CellSimulator(
        profile,
        _shard_dormancy_policy(spec.dormancy, sizes, index),
        load_sample_interval_s=(
            SHARD_SAMPLE_INTERVAL_S if len(sizes) > 1 else None
        ),
    )
    return simulator.run_shard(
        spec.cell.build_devices(spec.policy, start, start + sizes[index],
                                population=population)
    )


def execute_cell(
    spec: CellRunSpec,
    shards: int | None = None,
    *,
    populations: Sequence[PopulationSlot | None] | None = None,
) -> CellResult:
    """Materialise and run one cell spec — the cell analogue of ``execute``.

    Module-level so :class:`~repro.api.runner.ProcessPoolRunner` can send
    it to worker processes by reference.  ``shards`` overrides the spec's
    own shard count; the partitions run *sequentially in this process*
    and merge — byte-identical per-device results, no parallelism (one
    shard is the single-process run).  Cross-process parallel sharding
    belongs to the runner layer
    (:class:`~repro.api.runner.ProcessPoolRunner` ships
    :func:`execute_cell_shard` calls to workers), which keeps worker-side
    execution free of nested process pools.  ``populations`` holds each
    shard's population slot (or ``None``) for the spec's own shard count
    (:func:`execute_cell_shard`).
    """
    if shards is not None:
        spec = replace(spec, shards=shards)
    count = spec.effective_shards
    if populations is None:
        populations = (None,) * count
    return merge_cell_shards(
        [execute_cell_shard(spec, index, population=populations[index])
         for index in range(count)]
    )
