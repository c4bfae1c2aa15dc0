"""Runner backends: execute a plan's grid serially or on a process pool.

A *runner* turns an :class:`~repro.api.plan.ExperimentPlan` (or an explicit
spec sequence) into a :class:`~repro.api.runset.RunSet`.  Both built-in
backends share one contract:

* results are **deterministic and order-preserving** — the run set's records
  are in plan expansion order, and a fixed-seed plan yields byte-identical
  records from :class:`SerialRunner` and :class:`ProcessPoolRunner`;
* duplicated grid cells (most importantly the status-quo baseline shared by
  every scheme comparison) are **simulated once** and served from the
  runner's :class:`~repro.api.cache.ResultCache` thereafter.  The cache
  lives on the runner, so successive ``run()`` calls — e.g. several thin
  experiment drivers in one report — keep sharing baselines.

:class:`ProcessPoolRunner` deduplicates *before* submitting, so each unique
(trace, carrier, policy) cell crosses the process boundary exactly once; the
workers rebuild traces and policies from the picklable specs via
:func:`repro.api.spec.execute`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Hashable,
    Iterator,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from ..basestation.cell import CellResult, merge_cell_shards
from ..metro.execution import MetroResult
from ..sim.results import SimulationResult
from .cache import CacheStats, ResultCache
from .cells import CellRunSpec, execute_cell, execute_cell_shard
from .metro import (
    MetroRunSpec,
    execute_metro,
    execute_metro_cell_shard,
    merge_metro_run,
)
from .plan import ExperimentPlan
from .populations import PopulationSlot, RunPopulations
from .runset import RunRecord, RunSet
from .spec import RunSpec, execute

__all__ = [
    "PoolExecution",
    "usable_cpu_count",
    "Runner",
    "SerialRunner",
    "ProcessPoolRunner",
    "default_runner",
    "execute_spec",
]


@dataclass(frozen=True)
class PoolExecution:
    """How a :class:`ProcessPoolRunner` actually executed one ``run()``.

    The requested worker count is *clamped to usable cores* before any
    pool is spawned: pool fan-out only ever parallelises, so a
    configuration whose measured speedup would be < 1 purely by
    construction (more workers than cores, or a pool on a 1-core box) is
    never shipped — it falls back to the serial in-process path, which is
    byte-identical.  Attached to the produced :class:`RunSet` so result
    records can state the clamp (``pool_jobs`` / ``pool_clamped`` columns
    in ``to_records()``, and the BENCH sections).
    """

    requested_jobs: int
    usable_cores: int
    effective_jobs: int
    pool_used: bool

    @property
    def clamped(self) -> bool:
        """Whether fewer workers than requested could usefully run."""
        return self.effective_jobs < self.requested_jobs

#: One cell of any sweep grid: single-UE, cell-scale or metro-scale.
AnySpec = Union[RunSpec, CellRunSpec, MetroRunSpec]
AnyResult = Union[SimulationResult, CellResult, MetroResult]


def usable_cpu_count() -> int:
    """Cores this process may actually schedule on.

    CPU affinity / cgroup masks (containers, ``taskset``) often grant far
    fewer cores than the machine has; ``os.cpu_count()`` ignores them and
    would size pools for hardware the process cannot touch.  Falls back
    to ``os.cpu_count()`` where affinity is not exposed (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def execute_spec(
    spec: AnySpec,
    *,
    populations: Sequence[PopulationSlot | None] | None = None,
) -> AnyResult:
    """Materialise and run one grid cell of either kind.

    The single entry point of both runner backends (module-level so the
    process pool can send it to workers by reference): single-UE
    :class:`RunSpec`s go through the trace simulator, :class:`CellRunSpec`s
    through the cell simulator — both riding the same event kernel.
    ``populations`` are a cell spec's per-shard population slots
    (:func:`~repro.api.cells.execute_cell`).
    """
    if isinstance(spec, MetroRunSpec):
        return execute_metro(spec)
    if isinstance(spec, CellRunSpec):
        return execute_cell(spec, populations=populations)
    return execute(spec)


@runtime_checkable
class Runner(Protocol):
    """Anything that can execute a plan into a :class:`RunSet`."""

    def run(self, plan: ExperimentPlan | Sequence[AnySpec]) -> RunSet:
        """Execute every grid cell and return the ordered results."""
        ...


def _as_specs(plan: ExperimentPlan | Sequence[AnySpec]) -> tuple[AnySpec, ...]:
    if isinstance(plan, ExperimentPlan):
        return plan.build()
    return tuple(plan)


class _BaseRunner:
    """The run lifecycle and cache bookkeeping both backends share.

    Both count through this one path, so a plan reports the same
    ``(hits, misses, disk_hits)`` from either backend.  Each unique cell is
    looked up once, in plan order, with :meth:`ResultCache.lookup` (a
    memory or disk hit); each miss is simulated by the backend's
    :meth:`_execute` and stored with :meth:`ResultCache.put` (one miss);
    every later appearance of a cell in the same plan is one more hit.
    """

    def __init__(self, cache: ResultCache | None = None) -> None:
        self._cache = cache if cache is not None else ResultCache()

    @property
    def cache(self) -> ResultCache:
        """The runner's result cache (shared across its ``run()`` calls)."""
        return self._cache

    def _delta(self, before: CacheStats) -> CacheStats:
        after = self._cache.stats
        return CacheStats(
            after.hits - before.hits, after.misses - before.misses, after.size,
            after.disk_hits - before.disk_hits,
        )

    def _execution(
        self, pending: dict[Hashable, AnySpec]
    ) -> PoolExecution | None:
        """How this backend will execute ``pending`` (``None``: in-process)."""
        return None

    def _execute(
        self,
        pending: dict[Hashable, AnySpec],
        execution: PoolExecution | None,
        populations: RunPopulations,
    ) -> Iterator[tuple[Hashable, AnyResult]]:
        """Simulate every pending cell, yielding ``(key, result)`` in order.

        A population slice several cells share is drawn by its first
        reader (:mod:`repro.api.populations`).
        """
        for key, spec in pending.items():
            yield key, execute_spec(spec, populations=populations.of(key))

    def run(self, plan: ExperimentPlan | Sequence[AnySpec]) -> RunSet:
        """Execute every grid cell and return the results in plan order."""
        specs = _as_specs(plan)
        keys = [spec.cache_key for spec in specs]
        before = self._cache.stats

        # Phase 1: look each unique cell up once.  Holding a reference to
        # each cached result keeps it reachable for phase 3 even if a
        # bounded cache evicts it while this run stores new entries.
        held: dict[Hashable, AnyResult] = {}
        pending: dict[Hashable, AnySpec] = {}
        for spec, key in zip(specs, keys):
            if key in held or key in pending:
                continue
            result = self._cache.lookup(key)
            if result is None:
                pending[key] = spec
            else:
                held[key] = result

        # Phase 2: simulate the misses, storing each as it arrives.  A
        # population slice that several of them replay is drawn once.
        execution = self._execution(pending)
        fresh: dict[Hashable, AnyResult] = {}
        disk = self._cache.disk
        with RunPopulations(
            pending, disk.directory if disk is not None else None
        ) as populations:
            for key, result in self._execute(pending, execution, populations):
                self._cache.put(key, result)
                fresh[key] = result

        # Phase 3: assemble records in plan order.  A cell's first
        # appearance was counted in phase 1 (hit) or by put() (miss);
        # every later one is a hit.
        records: list[RunRecord] = []
        first_use = set(held) | set(fresh)
        for spec, key in zip(specs, keys):
            if key in first_use:
                first_use.discard(key)
                from_cache = key in held
                result = held[key] if from_cache else fresh[key]
            else:
                result = self._cache.lookup(key)
                if result is None:  # evicted mid-run by a bounded cache
                    result = held[key] if key in held else fresh[key]
                from_cache = True
            records.append(
                RunRecord(spec=spec, result=result, from_cache=from_cache)
            )
        return RunSet(records, self._delta(before), execution=execution)


class SerialRunner(_BaseRunner):
    """Execute every spec in order in the calling process.

    The reference backend: simplest, always available, and the semantics
    yardstick the parallel backend is tested against.
    """


class ProcessPoolRunner(_BaseRunner):
    """Execute the plan's unique cells concurrently on worker processes.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to the usable (affinity-aware)
        core count.
    cache:
        Optional shared :class:`ResultCache`; results computed by the pool
        land in it exactly as serial results would.

    Records come back in plan expansion order regardless of completion
    order, and each unique cell is submitted at most once, so the backend
    is byte-for-byte equivalent to :class:`SerialRunner` on the same plan.
    """

    def __init__(self, jobs: int | None = None,
                 cache: ResultCache | None = None) -> None:
        super().__init__(cache)
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._jobs = jobs if jobs is not None else usable_cpu_count()

    @property
    def jobs(self) -> int:
        """The worker process count this runner was configured with."""
        return self._jobs

    @property
    def usable_cores(self) -> int:
        """Cores the pool can actually spread workers over.

        Affinity-aware (:func:`usable_cpu_count`): a process pinned to one
        core of a 16-core host gets 1, not 16 — otherwise the clamp would
        ship exactly the contended pool it exists to prevent.
        """
        return usable_cpu_count()

    @property
    def effective_jobs(self) -> int:
        """The worker count after clamping to usable cores.

        A pool wider than the machine only adds scheduling overhead —
        worker processes multiplex on the same cores — so the runner never
        spawns more workers than cores, and with one effective worker it
        skips the pool entirely (serial in-process execution of the same
        specs/shards: byte-identical results, no pool tax).  This is what
        makes a "sharded" configuration's measured speedup ≥ 1 by
        construction on machines where the pool cannot help.
        """
        return min(self._jobs, self.usable_cores)

    def _execution(self, pending: dict[Hashable, AnySpec]) -> PoolExecution:
        # The pool runs only when it can actually help: more than one task
        # and more than one usable worker.
        total_tasks = sum(_task_count(spec) for spec in pending.values())
        effective_jobs = self.effective_jobs
        return PoolExecution(
            requested_jobs=self._jobs,
            usable_cores=self.usable_cores,
            effective_jobs=effective_jobs,
            pool_used=total_tasks > 1 and effective_jobs > 1,
        )

    def _execute(
        self,
        pending: dict[Hashable, AnySpec],
        execution: PoolExecution | None,
        populations: RunPopulations,
    ) -> Iterator[tuple[Hashable, AnyResult]]:
        """Fan the pending cells out to the pool.

        A sharded cell spec fans out into one task per shard — and a metro
        spec into one task per UE block, which returns every cell's
        partial for the block — so a single big run can occupy every
        worker; the partials are merged back here in the parent (see
        repro.basestation.cell / repro.metro.execution).  A cell task
        receives its shards' population slots: the worker maps a shared
        slice's file, or draws it if no file is there yet.  Without the
        pool everything (a sharded spec's partitions included) runs
        sequentially in-process: same merged result, no pool overhead.
        """
        if execution is None or not execution.pool_used:
            yield from super()._execute(pending, execution, populations)
            return
        total_tasks = sum(_task_count(spec) for spec in pending.values())
        workers = min(execution.effective_jobs, total_tasks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: dict[Hashable, object] = {}
            for key, spec in pending.items():
                count = _task_count(spec)
                slots = populations.of(key)
                if count > 1:
                    # Shard order: both merges take the partials in the
                    # order of their shard (UE block) index.  Metro specs
                    # have no population slots.
                    shard_task = (
                        execute_metro_cell_shard
                        if isinstance(spec, MetroRunSpec)
                        else execute_cell_shard
                    )
                    futures[key] = [
                        pool.submit(shard_task, spec, index)
                        if slots is None
                        else pool.submit(shard_task, spec, index,
                                         population=slots[index])
                        for index in range(count)
                    ]
                else:
                    futures[key] = pool.submit(execute_spec, spec,
                                               populations=slots)
            for key, future in futures.items():
                if isinstance(future, list):
                    partials = [shard.result() for shard in future]
                    spec = pending[key]
                    if isinstance(spec, MetroRunSpec):
                        yield key, merge_metro_run(spec, partials)
                    else:
                        yield key, merge_cell_shards(partials)
                else:
                    yield key, future.result()


def _task_count(spec: AnySpec) -> int:
    """Pool tasks one spec fans out into: its shards (UE blocks), or one."""
    if isinstance(spec, (CellRunSpec, MetroRunSpec)):
        return spec.effective_shards
    return 1


#: Module-level runner shared by the thin experiment drivers, so repeated
#: driver calls in one process (e.g. several figures of one report) reuse
#: each other's baselines instead of re-simulating them.  Its cache is
#: LRU-bounded so long-lived processes sweeping ever-new traces (notebooks,
#: services) cannot grow memory without limit.
_SHARED_RUNNER: SerialRunner | None = None
_SHARED_CACHE_MAX_ENTRIES = 512


def default_runner() -> SerialRunner:
    """The process-wide shared :class:`SerialRunner` used by the legacy drivers."""
    global _SHARED_RUNNER
    if _SHARED_RUNNER is None:
        _SHARED_RUNNER = SerialRunner(
            cache=ResultCache(max_entries=_SHARED_CACHE_MAX_ENTRIES)
        )
    return _SHARED_RUNNER
