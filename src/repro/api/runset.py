"""Structured results of an executed plan: :class:`RunRecord` and :class:`RunSet`.

A runner turns every :class:`~repro.api.spec.RunSpec` of a plan into a
:class:`RunRecord` — the spec, its full
:class:`~repro.sim.results.SimulationResult`, and whether the result came
out of the cache.  The :class:`RunSet` wraps the ordered record sequence
with the operations every consumer of a sweep needs:

* axis filtering (:meth:`RunSet.only`, :meth:`RunSet.filter`) and grouping
  (:meth:`RunSet.group_by`);
* normalising each scheme against the status-quo baseline of its own
  (trace, carrier, seed) cell (:meth:`RunSet.savings`), reusing the
  :class:`~repro.metrics.savings.SavingsReport` machinery;
* flat export for storage and plotting (:meth:`RunSet.iter_records`,
  :meth:`RunSet.to_records`, :meth:`RunSet.to_csv`, :meth:`RunSet.to_json`,
  :meth:`RunSet.to_npz`, and — when pyarrow is installed —
  :meth:`RunSet.to_parquet`).

All of these work on the *aggregate* columns of the underlying results:
cell- and metro-scale records sit on the columnar
:class:`~repro.basestation.table.DeviceTable`, whose totals are computed
by array reductions, so exporting a million-device sweep never
materialises a million per-device row objects (see DESIGN.md §5).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence, Union

from ..basestation.cell import CellResult
from ..metrics.savings import SavingsReport, compare
from ..metro.execution import MetroResult
from ..sim.results import SimulationResult
from .cache import CacheStats
from .cells import CellRunSpec
from .metro import MetroRunSpec
from .spec import RunSpec

__all__ = ["RunRecord", "RunSet"]

#: Scheme name of the normalisation baseline used throughout the paper.
BASELINE_SCHEME = "status_quo"


@dataclass(frozen=True)
class RunRecord:
    """One executed grid cell: its spec, its result, and its provenance.

    A record is a single-UE run (:class:`RunSpec` →
    :class:`SimulationResult`), a cell-scale run (:class:`CellRunSpec` →
    :class:`~repro.basestation.cell.CellResult`) or a metro-scale run
    (:class:`MetroRunSpec` → :class:`~repro.metro.execution.MetroResult`);
    :attr:`is_cell` / :attr:`is_metro` distinguish them, and the axis
    accessors work uniformly on all three.
    """

    spec: Union[RunSpec, CellRunSpec, MetroRunSpec]
    result: Union[SimulationResult, CellResult, MetroResult]
    from_cache: bool = False

    @property
    def is_cell(self) -> bool:
        """Whether this record is a cell-scale run."""
        return isinstance(self.spec, CellRunSpec)

    @property
    def is_metro(self) -> bool:
        """Whether this record is a metro-scale run."""
        return isinstance(self.spec, MetroRunSpec)

    @property
    def trace_label(self) -> str:
        """The workload axis value (application, population:user, cell label...)."""
        if isinstance(self.spec, (CellRunSpec, MetroRunSpec)):
            return self.spec.label
        return self.spec.trace.label

    @property
    def carrier(self) -> str:
        """The carrier axis value."""
        return self.spec.carrier

    @property
    def scheme(self) -> str:
        """The (device-side) policy axis value."""
        return self.spec.scheme

    @property
    def dormancy(self) -> str:
        """The base-station dormancy axis value.

        ``""`` for single-UE runs and for metro runs — metro station
        policies are per-cell topology properties, not an axis (see the
        per-cell ``dormancy`` entries in :meth:`RunSet.to_records`).
        """
        if isinstance(self.spec, CellRunSpec):
            return self.spec.dormancy.label
        return ""

    @property
    def seed(self) -> int:
        """The repetition seed this record belongs to."""
        return self.spec.seed

    @property
    def shards(self) -> int:
        """The shard count that actually executed (1 for single-UE runs).

        The *effective* count — a requested count beyond the device
        population clamps down — so rows never claim an execution
        precision (budget partition, peak estimate) that never ran, and
        clamped-identical runs share one comparison group, matching the
        cache key.
        """
        if isinstance(self.spec, (CellRunSpec, MetroRunSpec)):
            return self.spec.effective_shards
        return 1

    @property
    def group_key(self) -> tuple:
        """The cell this record's schemes compete in.

        ``(trace, carrier, seed)`` for single-UE runs; cell-scale runs add
        the dormancy policy and the shard count — schemes are only
        comparable under the same base-station behaviour and the same
        execution precision (sharding changes ``load_aware`` arbitration
        and the peak-active estimate).  Metro runs add the shard count
        only (their station policies live in the topology, which is part
        of the label).
        """
        if self.is_cell:
            return (self.trace_label, self.carrier, self.dormancy,
                    self.shards, self.seed)
        if self.is_metro:
            return (self.trace_label, self.carrier, self.shards, self.seed)
        return (self.trace_label, self.carrier, self.seed)


class RunSet(Sequence[RunRecord]):
    """The ordered, immutable results of one executed plan."""

    def __init__(self, records: Sequence[RunRecord],
                 cache_stats: CacheStats | None = None,
                 execution: Any | None = None) -> None:
        self._records: tuple[RunRecord, ...] = tuple(records)
        self._cache_stats = cache_stats
        self._execution = execution

    # -- sequence protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return RunSet(self._records[index], self._cache_stats,
                          self._execution)
        return self._records[index]

    def __repr__(self) -> str:
        stats = f" cache={self._cache_stats!r}" if self._cache_stats else ""
        return f"<RunSet records={len(self)}{stats}>"

    @property
    def records(self) -> tuple[RunRecord, ...]:
        """The underlying record tuple, in plan expansion order."""
        return self._records

    @property
    def cache_stats(self) -> CacheStats | None:
        """Cache counters observed by the runner over this execution, if any."""
        return self._cache_stats

    @property
    def execution(self) -> Any | None:
        """How the runner executed this set, if it recorded it.

        A :class:`~repro.api.runner.PoolExecution` for pool-backed runs —
        carrying the requested vs. effective (core-clamped) worker count
        and whether a pool was actually used — ``None`` for serial
        backends.  Surfaced as ``pool_jobs`` / ``pool_clamped`` columns by
        :meth:`to_records` so exported cell rows state the clamp.
        """
        return self._execution

    # -- filtering and grouping ------------------------------------------------------

    def only(self, trace: str | None = None, carrier: str | None = None,
             scheme: str | None = None, seed: int | None = None) -> "RunSet":
        """The sub-set of records matching every given axis value."""
        selected = tuple(
            r for r in self._records
            if (trace is None or r.trace_label == trace)
            and (carrier is None or r.carrier == carrier)
            and (scheme is None or r.scheme == scheme)
            and (seed is None or r.seed == seed)
        )
        return RunSet(selected, self._cache_stats, self._execution)

    #: Axis name → record accessor, shared by group_by()/filter().
    _AXIS_GETTERS = {
        "trace": lambda r: r.trace_label,
        "carrier": lambda r: r.carrier,
        "scheme": lambda r: r.scheme,
        "dormancy": lambda r: r.dormancy,
        "shards": lambda r: r.shards,
        "seed": lambda r: r.seed,
    }

    def group_by(self, *axes: str) -> dict[Any, "RunSet"]:
        """Partition the records by one or more axes.

        ``axes`` entries are ``"trace"``, ``"carrier"``, ``"scheme"``,
        ``"dormancy"``, ``"shards"`` or ``"seed"``.  With one axis the
        dict is keyed by that axis value; with several, by the tuple of
        values.  Insertion
        order follows the record order, so iterating the groups preserves
        the plan's axis order.
        """
        getters = self._AXIS_GETTERS
        unknown = [a for a in axes if a not in getters]
        if unknown or not axes:
            raise ValueError(
                f"group_by axes must be among {sorted(getters)}, got {list(axes)}"
            )
        grouped: dict[Any, list[RunRecord]] = {}
        for record in self._records:
            values = tuple(getters[a](record) for a in axes)
            key = values[0] if len(axes) == 1 else values
            grouped.setdefault(key, []).append(record)
        return {k: RunSet(v, self._cache_stats, self._execution)
                for k, v in grouped.items()}

    def filter(self, predicate: Any = None, **axes: Any) -> "RunSet":
        """Records matching every axis keyword and the optional predicate.

        Axis keywords are the :meth:`group_by` names (``trace="im"``,
        ``scheme="makeidle"``, ``shards=4`` ...) and compare by equality;
        ``predicate`` is an arbitrary ``RunRecord -> bool`` callable for
        anything the axes cannot express (e.g. ``lambda r:
        r.result.total_energy_j < 50``).  A generalisation of
        :meth:`only` — axis comparisons look only at spec metadata, so
        filtering never touches result payloads unless the predicate does.
        """
        getters = self._AXIS_GETTERS
        unknown = [a for a in axes if a not in getters]
        if unknown:
            raise ValueError(
                f"filter axes must be among {sorted(getters)}, got {unknown}"
            )
        selected = tuple(
            r for r in self._records
            if all(getters[a](r) == v for a, v in axes.items())
            and (predicate is None or predicate(r))
        )
        return RunSet(selected, self._cache_stats, self._execution)

    # -- baseline normalisation ------------------------------------------------------

    def baseline_for(self, record: RunRecord,
                     baseline_scheme: str = BASELINE_SCHEME) -> RunRecord | None:
        """The baseline record sharing ``record``'s (trace, carrier, seed) cell."""
        for candidate in self._records:
            if (candidate.scheme == baseline_scheme
                    and candidate.group_key == record.group_key):
                return candidate
        return None

    def savings(self, baseline_scheme: str = BASELINE_SCHEME,
                ) -> dict[tuple, dict[str, SavingsReport]]:
        """Per-cell savings of every scheme against that cell's baseline run.

        Returns ``{(trace, carrier, seed): {scheme: SavingsReport}}``; cells
        without a baseline record raise, since the comparison the paper makes
        is undefined without a status-quo run on the same trace and carrier.
        Single-UE records only — for cell sweeps use :meth:`to_records`,
        whose rows carry ``denial_rate``, ``peak_switches_per_minute`` and
        ``saved_percent`` against the same group's baseline scheme.
        """
        if any(r.is_cell or r.is_metro for r in self._records):
            raise TypeError(
                "savings() builds per-run SavingsReports for single-UE "
                "sweeps; cell- and metro-scale records aggregate via "
                "to_records()"
            )
        table: dict[tuple, dict[str, SavingsReport]] = {}
        for cell_key, cell in self.group_by("trace", "carrier", "seed").items():
            baseline = next(
                (r for r in cell if r.scheme == baseline_scheme), None
            )
            if baseline is None:
                raise ValueError(
                    f"no {baseline_scheme!r} record for cell {cell_key}; "
                    "include the baseline scheme in the plan's policy axis"
                )
            table[cell_key] = {
                r.scheme: compare(r.result, baseline.result)
                for r in cell
                if r.scheme != baseline_scheme
            }
        return table

    # -- export ----------------------------------------------------------------------

    @staticmethod
    def _cohort_rows(result: CellResult, base_result: CellResult | None
                     ) -> dict[str, dict[str, Any]]:
        """Per-cohort breakdown dicts of one scenario cell.

        Empty (falsy) for homogeneous populations.  When the baseline
        cell (the group's baseline record, or the same cell of a metro
        baseline) exists and carries the same cohort label, each cohort
        entry also gets a ``saved_percent`` against that cohort of the
        baseline — the per-cohort view of the paper's headline metric.
        Note the comparison is *axis vs axis*: a cohort whose policy is
        pinned by a scenario override runs that override in the baseline
        record too, so its ``saved_percent`` is ~0 by construction —
        which is exactly the mixed-policy reading (pinned cohorts don't
        move with the axis; only un-overridden cohorts swing).
        """
        labels = result.cohorts()
        if not labels:
            return {}
        breakdown = result.cohort_breakdown()
        base_breakdown = (
            base_result.cohort_breakdown() if base_result is not None else {}
        )
        rows: dict[str, dict[str, Any]] = {}
        for label in labels:
            entry = breakdown[label].as_dict()
            base = base_breakdown.get(label)
            if base is not None and base.energy_j > 0:
                entry["saved_percent"] = 100.0 * (
                    (base.energy_j - breakdown[label].energy_j) / base.energy_j
                )
            rows[label] = entry
        return rows

    def _metro_cell_rows(self, result: MetroResult,
                         baseline: RunRecord | None) -> dict[str, dict[str, Any]]:
        """Per-cell breakdown dicts of one metro record, keyed by cell name.

        Each cell entry carries its own station policy, load and
        handover counts — plus ``saved_percent`` against the *same cell*
        of the group's baseline record when one exists, and the cell's
        per-cohort rows (:meth:`_cohort_rows`) when its population is
        scenario-homed.
        """
        base_cells = (
            {entry.name: entry for entry in baseline.result.cells}
            if baseline is not None and isinstance(baseline.result, MetroResult)
            else {}
        )
        rows: dict[str, dict[str, Any]] = {}
        for entry in result.cells:
            cell_result = entry.result
            row: dict[str, Any] = {
                "dormancy": entry.dormancy,
                "capacity": entry.capacity,
                "visits": entry.visits,
                "departures": entry.departures,
                "arrivals": entry.arrivals,
                "energy_j": cell_result.total_energy_j,
                "switch_count": cell_result.total_switches,
                "rrc_messages": cell_result.signaling.messages,
                "dormancy_requests": cell_result.dormancy_requests,
                "denial_rate": cell_result.denial_rate,
                "peak_active_devices": cell_result.peak_active_devices,
            }
            if entry.utilization is not None:
                row["utilization"] = entry.utilization
            base = base_cells.get(entry.name)
            if base is not None and base.result.total_energy_j > 0:
                row["saved_percent"] = 100.0 * (
                    (base.result.total_energy_j - cell_result.total_energy_j)
                    / base.result.total_energy_j
                )
            cohorts = self._cohort_rows(
                cell_result, base.result if base is not None else None
            )
            if cohorts:
                row["cohorts"] = cohorts
            rows[entry.name] = row
        return rows

    def iter_records(self, baseline_scheme: str | None = BASELINE_SCHEME,
                     ) -> Iterator[dict[str, Any]]:
        """Yield the flat record dicts of :meth:`to_records` lazily.

        One row is materialised at a time, so streaming a large sweep to
        an incremental writer holds a single row's worth of dicts rather
        than the whole flattened table.  The baseline index is built
        upfront from spec metadata only.

        When ``baseline_scheme`` is given and the matching baseline record
        exists in the set, each row also carries ``saved_percent`` and
        ``switches_normalized`` against it; pass ``None`` to skip
        normalisation entirely.  Cell-scale records additionally carry the
        base-station aggregates: ``dormancy``, ``shards``, ``devices``,
        ``dormancy_requests``, ``denial_rate``, ``peak_active_devices`` and
        ``peak_switches_per_minute``.  Scenario cells (whose devices carry
        cohort labels) also carry ``cohorts``: a per-cohort
        energy/switch/denial breakdown keyed by cohort label, each entry
        normalised against the same cohort of the group's baseline record
        when one exists.
        """
        baselines: dict[tuple, RunRecord] = {}
        if baseline_scheme is not None:
            for record in self._records:
                if record.scheme == baseline_scheme:
                    baselines.setdefault(record.group_key, record)
        for record in self._records:
            result = record.result
            if record.is_metro:
                row = {
                    "trace": record.trace_label,
                    "carrier": record.carrier,
                    "scheme": record.scheme,
                    "shards": record.shards,
                    "seed": record.seed,
                    "devices": result.devices,
                    "n_cells": len(result.cells),
                    "handovers": result.handovers,
                    "duration_s": result.duration_s,
                    "energy_j": result.total_energy_j,
                    "switch_count": result.total_switches,
                    "rrc_messages": result.total_messages,
                    "dormancy_requests": result.dormancy_requests,
                    "denial_rate": result.denial_rate,
                    "from_cache": record.from_cache,
                }
                if self._execution is not None:
                    row["pool_jobs"] = self._execution.effective_jobs
                    row["pool_clamped"] = self._execution.clamped
                baseline = baselines.get(record.group_key)
                if baseline is not None:
                    base = baseline.result
                    if base.total_energy_j > 0:
                        row["saved_percent"] = 100.0 * (
                            (base.total_energy_j - result.total_energy_j)
                            / base.total_energy_j
                        )
                    else:
                        row["saved_percent"] = 0.0
                    if base.total_switches:
                        row["switches_normalized"] = (
                            result.total_switches / base.total_switches
                        )
                row["cells"] = self._metro_cell_rows(result, baseline)
                yield row
                continue
            if record.is_cell:
                row = {
                    "trace": record.trace_label,
                    "carrier": record.carrier,
                    "scheme": record.scheme,
                    "dormancy": record.dormancy,
                    "shards": record.shards,
                    "seed": record.seed,
                    "devices": len(result.devices),
                    "energy_j": result.total_energy_j,
                    "switch_count": result.total_switches,
                    "rrc_messages": result.signaling.messages,
                    "dormancy_requests": result.dormancy_requests,
                    "denial_rate": result.denial_rate,
                    "peak_active_devices": result.peak_active_devices,
                    "peak_switches_per_minute": result.peak_switches_per_minute,
                    "from_cache": record.from_cache,
                }
                if self._execution is not None:
                    row["pool_jobs"] = self._execution.effective_jobs
                    row["pool_clamped"] = self._execution.clamped
                baseline = baselines.get(record.group_key)
                if baseline is not None:
                    base = baseline.result
                    if base.total_energy_j > 0:
                        row["saved_percent"] = 100.0 * (
                            (base.total_energy_j - result.total_energy_j)
                            / base.total_energy_j
                        )
                    else:
                        row["saved_percent"] = 0.0
                    if base.total_switches:
                        row["switches_normalized"] = (
                            result.total_switches / base.total_switches
                        )
                learning = result.learning_summary()
                if learning["learning_devices"]:
                    # Learning-curve columns, only for cells that actually
                    # ran an online learner (keeps non-learning rows flat).
                    row["learning_devices"] = learning["learning_devices"]
                    row["learn_iterations"] = learning["learn_iterations"]
                    row["learn_delay_first_s"] = learning["mean_delay_first_s"]
                    row["learn_delay_final_s"] = learning["mean_delay_final_s"]
                cohorts = self._cohort_rows(
                    result, baseline.result if baseline is not None else None
                )
                if cohorts:
                    row["cohorts"] = cohorts
                yield row
                continue
            row = {
                "trace": record.trace_label,
                "carrier": record.carrier,
                "scheme": record.scheme,
                "seed": record.seed,
                "energy_j": result.total_energy_j,
                "switch_count": result.switch_count,
                "promotion_count": result.promotion_count,
                "mean_delay_s": result.mean_delay,
                "median_delay_s": result.median_delay,
                "from_cache": record.from_cache,
            }
            baseline = baselines.get(record.group_key)
            if baseline is not None:
                row["saved_percent"] = 100.0 * result.energy_saved_fraction(
                    baseline.result
                )
                row["switches_normalized"] = result.switches_normalized(
                    baseline.result
                )
            yield row

    def to_records(self, baseline_scheme: str | None = BASELINE_SCHEME,
                   ) -> list[dict[str, Any]]:
        """The :meth:`iter_records` rows as a list (the eager form)."""
        return list(self.iter_records(baseline_scheme))

    def to_csv(self, path: str | Path,
               baseline_scheme: str | None = BASELINE_SCHEME) -> None:
        """Write :meth:`to_records` rows as CSV.

        The nested per-cohort ``cohorts`` mapping of scenario cells — and
        the nested per-cell ``cells`` mapping of metro records — have no
        flat representation and are omitted; use :meth:`to_json` (or
        :meth:`to_records` directly) for the nested data.
        """
        from ..reporting.render import write_csv

        rows, fieldnames = self._flat_rows(baseline_scheme)
        write_csv(rows, path, fieldnames=fieldnames)

    def to_json(self, path: str | Path | None = None,
                baseline_scheme: str | None = BASELINE_SCHEME) -> str:
        """Serialise the run set (records + cache counters) to JSON.

        Returns the JSON text; when ``path`` is given it is also written
        there.
        """
        payload: dict[str, Any] = {"records": self.to_records(baseline_scheme)}
        if self._cache_stats is not None:
            payload["cache"] = {
                "hits": self._cache_stats.hits,
                "misses": self._cache_stats.misses,
                "size": self._cache_stats.size,
            }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def _flat_rows(self, baseline_scheme: str | None
                   ) -> tuple[list[dict[str, Any]], list[str]]:
        """Nested-mapping-free rows plus the union of their column names."""
        rows = [
            {k: v for k, v in row.items() if k not in ("cohorts", "cells")}
            for row in self.iter_records(baseline_scheme)
        ]
        fieldnames: list[str] = []
        for row in rows:
            for name in row:
                if name not in fieldnames:
                    fieldnames.append(name)
        return rows, fieldnames

    def to_npz(self, path: str | Path,
               baseline_scheme: str | None = BASELINE_SCHEME) -> None:
        """Write the flat record columns as a compressed numpy ``.npz``.

        One named array per :meth:`to_records` column (nested ``cohorts``
        / ``cells`` mappings omitted, as in :meth:`to_csv`).  Columns
        present on only some rows widen: numeric columns to float64 with
        ``nan`` holes, everything else to strings with ``""`` holes —
        so mixed single-UE/cell sweeps still round-trip.  Requires numpy.
        """
        try:
            import numpy as np
        except ImportError as exc:  # pragma: no cover - numpy is baked in
            raise RuntimeError(
                "RunSet.to_npz requires numpy; use to_csv()/to_json()"
            ) from exc

        rows, fieldnames = self._flat_rows(baseline_scheme)

        def column(name: str):
            values = [row.get(name) for row in rows]
            present = [v for v in values if v is not None]
            if present and all(isinstance(v, bool) for v in present):
                return np.array(
                    [bool(v) for v in values], dtype=np.bool_
                ) if None not in values else np.array(
                    ["" if v is None else str(v) for v in values]
                )
            if (present and None not in values
                    and all(type(v) is int for v in present)):
                return np.array(values, dtype=np.int64)
            if present and all(isinstance(v, (int, float)) for v in present):
                return np.array(
                    [float("nan") if v is None else float(v) for v in values],
                    dtype=np.float64,
                )
            return np.array(["" if v is None else str(v) for v in values])

        np.savez_compressed(
            Path(path), **{name: column(name) for name in fieldnames}
        )

    def to_parquet(self, path: str | Path,
                   baseline_scheme: str | None = BASELINE_SCHEME) -> None:
        """Write the flat record table as a parquet file (needs pyarrow).

        Same flat columns as :meth:`to_csv` / :meth:`to_npz`.  pyarrow is
        an *optional* dependency: without it this raises a
        :class:`RuntimeError` naming the alternatives instead of an
        ImportError from deep inside an export pipeline.
        """
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq
        except ImportError as exc:
            raise RuntimeError(
                "RunSet.to_parquet requires the optional dependency "
                "pyarrow; install it, or export with to_npz()/to_csv()/"
                "to_json() instead"
            ) from exc

        rows, fieldnames = self._flat_rows(baseline_scheme)
        # Normalise ragged rows so every column exists in every row —
        # from_pylist infers a unified schema with nulls for the holes.
        table = pa.Table.from_pylist(
            [{name: row.get(name) for name in fieldnames} for row in rows]
        )
        pq.write_table(table, str(path))
