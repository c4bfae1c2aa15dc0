"""Metro axis entries and execution for the experiment API.

The metro analogue of :mod:`repro.api.cells`: :class:`MetroSpec` is the
plan-axis entry (a topology plus a UE population), :class:`MetroRunSpec`
one executable grid point, and :func:`execute_metro` /
:func:`execute_metro_cell_shard` the serial and fan-out execution units.
A runner splits a metro run into ``effective_shards`` independent
UE-block tasks — each walks its UEs' timelines once and returns every
cell's partial for the block — and merges them through
:func:`repro.metro.execution.merge_metro_shards`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..dictform import strict_fields
from ..metro.execution import (
    MetroResult,
    merge_metro_shards,
    run_metro_block,
)
from ..metro.presets import METRO_BUILDERS, get_metro
from ..metro.topology import Metro
from ..rrc.profiles import get_profile
from .spec import PolicySpec, check_chunk, check_duration

__all__ = [
    "MetroRunSpec",
    "MetroSpec",
    "execute_metro",
    "execute_metro_cell_shard",
    "merge_metro_run",
    "metro",
]


@dataclass(frozen=True)
class MetroSpec:
    """A metro-population axis entry: topology × UE count × horizon.

    The metro counterpart of :class:`~repro.api.cells.CellSpec`: the
    topology (cells, station policies, mobility, workload mix) comes from
    the :class:`~repro.metro.topology.Metro`, and this spec adds the UE
    population size, the simulated horizon and the generation seed.  The
    seed feeds both the mobility timelines (``crc32("metro/<seed>/<i>")``)
    and the scenario-less workloads (``crc32("metroapp/<seed>/<i>")``).
    """

    metro: Metro
    devices: int = 1000
    duration_s: float = 3600.0
    seed: int = 0
    chunk_s: float = 300.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        check_duration(self.duration_s)
        check_chunk(self.chunk_s)

    @property
    def label(self) -> str:
        """Short identity for tables/grouping (seed-independent digest)."""
        if self.name:
            return self.name
        identity = repr((self.metro.fingerprint, self.duration_s,
                         self.chunk_s))
        digest = zlib.crc32(identity.encode("utf-8"))
        return f"{self.metro.name}{self.devices}-{digest:08x}"

    @property
    def fingerprint(self) -> tuple:
        """Stable cache-key component identifying this metro population."""
        return (
            "metro-spec",
            self.metro.fingerprint,
            self.devices,
            self.duration_s,
            self.seed,
            self.chunk_s,
        )

    def with_seed(self, seed: int) -> "MetroSpec":
        """Return a copy regenerated under ``seed``."""
        return replace(self, seed=seed)

    def to_dict(self) -> dict[str, Any]:
        """Serialisable form — preset metros only, referenced by name.

        An inline (non-preset) topology has no stable name another
        process could resolve, so — like inline traces — it refuses
        serialisation rather than pickling a topology into the plan file.
        """
        builder = METRO_BUILDERS.get(self.metro.name)
        if builder is None or get_metro(self.metro.name) != self.metro:
            raise ValueError(
                f"metro {self.metro.name!r} is not a registered preset; "
                "inline metros cannot be serialised into plans"
            )
        return {
            "metro": self.metro.name,
            "devices": self.devices,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "chunk_s": self.chunk_s,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetroSpec":
        """Re-create a spec from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        payload = strict_fields(
            data,
            {"metro": "string", "devices": "integer", "duration_s": "number",
             "seed": "integer", "chunk_s": "number", "name": "string"},
            "metro",
        )
        payload["metro"] = get_metro(payload["metro"])
        return cls(**payload)


@dataclass(frozen=True)
class MetroRunSpec:
    """One metro grid point: population × carrier × device policy × shards.

    ``shards`` is the UE-block count of the hierarchical partition: the
    runner executes ``effective_shards`` independent block tasks, each
    returning one partial per cell.  There is no run-level dormancy axis
    — station policies belong to the metro's cells.
    """

    metro: MetroSpec
    carrier: str
    policy: PolicySpec
    seed: int = 0
    shards: int = 1

    def __post_init__(self) -> None:
        get_profile(self.carrier)  # validate the key early, with a clear error
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    @property
    def effective_shards(self) -> int:
        """UE-block count actually executed (≤ one UE per block)."""
        return min(self.shards, self.metro.devices)

    @property
    def n_cells(self) -> int:
        return len(self.metro.metro.cells)

    @property
    def cache_key(self) -> tuple:
        """Cache/dedup key of this metro run.

        Unlike cell runs there is no status-quo dormancy collapse: the
        station policies are part of the topology fingerprint, so they
        always participate.  The shard count stays in the key because
        metro aggregates (per-cell ``peak_active_devices``) carry the
        same shard-dependent precision as cell runs.
        """
        return (
            self.metro.fingerprint,
            self.carrier,
            self.policy.key,
            self.effective_shards,
        )

    @property
    def scheme(self) -> str:
        """The device-side policy's scheme name."""
        return self.policy.scheme

    @property
    def label(self) -> str:
        """The population label (the metro-axis value of this run)."""
        return self.metro.label


def metro(name_or_metro: str | Metro, devices: int = 1000,
          duration: float = 3600.0, seed: int = 0, name: str = "",
          chunk_s: float = 300.0) -> MetroSpec:
    """A metro-population axis entry for metro sweeps.

    ``name_or_metro`` is a preset name (``"commuter_2cell"``,
    ``"metro_4cell"``, ...) or an inline
    :class:`~repro.metro.topology.Metro`.
    """
    topology = (
        get_metro(name_or_metro)
        if isinstance(name_or_metro, str) else name_or_metro
    )
    return MetroSpec(metro=topology, devices=devices, duration_s=duration,
                     seed=seed, name=name, chunk_s=chunk_s)


def execute_metro_cell_shard(spec: MetroRunSpec, shard_index: int):
    """Run UE block ``shard_index`` of a metro run — the fan-out unit.

    Module-level and driven purely by the picklable spec, so the process
    pool can ship every block of one metro run to a different worker.
    Returns a tuple with one partial per cell, ``None`` where the block
    contributes no visits to that cell.
    """
    ms = spec.metro
    return run_metro_block(
        ms.metro, ms.devices, ms.duration_s, ms.seed, ms.chunk_s,
        spec.policy, spec.carrier, spec.effective_shards, shard_index,
    )


def merge_metro_run(spec: MetroRunSpec, partials) -> MetroResult:
    """Merge the per-block results of :func:`execute_metro_cell_shard` calls.

    ``partials`` holds one per-cell tuple per UE block, in block order —
    the order the runner submitted them.  Transposed, they are the
    cell-major shard lists :func:`merge_metro_shards` takes.
    """
    k = spec.effective_shards
    if len(partials) != k:
        raise ValueError(
            f"expected {k} block partials, got {len(partials)}"
        )
    shards_by_cell = list(zip(*partials, strict=True))
    return merge_metro_shards(spec.metro.metro, spec.metro.devices,
                              shards_by_cell)


def execute_metro(spec: MetroRunSpec, shards: int | None = None) -> MetroResult:
    """Materialise and run one metro spec — the serial reference path.

    All ``effective_shards`` block tasks run sequentially in this process
    and merge; cross-process parallelism belongs to the runner layer,
    which ships :func:`execute_metro_cell_shard` calls to workers instead.
    """
    if shards is not None:
        spec = replace(spec, shards=shards)
    partials = [
        execute_metro_cell_shard(spec, si)
        for si in range(spec.effective_shards)
    ]
    return merge_metro_run(spec, partials)
