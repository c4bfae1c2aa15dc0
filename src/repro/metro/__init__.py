"""Metro layer: multi-cell topologies, mobility, and mid-stream handover.

The metro subsystem scales the per-cell machinery to a metropolitan
area: a :class:`Metro` names its cells (each with its own station
policy, advisory capacity, and optional traffic scenario), a mobility
model assigns every UE a shard-invariant cell-residency timeline, and
execution turns each residency interval into a windowed single-cell
device — the kernel's handover event closes the departing visit with
the exact merge-contract float ops, and the next visit re-attaches
Idle at the arrival cell (the RRC-release model; DESIGN.md §4).

High-level entry points live in :mod:`repro.api`
(``MetroSpec`` / ``metro()`` / plan ``.metros()``); this package holds
the topology, mobility and execution layers they drive.
"""

from .execution import (
    MetroCellResult,
    MetroResult,
    merge_metro_shards,
    run_metro_block,
    workload_seed,
)
from .mobility import (
    CommuterMobility,
    MobilityModel,
    ShuffleMobility,
    mobility_from_dict,
    mobility_seed,
)
from .presets import METRO_BUILDERS, get_metro, metro_names
from .streams import windowed_stream
from .topology import Metro, MetroCell

__all__ = [
    "CommuterMobility",
    "METRO_BUILDERS",
    "Metro",
    "MetroCell",
    "MetroCellResult",
    "MetroResult",
    "MobilityModel",
    "ShuffleMobility",
    "get_metro",
    "merge_metro_shards",
    "metro_names",
    "mobility_from_dict",
    "mobility_seed",
    "run_metro_block",
    "windowed_stream",
    "workload_seed",
]
