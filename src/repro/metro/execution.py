"""Hierarchical metro execution: UE blocks × cells → merged metro result.

A metro run is the cell machinery applied twice over:

1. **Across cells** — every (UE, visit) pair becomes one single-cell
   :class:`~repro.basestation.cell.DeviceSpec` in the visited cell, with
   ``attach_at``/``detach_at`` bounding the visit and the packet stream
   windowed to it (:mod:`repro.metro.streams`).  The departure side of a
   handover is the kernel's handover event (closing the visit with the
   exact ``finish`` float ops); the arrival side is the next visit's
   device, starting Idle — the RRC-release model of DESIGN.md §4.
2. **Within a cell** — the UE population is partitioned into the usual
   contiguous UE-index blocks, and each cell's visits from one block run
   through :meth:`~repro.basestation.cell.CellSimulator.run_shard`, then
   :func:`~repro.basestation.cell.merge_cell_shards` unchanged.

The task unit is one UE block (:func:`run_metro_block`): it walks each
of its UEs' timelines once and returns every cell's partial for the
block, so a metro run has as many tasks as blocks.

The one metro-specific merge step is the *global* end time: a cell's
merge may only close open timelines at the end time of the whole metro
(the latest observation across **all** cells' shards), so the global
``(last_emitted, max_now)`` pair is injected into one shard per cell
before the per-cell merges run.  Because visit membership, workloads and
timelines are pure functions of the global UE index and the metro seed,
results are byte-identical at any block count.

Visit device ids encode ``(UE, visit ordinal)`` as
``ordinal * population + index``, so ``device_id % population`` recovers
the UE and ids stay unique across all cells of the metro.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from ..basestation.cell import (
    CellResult,
    CellShard,
    CellSimulator,
    DeviceSpec,
    merge_cell_shards,
)
from ..rrc.profiles import get_profile
from ..rrc.signaling import SignalingLoad
from ..sim.engine import resolve_end_time
from ..api.cells import (
    SHARD_SAMPLE_INTERVAL_S,
    DormancySpec,
    _shard_dormancy_policy,
    shard_sizes,
)
from ..traces.streaming import stream_application_packets
from .streams import windowed_stream
from .topology import Metro

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.spec import PolicySpec

__all__ = [
    "MetroCellResult",
    "MetroResult",
    "merge_metro_shards",
    "run_metro_block",
    "workload_seed",
]


def workload_seed(seed: int, index: int) -> int:
    """Hashed per-device workload seed: ``crc32("metroapp/<seed>/<index>")``.

    Used for metro devices homed in scenario-less cells (scenario-homed
    devices inherit the scenario's own ``scenario/`` derivation); the
    distinct prefix keeps metro workload seeds disjoint from both the
    mobility chain and the single-cell populations (DESIGN.md §3).
    """
    return zlib.crc32(f"metroapp/{seed}/{index}".encode("ascii"))


#: One cell visit of a UE: ``(index, ordinal, enter, leave, home)``, where
#: ``leave`` is ``None`` for a UE's last visit and ``home`` is the slot of
#: the cell its timeline starts in.
_Visit = tuple[int, int, float, Optional[float], int]


def run_metro_block(
    metro: Metro,
    devices: int,
    duration_s: float,
    seed: int,
    chunk_s: float,
    policy: "PolicySpec",
    carrier: str,
    shards: int,
    shard_index: int,
) -> tuple[CellShard | None, ...]:
    """Run UE block ``shard_index`` through every cell of the metro.

    Walks each UE's residency timeline (a pure function of its *global*
    index and the metro seed) once, filing its visits by cell.  Then,
    cell by cell in metro order, it builds that cell's windowed device
    specs (:func:`_visit_devices`) and runs them on the cell's own
    simulator, so each cell sees its visits in (UE index, visit ordinal)
    order.  Returns one partial per cell, ``None`` where the block
    contributes no visits (the merge skips empty partials).

    Each station policy is its cell's own; ``load_aware`` budgets are
    partitioned proportionally to the UE-block sizes — the same
    documented approximation as single-cell sharding, with block size
    standing in for the (timeline-dependent) visit count.
    """
    sizes = shard_sizes(devices, shards)
    if not 0 <= shard_index < len(sizes):
        raise ValueError(
            f"shard index {shard_index} out of range [0, {len(sizes)})"
        )
    begin = sum(sizes[:shard_index])  # repro-lint: allow[left-fold] reason=integer shard offsets; exact order-independent arithmetic
    slots = {name: slot for slot, name in enumerate(metro.cell_names)}
    visits: list[list[_Visit]] = [[] for _ in metro.cells]
    for index in range(begin, begin + sizes[shard_index]):
        moves = metro.timeline(index, seed, duration_s)
        home = slots[moves[0][0]]
        for ordinal, (name, enter) in enumerate(moves):
            nxt = ordinal + 1
            leave = moves[nxt][1] if nxt < len(moves) else None
            visits[slots[name]].append((index, ordinal, enter, leave, home))

    profile = get_profile(carrier)
    partials: list[CellShard | None] = []
    for cell, cell_visits in zip(metro.cells, visits):
        if not cell_visits:
            partials.append(None)
            continue
        simulator = CellSimulator(
            profile,
            _shard_dormancy_policy(
                cell.dormancy or DormancySpec(), sizes, shard_index
            ),
            load_sample_interval_s=(
                SHARD_SAMPLE_INTERVAL_S if len(sizes) > 1 else None
            ),
        )
        # A cell's device specs live only for its own run, so one cell's
        # streams and policies are alive at a time.
        partials.append(simulator.run_shard(_visit_devices(
            metro, cell_visits, devices, duration_s, seed, chunk_s, policy
        )))
    return tuple(partials)


def _visit_devices(
    metro: Metro,
    visits: Sequence[_Visit],
    devices: int,
    duration_s: float,
    seed: int,
    chunk_s: float,
    policy: "PolicySpec",
) -> list[DeviceSpec]:
    """One windowed :class:`DeviceSpec` per ``(index, ordinal, enter,
    leave, home)`` visit.

    A UE's workload and cohort come from its **home cell** — the cell its
    timeline starts in — and move with it: the home scenario's cohort
    stream, or the metro application mix under the hashed
    :func:`workload_seed`.  Every visit replays the window of a fresh
    full-horizon stream.
    """
    specs: list[DeviceSpec] = []
    for index, ordinal, enter, leave, home in visits:
        scenario = metro.cells[home].scenario
        if scenario is not None:
            cohort = scenario.cohort_at(index, devices)
            cohort_label = cohort.label
            device_policy = cohort.policy if cohort.policy is not None else policy
            source = scenario.cohort_stream(
                cohort, index, duration_s, seed, chunk_s
            )
        else:
            cohort_label = ""
            device_policy = policy
            source = stream_application_packets(
                metro.apps[index % len(metro.apps)], duration=duration_s,
                seed=workload_seed(seed, index), chunk_s=chunk_s,
            )
        if enter != 0.0 or leave is not None:  # repro-lint: allow[float-eq] reason=timeline-start boundary: enter is constructed as literal 0.0 for the first visit
            # Not a whole-horizon stay: replay only the visit's window.
            source = windowed_stream(
                source, enter, leave if leave is not None else math.inf
            )
        specs.append(
            DeviceSpec(
                device_id=ordinal * devices + index,
                trace=source,
                policy=device_policy.build(),
                cohort=cohort_label,
                attach_at=enter,
                detach_at=leave,
            )
        )
    return specs


@dataclass(frozen=True)
class MetroCellResult:
    """One cell's closed results within a metro run."""

    name: str
    capacity: int
    #: The station policy key this cell ran (e.g. ``"accept_all"``).
    dormancy: str
    #: Visits that ended in a handover departure from this cell.
    departures: int
    #: Visits that began with a handover arrival (attach after t=0).
    arrivals: int
    result: CellResult = field(repr=False)

    @property
    def visits(self) -> int:
        return len(self.result.devices)

    @property
    def utilization(self) -> float | None:
        """Peak simultaneous non-Idle devices over capacity (advisory)."""
        if self.capacity <= 0:
            return None
        return self.result.peak_active_devices / self.capacity


@dataclass(frozen=True)
class MetroResult:
    """Merged outcome of a metro run (see module docstring).

    ``duration_s`` is the globally resolved end time shared by every
    cell, so each UE's per-cell state times tile ``[0, duration_s)``
    exactly.  Totals are sums over cells by construction.
    """

    name: str
    #: The UE population size (visits across cells exceed this).
    devices: int
    duration_s: float
    cells: tuple[MetroCellResult, ...]

    def cell(self, name: str) -> MetroCellResult:
        for entry in self.cells:
            if entry.name == name:
                return entry
        raise KeyError(f"no cell named {name!r} in metro result {self.name!r}")

    def ue_index(self, device_id: int) -> int:
        """Recover the global UE index from a visit device id."""
        return device_id % self.devices

    @property
    def handovers(self) -> int:
        """Total mid-stream handovers (equals total visits − population)."""
        return sum(entry.departures for entry in self.cells)  # repro-lint: allow[left-fold] reason=integer handover count; exact order-independent arithmetic

    @property
    def total_energy_j(self) -> float:
        total = 0.0
        for entry in self.cells:  # strict left fold in cell order (DESIGN.md §2.1)
            total += entry.result.total_energy_j
        return total

    @property
    def total_switches(self) -> int:
        return sum(entry.result.total_switches for entry in self.cells)  # repro-lint: allow[left-fold] reason=integer switch count; exact order-independent arithmetic

    @property
    def total_packets(self) -> int:
        return sum(entry.result.total_packets for entry in self.cells)  # repro-lint: allow[left-fold] reason=integer packet count; exact order-independent arithmetic

    @property
    def total_messages(self) -> int:
        return sum(entry.result.signaling.messages for entry in self.cells)  # repro-lint: allow[left-fold] reason=integer message count; exact order-independent arithmetic

    @property
    def dormancy_requests(self) -> int:
        return sum(entry.result.dormancy_requests for entry in self.cells)  # repro-lint: allow[left-fold] reason=integer request count; exact order-independent arithmetic

    @property
    def dormancy_denied(self) -> int:
        return sum(entry.result.dormancy_denied for entry in self.cells)  # repro-lint: allow[left-fold] reason=integer denial count; exact order-independent arithmetic

    @property
    def denial_rate(self) -> float:
        requests = self.dormancy_requests
        if requests == 0:
            return 0.0
        return self.dormancy_denied / requests


def merge_metro_shards(
    metro: Metro,
    devices: int,
    shards_by_cell: Sequence[Sequence[CellShard | None]],
) -> MetroResult:
    """Close every cell at the metro-wide end time and aggregate.

    ``shards_by_cell[i]`` holds cell ``i``'s partials in shard order
    (``None`` for empty partitions).  The global ``(last_emitted,
    max_now)`` pair is injected into one shard per cell so each
    :func:`merge_cell_shards` resolves the *same* end time a single
    whole-metro kernel run would; cells with no visits at all synthesise
    an empty result over that duration.
    """
    if len(shards_by_cell) != len(metro.cells):
        raise ValueError(
            f"expected shards for {len(metro.cells)} cells, "
            f"got {len(shards_by_cell)}"
        )
    flat = [s for group in shards_by_cell for s in group if s is not None]
    if not flat:
        raise ValueError("metro run produced no devices in any cell")
    emitted = [s.last_emitted for s in flat if s.last_emitted is not None]
    global_emitted = max(emitted) if emitted else None
    global_now = max(s.max_now for s in flat)
    end_time = resolve_end_time(global_emitted, global_now, flat[0].trailing_time)

    cell_results: list[MetroCellResult] = []
    for cell, group in zip(metro.cells, shards_by_cell):
        partials = [s for s in group if s is not None]
        dormancy = cell.dormancy or DormancySpec()
        if partials:
            injected = list(partials)
            injected[0] = replace(
                injected[0], last_emitted=global_emitted, max_now=global_now
            )
            result = merge_cell_shards(injected)
            # Columnar counts over the shard partials — no row views are
            # materialised just to count handover departures/arrivals.
            departures = sum(s.devices.count_closed() for s in partials)  # repro-lint: allow[left-fold] reason=integer departure count; exact order-independent arithmetic
            arrivals = sum(  # repro-lint: allow[left-fold] reason=integer arrival count; exact order-independent arithmetic
                s.devices.count_ids_at_least(devices) for s in partials
            )
        else:
            result = CellResult(
                dormancy_policy_name=dormancy.build().name,
                devices=(),
                signaling=SignalingLoad(
                    promotions=0, timer_demotions=0,
                    fast_dormancy_demotions=0, messages=0,
                    duration_s=end_time,
                ),
                duration_s=end_time,
                peak_active_devices=0,
            )
            departures = arrivals = 0
        cell_results.append(
            MetroCellResult(
                name=cell.name,
                capacity=cell.capacity,
                dormancy=dormancy.label,
                departures=departures,
                arrivals=arrivals,
                result=result,
            )
        )
    return MetroResult(
        name=metro.name,
        devices=devices,
        duration_s=end_time,
        cells=tuple(cell_results),
    )
