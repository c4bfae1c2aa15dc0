"""Multi-device cell simulation with network-controlled fast dormancy.

This is the substrate for the paper's future-work question (§8): what
happens at the base station when *many* phones run MakeIdle and trigger
fast dormancy?  The simulator replays one packet trace per device, each
against its own RRC state machine and device-side policy, while a single
:class:`~repro.basestation.policies.DormancyPolicy` arbitrates every
fast-dormancy request from the live cell load.

Since the kernel refactor, :class:`CellSimulator` is a thin façade over
:class:`~repro.sim.engine.SimulationEngine` — the same heap-based event
kernel behind the single-device :class:`~repro.sim.TraceSimulator` — so
devices get the *full* device-side semantics, including the MakeActive
promotion-delaying path that the pre-kernel cell simulator did not model:
a device running a combined MakeIdle+MakeActive policy buffers and batches
sessions exactly as it does in a single-UE run, while the base station
still arbitrates its fast-dormancy requests.

Scope and simplifications
-------------------------

* Channel capacity is not modelled; the cell tracks occupancy and
  signalling load but never blocks a promotion.  This matches the paper's
  scope (energy and signalling, not throughput).
* Device traces may be materialised :class:`~repro.traces.packet.PacketTrace`
  objects *or* lazy packet iterables (see :mod:`repro.traces.streaming`).
  With lazy sources the kernel holds one pending packet per device and the
  per-device energy accounting folds incrementally, so memory is bounded by
  the number of attached devices — 10k+-device cells are practical.
  Offline policies that inspect the whole trace in ``prepare`` (the Oracle,
  trace-trained baselines) get it: :meth:`CellSimulator.run_shard`
  materialises the lazy source of each such device, and only of those.

Sharding
--------

A cell can be partitioned into disjoint device shards, each run by its own
simulator (typically in its own worker process) via :meth:`run_shard`, and
merged back into one :class:`CellResult` with :func:`merge_cell_shards`.
For shard-independent dormancy policies the merged per-device records are
byte-identical to :meth:`CellSimulator.run` at any shard count — ``run``
itself is implemented as the one-shard case of the same protocol.  See
``docs/DESIGN.md`` §2.1 for the merge contract and its two documented
approximations (multi-shard ``peak_active_devices``, ``load_aware`` budget
partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence, Union

from ..core.policy import RadioPolicy
from ..energy.accounting import EnergyBreakdown
from ..metrics.switches import peak_per_window
from ..rrc.profiles import CarrierProfile
from ..rrc.signaling import SignalingLoad, signaling_costs_for
from ..rrc.state_machine import SwitchKind
from ..rrc.states import RadioState
from ..sim import vector_engine
from ..sim.engine import (
    LOAD_WINDOW_S,
    CellLoad,
    LoadSample,
    SimulationEngine,
    UeContext,
    resolve_end_time,
)
from ..sim.results import SessionDelay
from ..traces.packet import Packet, PacketTrace
from .policies import AcceptAllDormancy, DormancyPolicy
from .table import (
    DeviceTable,
    FloatArray,
    ShardTable,
    _float_col,
    _fold_sum,
    _int_col,
    _np,
    derive_tail_columns,
)

__all__ = [
    "CellResult",
    "CellShard",
    "CellSimulator",
    "CellSummary",
    "CohortBreakdown",
    "DeviceResult",
    "DeviceSpec",
    "DeviceTable",
    "FloatArray",
    "ShardTable",
    "merge_cell_shards",
]

#: A device workload: a materialised trace or a lazy time-ordered source.
TraceSource = Union[PacketTrace, Iterable[Packet]]

#: The trace every online device on a lazy source is prepared with.
_NO_TRACE = PacketTrace(())

#: The numeric columns a scalar shard exports, in the order
#: :meth:`CellSimulator.run_shard` lists each device's values.
_SCALAR_EXPORT = (
    "device_id", "data_j", "data_time_s", "active_time_s",
    "high_idle_time_s", "idle_time_s", "switch_j", "promotions",
    "timer_demotions", "fast_demotions", "open_since", "last_activity",
    "packets", "dormancy_requests", "dormancy_granted", "dormancy_denied",
    "delayed_sessions", "total_session_delay_s", "learn_iterations",
    "learn_delay_first_s", "learn_delay_final_s",
)


@dataclass(frozen=True)
class DeviceSpec:
    """One device attached to the cell: its identity, trace and policy.

    ``trace`` may be a :class:`~repro.traces.packet.PacketTrace` or any
    iterable of packets in non-decreasing timestamp order (a generator from
    :mod:`repro.traces.streaming`); lazy sources keep cell memory bounded by
    the device count; :meth:`CellSimulator.run_shard` materialises one
    only for a policy that sets ``requires_trace``.

    ``attach_at``/``detach_at`` bound a *metro visit*: the device's
    timeline starts at ``attach_at`` (Idle until its first packet) and — if
    ``detach_at`` is set — is closed there by a kernel handover event.  The
    trace must fall inside ``[attach_at, detach_at)``.  The defaults
    (attach at 0, never detach) are the plain single-cell device.
    """

    device_id: int
    trace: TraceSource
    policy: RadioPolicy
    #: Scenario cohort label ("" for homogeneous populations); carried
    #: through to :class:`DeviceResult` so cell results can report
    #: per-cohort breakdowns.
    cohort: str = ""
    #: When this device's timeline starts (a mid-run metro attach).
    attach_at: float = 0.0
    #: When a handover closes this device's timeline (``None``: stays
    #: attached until the cell's globally resolved end time).
    detach_at: float | None = None

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError(f"device_id must be non-negative, got {self.device_id}")
        if self.attach_at < 0:
            raise ValueError(f"attach_at must be non-negative, got {self.attach_at}")
        if self.detach_at is not None and self.detach_at <= self.attach_at:
            raise ValueError(
                f"detach_at ({self.detach_at}) must be after "
                f"attach_at ({self.attach_at})"
            )


def _check_policy_isolation(devices: Sequence[DeviceSpec]) -> None:
    """Reject a *stateful* policy instance shared by several devices.

    A policy that learns from the packet stream (overrides
    ``observe_packet`` or ``on_release`` — the online learners and
    MakeIdle's window) carries per-UE state; sharing one instance across
    devices leaks expert weights and inter-arrival history between UEs and
    breaks shard byte-identity.  So does a policy that sets
    ``requires_trace`` (the Oracle, trace-fitted timers and bounds): its
    ``prepare`` stores what it read from its device's trace, and the next
    device's ``prepare`` would overwrite it.  Stateless decision policies
    (fixed timers, the status quo) may be shared freely.
    """
    owners: dict[int, int] = {}
    for spec in devices:
        cls = type(spec.policy)
        if (
            cls.observe_packet is RadioPolicy.observe_packet
            and cls.on_release is RadioPolicy.on_release
            and not spec.policy.requires_trace
        ):
            continue
        owner = owners.setdefault(id(spec.policy), spec.device_id)
        if owner != spec.device_id:
            raise ValueError(
                f"devices {owner} and {spec.device_id} share one "
                f"{cls.__name__} instance; stateful policies must be "
                "built fresh per device (use PolicySpec.build() or "
                "repro.core.controller.build_scheme per UE)"
            )


@dataclass(frozen=True)
class DeviceResult:
    """Per-device outcome of a cell simulation."""

    device_id: int
    policy_name: str
    breakdown: EnergyBreakdown
    dormancy_requests: int
    dormancy_granted: int
    dormancy_denied: int
    packets: int = 0
    #: Scenario cohort label ("" for homogeneous populations).
    cohort: str = ""
    #: Sample of this device's delayed-session records (capped per UE so
    #: long MakeActive runs stay bounded); totals are in the counters below.
    session_delays: tuple[SessionDelay, ...] = field(default=(), repr=False)
    delayed_sessions: int = 0
    total_session_delay_s: float = 0.0
    #: Learning-curve summary of this device's online learner (MakeActive
    #: Learn-α): completed learning iterations and the delay used at the
    #: first and last of them.  All zero for non-learning policies.
    learn_iterations: int = 0
    learn_delay_first_s: float = 0.0
    learn_delay_final_s: float = 0.0

    @property
    def total_energy_j(self) -> float:
        """Total device energy over the run, joules."""
        return self.breakdown.total_j

    @property
    def denial_rate(self) -> float:
        """Fraction of this device's dormancy requests that were denied."""
        if self.dormancy_requests == 0:
            return 0.0
        return self.dormancy_denied / self.dormancy_requests

    @property
    def mean_session_delay_s(self) -> float:
        """Mean MakeActive delay over this device's *delayed* sessions."""
        if self.delayed_sessions == 0:
            return 0.0
        return self.total_session_delay_s / self.delayed_sessions


@dataclass(frozen=True)
class CohortBreakdown:
    """Aggregate outcome of one scenario cohort within a cell result."""

    cohort: str
    devices: int
    energy_j: float
    switches: int
    promotions: int
    demotions: int
    packets: int
    dormancy_requests: int
    dormancy_denied: int
    delayed_sessions: int
    total_session_delay_s: float
    #: Learning iterations completed by this cohort's online learners
    #: (0 for cohorts running non-learning policies).
    learn_iterations: int = 0

    @property
    def denial_rate(self) -> float:
        """Fraction of this cohort's dormancy requests that were denied."""
        if self.dormancy_requests == 0:
            return 0.0
        return self.dormancy_denied / self.dormancy_requests

    @property
    def energy_per_device_j(self) -> float:
        """Mean per-device energy of the cohort, joules."""
        return self.energy_j / self.devices if self.devices else 0.0

    def as_dict(self) -> dict[str, float | int | str]:
        """Plain-dict form for records/JSON export."""
        return {
            "cohort": self.cohort,
            "devices": self.devices,
            "energy_j": self.energy_j,
            "energy_per_device_j": self.energy_per_device_j,
            "switches": self.switches,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "packets": self.packets,
            "dormancy_requests": self.dormancy_requests,
            "dormancy_denied": self.dormancy_denied,
            "denial_rate": self.denial_rate,
            "delayed_sessions": self.delayed_sessions,
            "total_session_delay_s": self.total_session_delay_s,
            "learn_iterations": self.learn_iterations,
        }


@dataclass(frozen=True)
class CellSummary:
    """The cell-wide aggregates of one :class:`CellResult`, folded once.

    :meth:`of` runs every fold a records query reads — the energy left
    fold, the integer totals, the peak-switch sweep, the learning summary
    and the cohort groups — from the result's columns.  The result builds
    it when it is made and the disk cache stores it in its file header,
    so a result loaded from the cache answers its aggregate accessors
    without folding anything.
    """

    total_energy_j: float
    total_packets: int
    dormancy_requests: int
    dormancy_denied: int
    peak_switches_per_minute: int
    learning: dict[str, float | int]
    cohorts: dict[str, CohortBreakdown]

    @classmethod
    def of(cls, devices: DeviceTable, switch_times: FloatArray) -> "CellSummary":
        """Fold ``devices`` and ``switch_times`` into one summary."""
        totals = devices.row_totals()
        cohorts = {}
        for cohort, group in devices.cohort_groups(totals).items():
            cohorts[cohort] = CohortBreakdown(
                cohort=cohort,
                devices=int(group["devices"]),
                energy_j=float(group["energy_j"]),
                switches=int(group["promotions"]) + int(group["demotions"]),
                promotions=int(group["promotions"]),
                demotions=int(group["demotions"]),
                packets=int(group["packets"]),
                dormancy_requests=int(group["dormancy_requests"]),
                dormancy_denied=int(group["dormancy_denied"]),
                delayed_sessions=int(group["delayed_sessions"]),
                total_session_delay_s=float(group["total_session_delay_s"]),
                learn_iterations=int(group["learn_iterations"]),
            )
        return cls(
            total_energy_j=_fold_sum(totals),
            total_packets=devices.int_total("packets"),
            dormancy_requests=devices.int_total("dormancy_requests"),
            dormancy_denied=devices.int_total("dormancy_denied"),
            peak_switches_per_minute=peak_per_window(
                switch_times.tolist(), LOAD_WINDOW_S, presorted=True
            ),
            learning=devices.learning_summary(),
            cohorts=cohorts,
        )


@dataclass(frozen=True)
class CellResult:
    """Aggregate outcome of a cell simulation.

    ``devices`` is stored columnar (:class:`~repro.basestation.table.DeviceTable`,
    one numpy column per field); indexing and iteration materialise the
    familiar :class:`DeviceResult` rows on demand, and a plain sequence of
    rows passed to the constructor is normalised into a table.  The
    cell-wide aggregates push down to column operations that replicate the
    row-based left-fold sums bit for bit (see ``docs/DESIGN.md`` §5), and
    run once, when the result is made: ``summary`` (a
    :class:`CellSummary`) holds them, is stored with the result by the
    disk cache, and is what the aggregate accessors read.  ``switch_times`` is time-ordered (the
    peak sweep relies on it).
    """

    dormancy_policy_name: str
    devices: DeviceTable
    signaling: SignalingLoad
    duration_s: float
    peak_active_devices: int
    switch_times: FloatArray = field(default=(), repr=False)
    load_samples: tuple[LoadSample, ...] = field(default=(), repr=False)
    #: How many devices ran on the vectorized kernel: the devices of the
    #: shards that took it (see :mod:`repro.sim.vector_engine`).
    #: Diagnostic only and excluded from equality: both kernels produce
    #: byte-identical results, so a vector result *equals* its scalar twin.
    vector_devices: int = field(default=0, compare=False)
    #: The cell-wide aggregates, folded once by ``__post_init__``.
    summary: CellSummary = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.devices, DeviceTable):
            object.__setattr__(
                self, "devices", DeviceTable.from_rows(tuple(self.devices))
            )
        if not isinstance(self.switch_times, FloatArray):
            object.__setattr__(
                self, "switch_times", FloatArray(self.switch_times)
            )
        object.__setattr__(
            self, "summary", CellSummary.of(self.devices, self.switch_times)
        )

    @property
    def total_energy_j(self) -> float:
        """Energy summed over every device, joules (columnar left fold)."""
        return self.summary.total_energy_j

    @property
    def total_switches(self) -> int:
        """State switches summed over every device."""
        return self.signaling.switches

    @property
    def total_packets(self) -> int:
        """Packets transferred summed over every device."""
        return self.summary.total_packets

    @property
    def dormancy_requests(self) -> int:
        """Fast-dormancy requests summed over every device."""
        return self.summary.dormancy_requests

    @property
    def dormancy_denied(self) -> int:
        """Denied fast-dormancy requests summed over every device."""
        return self.summary.dormancy_denied

    @property
    def denial_rate(self) -> float:
        """Cell-wide fraction of dormancy requests that were denied."""
        requests = self.dormancy_requests
        return self.dormancy_denied / requests if requests else 0.0

    @property
    def peak_switches_per_minute(self) -> int:
        """Largest number of switches observed in any 60-second window.

        Computed once, when the result is made, by the scalar two-pointer
        sweep :func:`~repro.metrics.switches.peak_per_window` over the
        time-ordered ``switch_times`` (no sort), so its float comparisons
        match the pinned golden values exactly.
        """
        return self.summary.peak_switches_per_minute

    def device(self, device_id: int) -> DeviceResult:
        """Return the result for one device id (O(1) after the first call)."""
        return self.devices.by_id(device_id)

    def cohorts(self) -> tuple[str, ...]:
        """Cohort labels present in this cell, in first-device order.

        Empty for homogeneous (non-scenario) populations, whose devices
        all carry the default ``""`` label.
        """
        return self.devices.cohorts()

    def cohort_breakdown(self) -> dict[str, CohortBreakdown]:
        """Per-cohort aggregates, keyed by cohort label in first-device order.

        Devices without a cohort label (homogeneous populations) are
        grouped under ``""``; for scenario populations every device is
        labelled, so the cohort totals partition the cell totals exactly
        (a conservation law asserted by the property tests).  Group sums
        are columnar but fold left over the group's rows in device order,
        matching the row-based sums bit for bit.  Read from ``summary``.
        """
        return dict(self.summary.cohorts)

    def learning_summary(self) -> dict[str, float | int]:
        """Cell-wide learning-curve summary (see ``DeviceTable.learning_summary``).

        Read from ``summary``.
        """
        return dict(self.summary.learning)


@dataclass(frozen=True)
class CellShard:
    """The picklable partial result of one shard's kernel run.

    Produced by :meth:`CellSimulator.run_shard`, consumed by
    :func:`merge_cell_shards`.  Timelines are still open: ``last_emitted``
    and ``max_now`` are this shard's contribution to the global end-time
    resolution, and ``devices`` holds every device's folded totals and
    open segment as one :class:`ShardTable`, which both kernels build
    column-wise with :meth:`ShardTable.from_columns`.
    """

    dormancy_policy_name: str
    profile: CarrierProfile
    trailing_time: float
    devices: ShardTable
    last_emitted: float | None
    max_now: float
    load: CellLoad
    load_samples: tuple[LoadSample, ...]
    sample_interval_s: float | None
    #: Devices of this shard that ran on the vectorized kernel: all of
    #: them or none (scalar and vector shards merge freely).
    vector_devices: int = 0

    def __post_init__(self) -> None:
        # Compact the kernel's boxed switch-time list into one float
        # column: the shard outlives the run (often crossing a process
        # boundary) and the merge only reads the finished timeline, so
        # holding millions of boxed floats per shard would dominate RSS
        # at population scale.
        load = self.load
        if _np is not None and isinstance(load.switch_times, list):
            load.switch_times = _np.asarray(load.switch_times,
                                            dtype=_np.float64)
            load._recent = []
            load._recent_start = 0


class CellSimulator:
    """Replays several devices' traces against one base station.

    Parameters
    ----------
    profile:
        Carrier profile shared by every device in the cell.
    dormancy_policy:
        Base-station policy answering fast-dormancy requests; defaults to
        the paper's always-accept assumption.
    load_sample_interval_s:
        When set, the kernel records a cell-load sample every this many
        seconds (``CellResult.load_samples``).

    Each shard runs on one of two byte-identical kernels, chosen by
    :func:`repro.sim.vector_engine.use_vector_kernel`: the numpy batch
    kernel when every device policy and the base station allow it, the
    event-driven scalar kernel otherwise.
    """

    def __init__(
        self,
        profile: CarrierProfile,
        dormancy_policy: DormancyPolicy | None = None,
        load_sample_interval_s: float | None = None,
    ) -> None:
        self._engine = SimulationEngine(profile)
        self._dormancy_policy = (
            dormancy_policy if dormancy_policy is not None else AcceptAllDormancy()
        )
        self._sample_interval = load_sample_interval_s

    @property
    def profile(self) -> CarrierProfile:
        """The carrier profile shared by all devices."""
        return self._engine.profile

    @property
    def dormancy_policy(self) -> DormancyPolicy:
        """The base-station dormancy policy."""
        return self._dormancy_policy

    @property
    def engine(self) -> SimulationEngine:
        """The shared event kernel this façade drives."""
        return self._engine

    @property
    def sample_interval_s(self) -> float | None:
        """The cell-load sampling cadence (``None``: sampling off)."""
        return self._sample_interval

    def run(self, devices: Sequence[DeviceSpec]) -> CellResult:
        """Simulate all devices and return per-device and aggregate results.

        Implemented as the one-shard case of the shard protocol
        (:meth:`run_shard` + :func:`merge_cell_shards`), whose merge
        reproduces the pre-shard finish float op for float op — so this
        remains the exact reference a sharded run is compared against.
        """
        return merge_cell_shards([self.run_shard(devices)])

    def run_shard(self, devices: Sequence[DeviceSpec]) -> CellShard:
        """Run one device partition of a (possibly larger) cell.

        Returns the shard's open partial result; hand every shard of the
        cell to :func:`merge_cell_shards` to close the timelines at the
        globally resolved end time and assemble the :class:`CellResult`.
        The caller owns the partition: device ids must be unique *across*
        shards, and any cross-shard coupling of the dormancy policy (e.g. a
        load-aware switch budget) must be partitioned by the caller — each
        shard's policy instance only ever sees its own shard's load.

        The whole shard runs on the kernel
        :func:`~repro.sim.vector_engine.use_vector_kernel` picks from its
        station and device-policy types; ``CellShard.vector_devices``
        records which (all devices or none).  Either kernel gets the
        station's ``decide``, or ``None`` for an always-granting station,
        which is then never asked.

        This is the one place that decides whether a device's packets are
        held in memory: a lazy source is materialised (and run) for a
        policy that sets ``requires_trace``, and every other policy is
        prepared with its device's trace or one shared empty trace.
        """
        _check_policy_isolation(devices)
        if not devices:
            raise ValueError("at least one device is required")
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise ValueError("device ids must be unique")

        profile = self._engine.profile
        station = self._dormancy_policy
        vector = vector_engine.use_vector_kernel(
            station, [spec.policy for spec in devices]
        )
        decide = (
            None if vector_engine.station_always_grants(station)
            else station.decide
        )
        station.reset()
        devices = list(devices)
        for index, spec in enumerate(devices):
            trace = spec.trace
            if not isinstance(trace, PacketTrace):
                if spec.policy.requires_trace:
                    trace = PacketTrace(list(trace))
                    devices[index] = replace(spec, trace=trace)
                else:
                    trace = _NO_TRACE
            spec.policy.prepare(trace, profile)
            spec.policy.reset()
        if vector:
            return vector_engine.run_shard_vector(self, devices, decide)

        contexts: dict[int, UeContext] = {}
        streams: dict[int, Iterable[Packet]] = {}
        for spec in devices:
            contexts[spec.device_id] = UeContext(
                spec.device_id, profile, spec.policy, collect=False,
                start_time=spec.attach_at,
            )
            streams[spec.device_id] = spec.trace

        handovers = {
            spec.device_id: spec.detach_at
            for spec in devices
            if spec.detach_at is not None
        }
        load = CellLoad()
        outcome = self._engine.run(
            streams,
            contexts,
            decide=decide,
            load=load,
            sample_interval_s=self._sample_interval,
            finish=False,
            handovers=handovers or None,
        )

        # Export every context's folded totals and open segment, in shard
        # order, as the shard's columns.
        numbers = []
        open_codes = []
        closed = []
        session_delays = []
        for spec in devices:
            ue = contexts[spec.device_id]
            machine = ue.machine
            # The learner lives and dies inside its shard, so its records
            # are already final.
            records = spec.policy.learning_records()
            first_delay = final_delay = 0.0
            if records:
                first_delay = float(getattr(records[0], "delay_used", 0.0))
                final_delay = float(getattr(records[-1], "delay_used", 0.0))
            numbers.append((
                spec.device_id, *ue.folded_totals(), ue.promotions,
                ue.timer_demotions, ue.fast_demotions, machine.segment_start,
                machine.last_activity, ue.packet_count, ue.dormancy_requests,
                ue.dormancy_granted, ue.dormancy_denied, ue.delayed_sessions,
                ue.total_delay_s, len(records), first_delay, final_delay,
            ))
            open_codes.append(ShardTable.state_code(machine.state))
            closed.append(ue.departed)
            session_delays.append(ue.session_delays)
        table = ShardTable.from_columns(
            dict(zip(_SCALAR_EXPORT, zip(*numbers))),
            open_codes=open_codes,
            closed=closed,
            policy_names=[spec.policy.name for spec in devices],
            cohorts=[spec.cohort for spec in devices],
            session_delays=session_delays,
        )
        return CellShard(
            dormancy_policy_name=station.name,
            profile=profile,
            trailing_time=self._engine.trailing_time,
            devices=table,
            last_emitted=outcome.last_emitted,
            max_now=outcome.end_time,
            load=load,
            load_samples=outcome.samples,
            sample_interval_s=self._sample_interval,
        )


def _close_columns(
    combined: ShardTable, profile: CarrierProfile, end_time: float
) -> tuple[list[float], list[float], list[float], list[int]]:
    """Close every open timeline of ``combined`` at ``end_time``.

    A shard exports each device before its timeline closes, because only
    the merge knows the global close time: the folded state-time totals
    plus the open segment with its pending timer demotions, pinned down
    by the ``open_state`` code and the ``open_since`` and
    ``last_activity`` columns.  This replays exactly what
    :meth:`RrcStateMachine.finish` (pending timer demotions via
    ``_apply_timers``, then the final fold-at-transition interval
    accounting) would have folded: the columns are pulled to Python
    scalars once and each device runs the same boundary comparisons and
    per-interval additions, in the same order, so the closed state times
    are bit-equal to the single-process close at the same ``end_time`` at
    any shard count.  Devices whose ``closed`` flag is set (a handover
    closed them at their departure instant) pass through untouched.
    Returns the closed
    ``(active_time_s, high_idle_time_s, idle_time_s, timer_demotions)``
    lists.
    """
    active = combined.column("active_time_s").tolist()
    high = combined.column("high_idle_time_s").tolist()
    idle = combined.column("idle_time_s").tolist()
    tdem = combined.column("timer_demotions").tolist()
    closed = combined.closed_flags.tolist()
    states = combined.open_state_codes.tolist()
    open_since = combined.column("open_since").tolist()
    last_activity = combined.column("last_activity").tolist()

    t1 = profile.t1
    t2 = profile.t2
    has_high = profile.has_high_idle_state
    code_active = combined.state_code(RadioState.ACTIVE)
    code_high = combined.state_code(RadioState.HIGH_IDLE)
    code_idle = combined.state_code(RadioState.IDLE)
    code_promoting = combined.state_code(RadioState.PROMOTING)

    for i in range(len(active)):
        if closed[i]:
            # A handover already closed this timeline at its departure
            # instant; the exported totals are final.
            continue
        a = active[i]
        h = high[i]
        idl = idle[i]
        td = tdem[i]
        state = states[i]
        seg = open_since[i]
        if state == code_active:
            demote_at = last_activity[i] + t1
            if end_time >= demote_at:
                if has_high:
                    if demote_at > seg:
                        a = a + (demote_at - seg)
                    td += 1
                    state = code_high
                    seg = demote_at
                    idle_at = demote_at + t2
                    if end_time >= idle_at:
                        if idle_at > seg:
                            h = h + (idle_at - seg)
                        td += 1
                        state = code_idle
                        seg = idle_at
                else:
                    if demote_at > seg:
                        a = a + (demote_at - seg)
                    td += 1
                    state = code_idle
                    seg = demote_at
        elif state == code_high:
            idle_at = seg + t2
            if end_time >= idle_at:
                if idle_at > seg:
                    h = h + (idle_at - seg)
                td += 1
                state = code_idle
                seg = idle_at
        if end_time > seg:
            tail = end_time - seg
            if state == code_active or state == code_promoting:
                a = a + tail
            elif state == code_high:
                h = h + tail
            else:
                idl = idl + tail
        active[i] = a
        high[i] = h
        idle[i] = idl
        tdem[i] = td
    return active, high, idle, tdem


def _merged_switch_times(shards: Sequence[CellShard]) -> FloatArray:
    """All shards' switch timestamps as one time-ordered column.

    Each shard's timeline is time-ordered and the device partitions are
    disjoint, so a value sort of the concatenation equals the streamed
    heap-merge interleaving (equal floats are interchangeable).
    """
    if len(shards) == 1:
        return FloatArray(shards[0].load.switch_times)
    if _np is not None:
        parts = [
            _np.asarray(shard.load.switch_times, dtype=_np.float64)
            for shard in shards
        ]
        return FloatArray(_np.sort(_np.concatenate(parts)))
    merged: list[float] = []
    for shard in shards:
        merged.extend(shard.load.switch_times)
    merged.sort()
    return FloatArray(merged)


def _merge_load_samples(shards: Sequence[CellShard]) -> tuple[LoadSample, ...]:
    """Align every shard's samples on the shared grid and sum them.

    All shards sample on the same grid (same interval, same accumulation
    of float times from zero), so grid times match exactly; a shard whose
    events ended earlier simply stops contributing — by then all of its
    devices are Idle, so its contribution would be zero active devices,
    and only switches still inside the sliding window are undercounted.
    """
    by_time: dict[float, list[int]] = {}
    for shard in shards:
        for sample in shard.load_samples:
            acc = by_time.setdefault(sample.time, [0, 0])
            acc[0] += sample.active_devices
            acc[1] += sample.switches_last_minute
    return tuple(
        LoadSample(time=time, active_devices=active, switches_last_minute=switches)
        for time, (active, switches) in sorted(by_time.items())
    )


def merge_cell_shards(shards: Sequence[CellShard]) -> CellResult:
    """Merge per-shard partial results into one :class:`CellResult`.

    Per-device records are finished here: the global end time is resolved
    from every shard's observations exactly as a single kernel run would
    resolve it, and each device's final open interval is folded with the
    same float operations the single-process finish performs — so for
    shard-independent dormancy policies the merged per-device results are
    byte-identical to an unsharded run at any shard count.

    Aggregates: switch timelines interleave exactly (disjoint device
    partitions), so ``switch_times`` — and the peak-switches metric
    computed from it — are exact.  ``load_samples`` are summed on the
    shared sample grid.  ``peak_active_devices`` is exact for one shard;
    for several it is recomputed from the merged sample series when
    sampling was on, else it falls back to the sum of per-shard peaks (an
    upper bound) — see ``docs/DESIGN.md``.
    """
    if not shards:
        raise ValueError("at least one shard is required")
    first = shards[0]
    for shard in shards[1:]:
        if shard.profile != first.profile:
            raise ValueError("shards were run against different carrier profiles")
        if shard.dormancy_policy_name != first.dormancy_policy_name:
            raise ValueError("shards were run under different dormancy policies")
        if shard.trailing_time != first.trailing_time:
            raise ValueError("shards were run with different trailing times")
        if shard.sample_interval_s != first.sample_interval_s:
            raise ValueError("shards were run with different sample grids")

    combined = (
        first.devices if len(shards) == 1
        else ShardTable.concat([shard.devices for shard in shards])
    )
    ids = combined.column("device_id")
    if _np is not None:
        unique_ids = int(_np.unique(ids).size)
    else:
        unique_ids = len(set(ids.tolist()))
    if unique_ids != len(combined):
        raise ValueError("shards overlap: device ids must be unique across shards")

    emitted = [s.last_emitted for s in shards if s.last_emitted is not None]
    last_emitted = max(emitted) if emitted else None
    max_now = max(shard.max_now for shard in shards)
    end_time = resolve_end_time(last_emitted, max_now, first.trailing_time)

    profile = first.profile
    costs = signaling_costs_for(profile.technology)

    # Close every open timeline with the exact per-device scalar float ops
    # (see _close_columns), then derive the energy columns
    # elementwise — the same op sequence assemble_breakdown runs per row.
    active_l, high_l, idle_l, tdem_l = _close_columns(
        combined, profile, end_time
    )
    active_col = _float_col(active_l)
    high_col = _float_col(high_l)
    idle_col = _float_col(idle_l)
    data_time_col = combined.column("data_time_s")
    active_tail_j, high_idle_tail_j, idle_j = derive_tail_columns(
        profile, data_time_col, active_col, high_col, idle_col
    )
    fast_l = combined.column("fast_demotions").tolist()
    demotions_col = _int_col([t + f for t, f in zip(tdem_l, fast_l)])

    promotions = sum(combined.column("promotions").tolist())  # repro-lint: allow[left-fold] reason=integer switch counts; exact order-independent arithmetic
    timer_demotions = sum(tdem_l)  # repro-lint: allow[left-fold] reason=integer switch counts; exact order-independent arithmetic
    fast_demotions = sum(fast_l)  # repro-lint: allow[left-fold] reason=integer switch counts; exact order-independent arithmetic

    device_table = DeviceTable.from_columns(
        {
            "data_j": combined.column("data_j"),
            "active_tail_j": active_tail_j,
            "high_idle_tail_j": high_idle_tail_j,
            "idle_j": idle_j,
            "switch_j": combined.column("switch_j"),
            "data_time_s": data_time_col,
            "active_time_s": active_col,
            "high_idle_time_s": high_col,
            "idle_time_s": idle_col,
            "total_session_delay_s": combined.column("total_session_delay_s"),
            "device_id": ids,
            "promotions": combined.column("promotions"),
            "demotions": demotions_col,
            "packets": combined.column("packets"),
            "dormancy_requests": combined.column("dormancy_requests"),
            "dormancy_granted": combined.column("dormancy_granted"),
            "dormancy_denied": combined.column("dormancy_denied"),
            "delayed_sessions": combined.column("delayed_sessions"),
            "learn_iterations": combined.column("learn_iterations"),
            "learn_delay_first_s": combined.column("learn_delay_first_s"),
            "learn_delay_final_s": combined.column("learn_delay_final_s"),
        },
        combined.policy_codes, combined.policy_cats,
        combined.cohort_codes, combined.cohort_cats,
        combined.delays,
    )

    samples = _merge_load_samples(shards)
    if len(shards) == 1:
        peak_active = first.load.peak_active_devices  # exact
    elif samples:
        peak_active = max(sample.active_devices for sample in samples)
    else:
        # Sum of per-shard peaks: an upper bound (shards peak at
        # different moments) — see DESIGN.md §2.1.
        peak_active = sum(shard.load.peak_active_devices for shard in shards)  # repro-lint: allow[left-fold] reason=integer per-shard peaks; exact arithmetic

    signaling = SignalingLoad(
        promotions=promotions,
        timer_demotions=timer_demotions,
        fast_dormancy_demotions=fast_demotions,
        messages=(
            promotions * costs.messages_for(SwitchKind.PROMOTION)
            + timer_demotions * costs.messages_for(SwitchKind.TIMER_DEMOTION)
            + fast_demotions * costs.messages_for(SwitchKind.FAST_DORMANCY)
        ),
        duration_s=end_time,
    )
    return CellResult(
        dormancy_policy_name=first.dormancy_policy_name,
        devices=device_table,
        signaling=signaling,
        duration_s=end_time,
        peak_active_devices=peak_active,
        switch_times=_merged_switch_times(shards),
        load_samples=samples,
        vector_devices=sum(shard.vector_devices for shard in shards),  # repro-lint: allow[left-fold] reason=integer device count; exact arithmetic
    )
