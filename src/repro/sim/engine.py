"""Event-driven simulation kernel shared by the single-UE and cell simulators.

Both of the library's replay engines — the single-device
:class:`~repro.sim.simulator.TraceSimulator` and the multi-device
:class:`~repro.basestation.cell.CellSimulator` — are thin façades over the
:class:`SimulationEngine` defined here: a heap-based event queue with typed
events (packet arrival, scheduled fast-dormancy, MakeActive buffer release,
inactivity-timer expiry, handover departure, cell-load sampling) driving
one-or-many per-UE contexts against one shared clock.  Each :class:`UeContext` bundles an
:class:`~repro.rrc.state_machine.RrcStateMachine`, a
:class:`~repro.core.policy.RadioPolicy` and an energy accumulator.

The per-UE semantics (demotion scheduling, MakeActive buffering, tie-breaks,
trailing tail) are exactly those documented in ``docs/DESIGN.md`` and the
:mod:`repro.sim.simulator` module docstring; the event ordering encodes
them structurally:

* at equal times, a scheduled **buffer release** fires before a scheduled
  **fast dormancy**, which fires before a **packet arrival** (the demotion
  was scheduled first, so it fires strictly before the packet and the
  packet pays a fresh promotion);
* a packet arriving *strictly before* a scheduled demotion or release
  cancels it (lazy invalidation via per-UE sequence numbers).

Running one UE through the kernel is byte-identical to the pre-kernel
``TraceSimulator`` loop (asserted by the equivalence property tests in
``tests/sim/test_engine_equivalence.py``).

Streaming
---------

The kernel consumes packet *streams*, not materialised traces: at any
moment it holds one pending packet per UE plus at most one chunk-local
block per source, so a cell simulation's memory is bounded by the number
of attached UEs rather than the total packet count.  Sources implementing
the block protocol (``packet_blocks()`` — chunked application streams, or
a :class:`~repro.traces.packet.PacketTrace` as one block) are walked as
arrays by plain indexing; anything else falls back to one ``next()`` per
packet.  In streaming mode (``collect=False``) each context folds its
energy accounting incrementally — per-packet data energy as packets are
emitted, state/switch totals folded *inside the state machine at
transition time* (``fold_history``; bit-equal to draining recorded
history, with no history objects) — so 10k+-device cells run in bounded
memory (see :mod:`repro.traces.streaming` for lazy workload generators,
and ``docs/DESIGN.md`` §2.2 for the hot-path contract).

Cell mode
---------

Passing a :class:`CellLoad` puts the kernel in cell mode: it maintains
that live load (active-device count via inactivity-timer-expiry events,
switch timestamps in a sliding window), can record a :class:`LoadSample`
time series at a fixed cadence, and turns every scheduled fast-dormancy
event into a *request* (3GPP Release 8 network-controlled fast dormancy).
A base station's ``decide(ue_id, time, load)`` answers each request with
a bool (``False`` denies it) from the live load, which it reads and never
mutates; without ``decide`` every request is granted without a call.

Sharding
--------

A run invoked with ``finish=False`` returns with every timeline still
*open* (plus the observations — ``last_emitted``, the last processed event
time — that :func:`resolve_end_time` turns into a close time).  This is
the kernel half of sharded cell execution: disjoint device partitions run
in separate kernels (separate processes), and the merge closes every
device at the *globally* resolved end time with the exact float arithmetic
of a single-process finish — see :mod:`repro.basestation.cell` and
``docs/DESIGN.md`` §2.1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..core.policy import RadioPolicy
from ..energy.accounting import (
    DataEnergyModel,
    EnergyAccountant,
    EnergyBreakdown,
    assemble_breakdown,
)
from ..rrc.profiles import CarrierProfile
from ..rrc.state_machine import RrcStateMachine
from ..rrc.states import RadioState
from ..rrc.tables import transition_table
from ..traces.packet import Direction, Packet, PacketTrace
from .results import SessionDelay, SimulationResult

__all__ = [
    "CellLoad",
    "EventKind",
    "KernelResult",
    "LOAD_WINDOW_S",
    "LoadSample",
    "SimulationEngine",
    "StreamOrderError",
    "UeContext",
    "resolve_end_time",
]


class StreamOrderError(ValueError):
    """A packet stream yielded a timestamp earlier than one already consumed.

    Raised by the kernel the moment the violation is observed.  The run
    aborts *atomically*: every attached :class:`UeContext` is marked
    aborted before the error propagates — its folded totals, switch-count
    accessors and breakdown raise, and its machine refuses further
    advancement — no :class:`KernelResult` is produced, and therefore no
    partial timeline can leak into a shard merge.
    """


#: Streaming mode keeps at most this many SessionDelay records per UE (a
#: sample; totals are tracked in counters), so MakeActive cells stay O(1)
#: memory per UE.  Collect mode (single-UE runs) keeps everything.
_SESSION_DELAY_SAMPLE_CAP = 512

#: Prune a UE's per-flow last-activity table once it reaches this size.
#: Entries older than the session idle gap classify identically to absent
#: ones, so pruning never changes behaviour.
_FLOW_TABLE_PRUNE_SIZE = 256


class EventKind(IntEnum):
    """Typed kernel events; the integer value is the tie-break priority.

    At equal times a buffer release fires before a scheduled fast dormancy,
    which fires before a handover departure, which fires before an
    inactivity-timer expiry, which fires before a packet arrival — the
    ordering that reproduces the documented tie-break semantics (a demotion
    scheduled at exactly a packet's arrival time fires strictly before the
    packet, and anything scheduled at exactly a UE's departure instant that
    precedes it in priority is still charged to the departure cell).
    """

    RELEASE = 0        # MakeActive buffered-session release
    DORMANCY = 1       # scheduled fast-dormancy request
    HANDOVER = 2       # UE departs this cell (metro mobility)
    TIMER = 3          # inactivity-timer expiry (cell-load tracking)
    ARRIVAL = 4        # packet arrival
    SAMPLE = 5         # periodic cell-load sample


#: The event kinds as plain ints — what the hot loop pushes and compares
#: (an IntEnum ``int()`` call per event is pure overhead).
_RELEASE = int(EventKind.RELEASE)
_DORMANCY = int(EventKind.DORMANCY)
_HANDOVER = int(EventKind.HANDOVER)
_TIMER = int(EventKind.TIMER)
_ARRIVAL = int(EventKind.ARRIVAL)
_SAMPLE = int(EventKind.SAMPLE)


class _ArrivalSource:
    """Per-UE packet supply: a block-walking cursor over one stream.

    Sources implementing the block protocol (``packet_blocks()`` — chunked
    application streams, materialised :class:`PacketTrace`\\ s) are walked
    as chunk-local arrays by plain list indexing; anything else falls back
    to one ``next()`` per packet.  Either way the kernel sees the same
    packets in the same order, and at most one block (plus whatever the
    source buffers) is held in memory per UE.
    """

    __slots__ = ("blocks", "it", "buf", "idx", "n")

    def __init__(self, stream: "Iterator[Packet] | Iterable[Packet]") -> None:
        blocks = getattr(stream, "packet_blocks", None)
        if blocks is not None:
            self.blocks: Iterator[Sequence[Packet]] | None = blocks()
            self.it: Iterator[Packet] | None = None
        else:
            self.blocks = None
            self.it = iter(stream)
        self.buf: Sequence[Packet] = ()
        self.idx = 0
        self.n = 0

    def refill(self) -> Packet | None:
        """Fetch the next packet once the current block is exhausted."""
        blocks = self.blocks
        if blocks is None:
            return next(self.it, None)
        while True:
            block = next(blocks, None)
            if block is None:
                return None
            if block:
                self.buf = block
                self.idx = 1
                self.n = len(block)
                return block[0]


@dataclass(frozen=True, slots=True)
class LoadSample:
    """One point of the cell-load time series recorded by SAMPLE events."""

    time: float
    active_devices: int
    switches_last_minute: int


#: Length of the cell's sliding switch window, seconds: load-aware
#: budgets and the peak-switch metric count switches per minute.
LOAD_WINDOW_S = 60.0


class CellLoad:
    """Live cell-load bookkeeping maintained by the kernel in cell mode.

    Tracks the number of non-Idle devices (kept exact by inactivity-timer
    expiry events), the running peak, and the timestamps of
    signalling-relevant switches (promotions and granted fast dormancies)
    with a :data:`LOAD_WINDOW_S` sliding window for switches-per-minute
    queries.
    """

    __slots__ = (
        "active_devices",
        "peak_active_devices",
        "switch_times",
        "_recent",
        "_recent_start",
    )

    def __init__(self) -> None:
        self.active_devices = 0
        self.peak_active_devices = 0
        self.switch_times: list[float] = []
        # The recent-switch window is a list pruned by advancing a start
        # index (cheaper than a deque for the append-mostly access pattern).
        self._recent: list[float] = []
        self._recent_start = 0

    def note_switch(self, time: float) -> None:
        """Record one signalling-relevant switch at ``time``."""
        self.switch_times.append(time)
        self._recent.append(time)

    def switches_within_window(self, time: float) -> int:
        """Switches recorded in the last :data:`LOAD_WINDOW_S` before ``time``.

        The window is half-open — a switch exactly :data:`LOAD_WINDOW_S`
        seconds ago has aged out — consistent with the half-open windows
        of :func:`repro.metrics.switches.peak_per_window`.  It prunes by
        time alone, so at non-decreasing query times (the kernel's) the
        count does not depend on which earlier times were queried.
        """
        recent = self._recent
        start = self._recent_start
        while start < len(recent) and time - recent[start] >= LOAD_WINDOW_S:
            start += 1
        self._recent_start = start
        # Compact occasionally so the pruned prefix cannot grow unbounded.
        if start > 4096:
            del recent[:start]
            self._recent_start = 0
            start = 0
        return len(recent) - start

    def activate(self) -> None:
        """One device left Idle."""
        self.active_devices += 1
        if self.active_devices > self.peak_active_devices:
            self.peak_active_devices = self.active_devices

    def deactivate(self) -> None:
        """One device reached Idle."""
        self.active_devices -= 1


class UeContext:
    """Per-UE kernel state: RRC machine + policy + buffer + energy accumulator.

    In *collect* mode (single-UE runs) the context records every effective
    packet and session delay so the façade can build a full
    :class:`~repro.sim.results.SimulationResult`.  In *streaming* mode
    (cells) it accumulates the energy breakdown incrementally, keeps no
    per-packet state, caps the stored session-delay records at a fixed
    sample (full totals live in :attr:`delayed_sessions` /
    :attr:`total_delay_s`) and prunes its per-flow activity table, so
    memory stays O(1) per UE regardless of trace length.
    """

    __slots__ = (
        "ue_id",
        "machine",
        "policy",
        "last_flow_activity",
        "buffering",
        "release_time",
        "buffered_packets",
        "buffered_arrivals",
        "buffered_flows",
        "dormancy_seq",
        "release_seq",
        "timer_target",
        "timer_pending",
        "collect",
        "aborted",
        "departed",
        "observes_packets",
        "delays_activation",
        "effective_packets",
        "session_delays",
        "delayed_sessions",
        "total_delay_s",
        "flow_prune_at",
        "last_effective",
        "packet_count",
        "was_active",
        "dormancy_requests",
        "dormancy_granted",
        "dormancy_denied",
        "_prev_transfer_ts",
        "_data_j",
        "_data_time_s",
    )

    def __init__(
        self,
        ue_id: int,
        profile: CarrierProfile,
        policy: RadioPolicy,
        collect: bool,
        start_time: float = 0.0,
    ) -> None:
        self.ue_id = ue_id
        # Streaming contexts fold state-time/switch totals inside the
        # machine at transition time (bit-equal to draining the recorded
        # history, with no history objects); collect mode records the full
        # interval/switch timeline for single-UE results.  A non-zero
        # ``start_time`` attaches the UE mid-run (a metro visit that began
        # with a handover into this cell): its timeline — and therefore its
        # Idle time — starts at that instant, not at t=0.
        self.machine = RrcStateMachine(profile, start_time=start_time,
                                       fold_history=not collect)
        self.policy = policy
        self.last_flow_activity: dict[int, float] = {}
        self.buffering = False
        self.release_time = 0.0
        self.buffered_packets: list[Packet] = []
        self.buffered_arrivals: list[SessionDelay] = []
        self.buffered_flows: set[int] = set()
        self.dormancy_seq = 0
        self.release_seq = 0
        # Inactivity-timer-expiry scheduling (cell mode): the current true
        # deadline (last activity + full demotion horizon) and whether one
        # TIMER event for this UE is in the heap.  Activity only *moves*
        # the deadline; the queued event defers itself forward when it
        # pops early, so dense traffic keeps one queued timer per UE
        # instead of one per packet.
        self.timer_target = 0.0
        self.timer_pending = False
        self.collect = collect
        self.aborted = False
        # Set by a HANDOVER event: the machine is closed at the departure
        # instant and the context takes no further events (stale queued
        # timers are ignored, finalize leaves it untouched).
        self.departed = False
        # Which optional policy hooks are actually overridden: calling a
        # known no-op base hook per packet is pure overhead, and a policy
        # that never delays activation lets streaming contexts skip the
        # Idle-state peek on every arrival.
        policy_type = type(policy)
        self.observes_packets = (
            policy_type.observe_packet is not RadioPolicy.observe_packet
        )
        self.delays_activation = (
            policy_type.activation_delay is not RadioPolicy.activation_delay
        )
        self.effective_packets: list[Packet] = []
        self.session_delays: list[SessionDelay] = []
        self.delayed_sessions = 0
        self.total_delay_s = 0.0
        self.flow_prune_at = _FLOW_TABLE_PRUNE_SIZE
        self.last_effective: float | None = None
        self.packet_count = 0
        self.was_active = False
        self.dormancy_requests = 0
        self.dormancy_granted = 0
        self.dormancy_denied = 0
        # Streaming-mode incremental data-energy accounting.
        self._prev_transfer_ts: float | None = None
        self._data_j = 0.0
        self._data_time_s = 0.0

    # -- streaming accounting ----------------------------------------------------------

    def account_transfer(self, model: DataEnergyModel, packet: Packet,
                         time: float) -> None:
        """Fold one emitted packet into the incremental data-energy totals.

        Mirrors :meth:`~repro.energy.accounting.DataEnergyModel.packet_transfers`
        packet by packet so the folded totals are float-identical to the
        batch computation over the same effective sequence.  (The kernel
        inlines this arithmetic over the model's precomputed constants;
        this method is the readable reference and the one-off entry
        point.)
        """
        uplink = packet.direction.is_uplink
        if self._prev_transfer_ts is None:
            duration = model.serialization_time(packet.size, uplink)
        else:
            gap = time - self._prev_transfer_ts
            if gap <= model.burst_gap:
                duration = gap
            else:
                duration = model.serialization_time(packet.size, uplink)
        self._data_j += duration * (
            model.send_power_w if uplink else model.recv_power_w
        )
        self._data_time_s += duration
        self._prev_transfer_ts = time

    def mark_aborted(self) -> None:
        """Poison this context after a failed kernel run.

        Reading folded totals from — or further advancing — a context
        whose run died mid-stream would expose a partial timeline; after
        this call the accessors raise and the machine refuses further
        events (it is closed at its current instant, so ``finish``/
        ``advance_to`` on it raise too).
        """
        self.aborted = True
        machine = self.machine
        if not machine.finished:
            machine.seal()

    def _check_not_aborted(self) -> None:
        if self.aborted:
            raise RuntimeError(
                f"UE {self.ue_id}: kernel run aborted mid-stream; partial "
                "timelines are not observable (re-run with a valid stream)"
            )

    def folded_totals(self) -> tuple[float, float, float, float, float, float]:
        """The incremental energy totals folded so far (streaming mode).

        Returns ``(data_j, data_time_s, active_time_s, high_idle_time_s,
        idle_time_s, switch_j)`` — the exact running sums the breakdown
        assembles.  Shard execution exports these before the timeline is
        closed, so the cross-shard merge can fold the final open interval
        with the same float operations the single-process finish would
        have used.
        """
        self._check_not_aborted()
        (active_s, high_idle_s, idle_s, switch_j,
         _, _, _) = self.machine.folded_state_totals()
        return (
            self._data_j,
            self._data_time_s,
            active_s,
            high_idle_s,
            idle_s,
            switch_j,
        )

    @property
    def promotions(self) -> int:
        """Promotions so far (works in either history mode)."""
        self._check_not_aborted()
        return self.machine.promotion_count

    @property
    def timer_demotions(self) -> int:
        """Timer demotions so far (works in either history mode)."""
        self._check_not_aborted()
        return self.machine.timer_demotion_count

    @property
    def fast_demotions(self) -> int:
        """Fast-dormancy demotions so far (works in either history mode)."""
        self._check_not_aborted()
        return self.machine.fast_demotion_count

    def build_breakdown(self, profile: CarrierProfile) -> EnergyBreakdown:
        """Assemble the folded totals into an :class:`EnergyBreakdown`."""
        self._check_not_aborted()
        (active_s, high_idle_s, idle_s, switch_j,
         promotions, timer_demotions,
         fast_demotions) = self.machine.folded_state_totals()
        return assemble_breakdown(
            profile,
            data_j=self._data_j,
            data_time_s=self._data_time_s,
            active_time_s=active_s,
            high_idle_time_s=high_idle_s,
            idle_time_s=idle_s,
            switch_j=switch_j,
            promotions=promotions,
            demotions=timer_demotions + fast_demotions,
        )


def resolve_end_time(
    last_emitted: float | None, max_now: float, trailing_time: float
) -> float:
    """The timeline close time implied by a kernel run's final observations.

    This is the one place the end-of-run rule lives: the trailing tail is
    charged after the last *emitted* packet (a run that never emitted has
    no tail and closes at the last processed event), never ending before
    any machine's current time.  Shard merging reuses it with the
    *global* maxima so a sharded cell closes every device's timeline at
    exactly the instant a single-process run would.
    """
    if last_emitted is None:
        return max_now
    return max(last_emitted + trailing_time, max_now)


@dataclass(frozen=True, slots=True)
class KernelResult:
    """What one kernel execution produced, before façade-specific assembly.

    With ``finish=False`` (shard mode) the timelines are still *open*:
    ``end_time`` holds the last processed event time, ``last_emitted`` the
    newest emitted-packet timestamp (``None`` if nothing was emitted), and
    the caller owns the close — either via
    :meth:`SimulationEngine.finalize` or by folding the open tails into a
    cross-shard merge at a globally resolved end time.
    """

    contexts: Mapping[int, UeContext]
    end_time: float
    load: CellLoad | None = None
    samples: tuple[LoadSample, ...] = ()
    last_emitted: float | None = None
    finished: bool = True


class SimulationEngine:
    """Heap-based event kernel driving one-or-many UEs against one clock.

    Parameters
    ----------
    profile:
        Carrier profile shared by every UE (timers, powers, switch costs).
    session_idle_gap:
        Quiet time after which a flow's next packet counts as a new session
        (MakeActive eligibility); defaults to the carrier's ``t1 + t2``.
    trailing_time:
        Extra simulated time after the last emitted packet so the final
        tail is charged; defaults to ``t1 + t2 + 1`` seconds.
    """

    def __init__(
        self,
        profile: CarrierProfile,
        session_idle_gap: float | None = None,
        trailing_time: float | None = None,
    ) -> None:
        self._profile = profile
        self._accountant = EnergyAccountant(profile)
        self._session_idle_gap = (
            session_idle_gap
            if session_idle_gap is not None
            else profile.total_inactivity_timeout
        )
        self._trailing_time = (
            trailing_time
            if trailing_time is not None
            else profile.total_inactivity_timeout + 1.0
        )
        if self._session_idle_gap < 0:
            raise ValueError("session_idle_gap must be non-negative")
        if self._trailing_time < 0:
            raise ValueError("trailing_time must be non-negative")

    @property
    def profile(self) -> CarrierProfile:
        """The carrier profile every UE runs against."""
        return self._profile

    @property
    def accountant(self) -> EnergyAccountant:
        """The energy accountant shared by all of this engine's runs."""
        return self._accountant

    @property
    def trailing_time(self) -> float:
        """Extra simulated seconds charged after the last emitted packet."""
        return self._trailing_time

    # -- single-UE façade entry point --------------------------------------------------

    def run_single(self, trace: PacketTrace, policy: RadioPolicy) -> SimulationResult:
        """Replay ``trace`` under ``policy`` — the TraceSimulator semantics.

        ``policy.prepare``/``reset`` must already have been called (the
        façade owns policy lifecycle).  Produces results byte-identical to
        the pre-kernel single-UE loop.  An empty trace needs no special
        case: :func:`resolve_end_time` closes a run that never emits at its
        last processed event, t=0 here (DESIGN.md §1.5).
        """
        ue = UeContext(0, self._profile, policy, collect=True)
        outcome = self.run({0: trace}, {0: ue})
        machine = ue.machine
        effective_trace = PacketTrace(ue.effective_packets, name=trace.name)
        breakdown = self._accountant.account(
            effective_trace, machine.intervals, machine.switches
        )
        from .simulator import _gap_decisions  # façade-level derived metric

        return SimulationResult(
            policy_name=policy.name,
            profile_key=self._profile.key,
            trace_name=trace.name,
            breakdown=breakdown,
            intervals=tuple(machine.intervals),
            switches=tuple(machine.switches),
            effective_trace=effective_trace,
            gap_decisions=tuple(_gap_decisions(effective_trace, machine.switches)),
            session_delays=tuple(ue.session_delays),
        )

    # -- the kernel --------------------------------------------------------------------

    def run(
        self,
        streams: Mapping[int, Iterator[Packet] | Iterable[Packet]],
        contexts: Mapping[int, UeContext],
        decide: Callable[[int, float, CellLoad], bool] | None = None,
        load: CellLoad | None = None,
        sample_interval_s: float | None = None,
        finish: bool = True,
        handovers: Mapping[int, float] | None = None,
    ) -> KernelResult:
        """Drive every UE's packet stream through the shared event queue.

        Parameters
        ----------
        streams:
            Per-UE packet sources (iterators or iterables), each yielding
            packets in non-decreasing timestamp order.  Only the next
            pending packet of each stream is held in memory.
        contexts:
            Per-UE :class:`UeContext` keyed like ``streams``.
        decide:
            The base station's answer to one fast-dormancy request,
            ``decide(ue_id, time, load) -> bool`` (``False`` denies; the
            device stays on its inactivity timers until its next scheduled
            request).  ``None`` grants every request without a call.
            Cell mode only.
        load:
            The :class:`CellLoad` to maintain; its presence switches the
            kernel to cell mode (dormancy requests + load tracking via
            timer events).  Required when ``decide`` is given; the cell
            façade owns it and exports it with the shard.
        sample_interval_s:
            When set (cell mode), record a :class:`LoadSample` every this
            many seconds while packet/timer events remain.
        finish:
            When ``False``, return with every timeline still *open* once
            the event queue drains: the caller resolves the close time
            (possibly across several shard runs) and applies it via
            :meth:`finalize` — or folds the open tails itself.
        handovers:
            Optional per-UE departure times (metro mobility).  At its
            departure instant a UE's MakeActive buffer (if any) is force
            released, its pending dormancy/timer events are cancelled, its
            machine is closed with the exact :meth:`RrcStateMachine.finish`
            float operations, and — in cell mode — it leaves the live load
            count.  The UE's packet stream must end strictly before its
            departure time; a later packet aborts the run.  See
            ``docs/DESIGN.md`` §4 (handover contract).
        """
        if decide is not None and load is None:
            raise ValueError("cell mode (decide=...) requires a CellLoad")
        if sample_interval_s is not None and sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        if handovers:
            unknown = [ue_id for ue_id in handovers if ue_id not in contexts]
            if unknown:
                raise ValueError(
                    f"handover scheduled for unknown UE(s) {sorted(unknown)}"
                )

        profile = self._profile
        data_model = self._accountant.data_model
        session_idle_gap = self._session_idle_gap
        cell_mode = load is not None
        # Time for an untouched radio to demote all the way to Idle — when
        # an inactivity-timer-expiry event is scheduled after each activity.
        idle_after = transition_table(profile).idle_after
        # Flat per-packet energy constants (see repro.rrc.tables for the
        # byte-identity contract of precomputed model constants).
        burst_gap = data_model.burst_gap
        min_packet_time = data_model.min_packet_time
        uplink_rate = data_model.uplink_rate
        downlink_rate = data_model.downlink_rate
        send_power_w = data_model.send_power_w
        recv_power_w = data_model.recv_power_w
        uplink_direction = Direction.UPLINK

        heap: list[tuple[float, int, int, int, object]] = []
        heappush = heapq.heappush
        serial = 0
        sources: dict[int, _ArrivalSource] = {}
        real_events = 0  # non-SAMPLE events still queued
        samples: list[LoadSample] = []

        def push(time: float, kind: int, ue_id: int, payload: object) -> None:
            nonlocal serial, real_events
            serial += 1
            if kind != _SAMPLE:
                real_events += 1
            heappush(heap, (time, kind, ue_id, serial, payload))

        def pull_arrival(ue_id: int, after: float) -> None:
            """Queue the next packet of one UE's stream, validating order."""
            src = sources[ue_id]
            idx = src.idx
            if idx < src.n:
                packet = src.buf[idx]
                src.idx = idx + 1
            else:
                packet = src.refill()
                if packet is None:
                    return
            timestamp = packet.timestamp
            if timestamp < after:
                raise StreamOrderError(
                    f"packet stream for UE {ue_id} is not time-ordered: "
                    f"{timestamp} after {after}"
                )
            nonlocal serial, real_events
            serial += 1
            real_events += 1
            heappush(heap, (timestamp, _ARRIVAL, ue_id, serial, packet))

        def sync_load(ue: UeContext) -> None:
            """Reconcile the cell's active-device count with ``ue``'s state."""
            active = ue.machine.state is not RadioState.IDLE
            if active and not ue.was_active:
                load.activate()
            elif not active and ue.was_active:
                load.deactivate()
            ue.was_active = active

        def emit(ue: UeContext, packet: Packet, time: float) -> None:
            """Transfer one packet at effective time ``time``."""
            promoted = ue.machine.notify_activity(time)
            # Exact comparison is the boundary contract: time IS
            # packet.timestamp (same float) unless MakeActive held the
            # packet, in which case the release time replaces it.
            if packet.timestamp == time:
                effective = packet
            else:
                # Direct construction (not dataclasses.replace): this runs
                # once per buffered MakeActive packet — the PR 5 packet-block
                # contract.
                effective = Packet(
                    timestamp=time,
                    size=packet.size,
                    direction=packet.direction,
                    flow_id=packet.flow_id,
                    app=packet.app,
                )
            if ue.collect:
                ue.effective_packets.append(effective)
            else:
                # Inline of UeContext.account_transfer over the model's
                # precomputed constants: same comparisons, same float
                # operations, same accumulation order.
                uplink = effective.direction is uplink_direction
                prev = ue._prev_transfer_ts
                if prev is None:
                    rate = uplink_rate if uplink else downlink_rate
                    duration = effective.size / rate
                    if duration < min_packet_time:
                        duration = min_packet_time
                else:
                    gap = time - prev
                    if gap <= burst_gap:
                        duration = gap
                    else:
                        rate = uplink_rate if uplink else downlink_rate
                        duration = effective.size / rate
                        if duration < min_packet_time:
                            duration = min_packet_time
                ue._data_j += duration * (
                    send_power_w if uplink else recv_power_w
                )
                ue._data_time_s += duration
                ue._prev_transfer_ts = time
            ue.packet_count += 1
            ue.last_effective = time
            if ue.observes_packets:
                ue.policy.observe_packet(time, effective)
            if cell_mode:
                if promoted:
                    load.note_switch(time)
                # Inline of sync_load: after an emit the machine is Active.
                if not ue.was_active:
                    load.activate()
                    ue.was_active = True
                # Move the expiry deadline; queue an event only when none
                # is in flight (it defers itself forward on early pops).
                ue.timer_target = time + idle_after
                if not ue.timer_pending:
                    ue.timer_pending = True
                    nonlocal serial, real_events
                    serial += 1
                    real_events += 1
                    heappush(heap, (ue.timer_target, _TIMER, ue.ue_id,
                                    serial, 0))

        def ask_dormancy(ue: UeContext, time: float) -> None:
            """Ask the policy for a demotion wait after activity at ``time``."""
            wait = ue.policy.dormancy_wait(time)
            ue.dormancy_seq += 1
            if wait is not None:
                nonlocal serial, real_events
                serial += 1
                real_events += 1
                heappush(heap, (time + wait, _DORMANCY, ue.ue_id, serial,
                                ue.dormancy_seq))

        def release_buffer(ue: UeContext, time: float) -> None:
            """Promote once and emit every buffered packet at ``time``."""
            for buffered in ue.buffered_packets:
                emit(ue, buffered, time)
            for pending in ue.buffered_arrivals:
                ue.delayed_sessions += 1
                ue.total_delay_s += time - pending.arrival_time
                if (ue.collect
                        or len(ue.session_delays) < _SESSION_DELAY_SAMPLE_CAP):
                    ue.session_delays.append(
                        SessionDelay(pending.arrival_time, time, pending.flow_id)
                    )
            if ue.buffered_arrivals:
                ue.policy.on_release(
                    time, [d.arrival_time for d in ue.buffered_arrivals]
                )
            ask_dormancy(ue, time)
            ue.buffering = False
            ue.buffered_packets = []
            ue.buffered_arrivals = []
            ue.buffered_flows = set()

        def on_arrival(ue: UeContext, packet: Packet) -> None:
            now = packet.timestamp
            # A packet arriving strictly before a scheduled demotion cancels
            # it; one scheduled at exactly ``now`` already fired (heap order).
            ue.dormancy_seq += 1

            previous_activity = ue.last_flow_activity.get(packet.flow_id)
            is_session_start = (
                previous_activity is None
                or now - previous_activity > session_idle_gap
            )
            ue.last_flow_activity[packet.flow_id] = now
            if len(ue.last_flow_activity) >= ue.flow_prune_at:
                # Entries older than the idle gap classify exactly like
                # absent ones (strict '>' above), so dropping them changes
                # nothing; doubling the threshold keeps this amortised O(1).
                stale = now - session_idle_gap
                for flow_id in [f for f, t in ue.last_flow_activity.items()
                                if t < stale]:
                    del ue.last_flow_activity[flow_id]
                ue.flow_prune_at = max(
                    _FLOW_TABLE_PRUNE_SIZE, 2 * len(ue.last_flow_activity)
                )

            if ue.buffering:
                if is_session_start or packet.flow_id in ue.buffered_flows:
                    # Either a further new session joining the batch, or a
                    # later packet of a session that is already being held.
                    ue.buffered_packets.append(packet)
                    if is_session_start:
                        ue.buffered_arrivals.append(
                            SessionDelay(now, ue.release_time, packet.flow_id)
                        )
                    ue.buffered_flows.add(packet.flow_id)
                    return
                # A packet of an ongoing, *unbuffered* session must not be
                # delayed: release right away and let it go through normally.
                ue.release_seq += 1  # invalidate the scheduled release event
                release_buffer(ue, now)
            elif not (ue.delays_activation or ue.collect):
                # The policy never delays a promotion (base-class
                # activation_delay) and nothing records zero-delay session
                # starts: the Idle-state peek below would be a no-op.
                pass
            elif ue.machine.state_at(now) is RadioState.IDLE and is_session_start:
                delay = (
                    ue.policy.activation_delay(now)
                    if ue.delays_activation else 0.0
                )
                if delay < 0:
                    raise ValueError(
                        f"policy {ue.policy.name!r} returned a negative "
                        "activation delay"
                    )
                if delay > 0:
                    ue.buffering = True
                    ue.release_time = now + delay
                    ue.buffered_packets = [packet]
                    ue.buffered_arrivals = [
                        SessionDelay(now, ue.release_time, packet.flow_id)
                    ]
                    ue.buffered_flows = {packet.flow_id}
                    ue.dormancy_seq += 1  # buffering clears any pending demotion
                    ue.release_seq += 1
                    push(ue.release_time, _RELEASE, ue.ue_id, ue.release_seq)
                    return
                if ue.collect:
                    ue.session_delays.append(SessionDelay(now, now, packet.flow_id))

            emit(ue, packet, now)
            ask_dormancy(ue, now)

        def on_dormancy(ue: UeContext, time: float, seq: int) -> None:
            if seq != ue.dormancy_seq or ue.buffering:
                return  # cancelled by a later packet or superseded
            if cell_mode:
                ue.dormancy_requests += 1
                if decide is None or decide(ue.ue_id, time, load):
                    ue.dormancy_granted += 1
                else:
                    ue.dormancy_denied += 1
                    return
            if ue.machine.request_fast_dormancy(time) and cell_mode:
                load.note_switch(time)
            if cell_mode:
                sync_load(ue)

        def on_handover(ue: UeContext, time: float) -> None:
            """Close ``ue``'s timeline at its departure instant.

            The order matters: a MakeActive buffer still held at departure
            is force-released *at* the handover time (its sessions are
            emitted, delayed and charged to this cell), then every pending
            dormancy — including the one the release just scheduled — is
            cancelled, and the machine is closed with the same
            :meth:`RrcStateMachine.finish` call a run end would use, so the
            pending timer demotions are applied with the exact float
            arithmetic of the shard-merge close-out replay.
            """
            if ue.buffering:
                ue.release_seq += 1  # invalidate the scheduled release event
                release_buffer(ue, time)
            ue.dormancy_seq += 1
            ue.timer_pending = False
            ue.departed = True
            ue.machine.finish(time)
            if cell_mode:
                # The UE leaves this cell's live population whatever state
                # it closed in; stale queued TIMER events are skipped by
                # the departed guard instead of re-syncing the load.
                if ue.was_active:
                    load.deactivate()
                    ue.was_active = False

        def on_timer(ue: UeContext, time: float) -> None:
            if ue.departed:
                return  # stale expiry queued before the UE left the cell
            target = ue.timer_target
            if time < target:
                # Activity moved the deadline since this event was queued:
                # defer to the current deadline (one queued event per UE).
                nonlocal serial, real_events
                serial += 1
                real_events += 1
                heappush(heap, (target, _TIMER, ue.ue_id, serial, 0))
                return
            ue.timer_pending = False
            ue.machine.advance_to(time)
            sync_load(ue)

        # Prime one arrival per UE, the scheduled departures, and
        # (optionally) the first load sample.
        for ue_id, source in streams.items():
            sources[ue_id] = _ArrivalSource(source)
            pull_arrival(ue_id, 0.0)
        if handovers:
            for ue_id, depart_at in handovers.items():
                push(depart_at, _HANDOVER, ue_id, None)
        if sample_interval_s is not None and heap:
            push(sample_interval_s, _SAMPLE, -1, None)

        heappop = heapq.heappop
        try:
            while heap:
                time, kind, ue_id, _, payload = heappop(heap)
                if kind == _ARRIVAL:
                    real_events -= 1
                    on_arrival(contexts[ue_id], payload)
                    # Inline fast path of pull_arrival: next packet of the
                    # current block by plain list indexing.
                    src = sources[ue_id]
                    idx = src.idx
                    if idx < src.n:
                        packet = src.buf[idx]
                        src.idx = idx + 1
                        timestamp = packet.timestamp
                        if timestamp < time:
                            raise StreamOrderError(
                                f"packet stream for UE {ue_id} is not "
                                f"time-ordered: {timestamp} after {time}"
                            )
                        serial += 1
                        real_events += 1
                        heappush(heap, (timestamp, _ARRIVAL, ue_id, serial,
                                        packet))
                    else:
                        pull_arrival(ue_id, time)
                elif kind == _TIMER:
                    real_events -= 1
                    on_timer(contexts[ue_id], time)
                elif kind == _DORMANCY:
                    real_events -= 1
                    on_dormancy(contexts[ue_id], time, payload)
                elif kind == _RELEASE:
                    real_events -= 1
                    ue = contexts[ue_id]
                    if payload == ue.release_seq:
                        release_buffer(ue, time)
                elif kind == _HANDOVER:
                    real_events -= 1
                    on_handover(contexts[ue_id], time)
                else:  # SAMPLE
                    samples.append(
                        LoadSample(
                            time=time,
                            active_devices=load.active_devices if load else 0,
                            switches_last_minute=(
                                load.switches_within_window(time) if load else 0
                            ),
                        )
                    )
                    if real_events > 0 and sample_interval_s is not None:
                        push(time + sample_interval_s, _SAMPLE, -1, None)
        except Exception:
            # Abort atomically: no KernelResult is produced and every
            # context is poisoned, so a mis-ordered (or otherwise failing)
            # stream can never leak a partial timeline into a result or a
            # shard merge.
            for ue in contexts.values():
                ue.mark_aborted()
            raise

        last_emitted = max(
            (ue.last_effective for ue in contexts.values()
             if ue.last_effective is not None),
            default=None,
        )
        max_now = max(
            (ue.machine.now for ue in contexts.values()), default=0.0
        )
        open_result = KernelResult(
            contexts=contexts,
            end_time=max_now,
            load=load,
            samples=tuple(samples),
            last_emitted=last_emitted,
            finished=False,
        )
        if not finish:
            return open_result
        return self.finalize(
            open_result,
            resolve_end_time(last_emitted, max_now, self._trailing_time),
        )

    def finalize(self, result: KernelResult, end_time: float) -> KernelResult:
        """Close every timeline of an unfinished run at ``end_time``.

        Charges the trailing tail after the last emitted packet (a run
        that never emitted anything has no tail) and folds the final open
        interval of each streaming context.  ``end_time`` must come from
        :func:`resolve_end_time` over this run's observations — or over
        the *global* observations of every shard of a sharded cell, which
        is what makes shard runs byte-identical to the single-process run.
        """
        if result.finished:
            raise ValueError("kernel result is already finished")
        cell_mode = result.load is not None
        for ue in result.contexts.values():
            if ue.departed:
                # Closed at its handover instant; its timeline ends there.
                continue
            ue.machine.finish(end_time)
            if cell_mode:
                active = ue.machine.state is not RadioState.IDLE
                if active and not ue.was_active:
                    result.load.activate()
                elif not active and ue.was_active:
                    result.load.deactivate()
                ue.was_active = active
        return replace(result, end_time=end_time, finished=True)  # repro-lint: allow[hot-path-slots] reason=once-per-run close-out, not a per-packet path
