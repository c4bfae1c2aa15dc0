"""Vectorized (numpy) cell kernel — byte-identical to the scalar kernel.

:meth:`~repro.basestation.cell.CellSimulator.run_shard` runs a shard on
this kernel whenever :func:`use_vector_kernel` says it can.  The kernel
replays a whole shard in *columnar batches*: every device's packet stream
is drained, in shard order, into flat numpy arrays (arrival times, sizes,
uplink flags) delimited by int64 offsets, and everything the scalar
kernel computes per heap event is computed as one array expression per
batch over the constants the scalar kernel reads (the profile's
:class:`~repro.rrc.tables.TransitionTable` and the engine's
:class:`~repro.energy.accounting.DataEnergyModel`) — except at the
sparse "interesting" instants, which are replayed device by device
through the *real* :class:`~repro.rrc.state_machine.RrcStateMachine`
so every float lands bit-for-bit where the scalar kernel would put it.

Shard layout
------------

A batch is the ragged layout of
:class:`~repro.basestation.table.DeviceTable`: the ``d``-th device owns
packets ``offsets[d]:offsets[d + 1]`` of the flat columns.  Devices are
drained whole until a batch holds :data:`_PACKET_BUDGET` packets, so a
shard of a million devices never holds all its packets as arrays at
once.  Within a batch a gap ``t[i] -> t[i + 1]`` belongs to a device
unless ``i + 1`` is an offset; those cross-device gaps are masked out of
the order check, and every device's first packet is treated as a stream
start by the folds and the boundary mask, so one pass over the flat
arrays computes exactly what one pass per device would.

Stream errors keep the per-device texts and their per-device order: the
first faulty device in shard order raises — its
:class:`~repro.sim.engine.StreamOrderError` when its stream is not
time-ordered, else the handover-contract ``RuntimeError`` when its last
packet is not strictly before its departure.

Why byte-identity holds
-----------------------

The scalar kernel's per-UE work for an *eligible* UE (see
:func:`vector_eligible`) decomposes into three independent pieces:

1. **The data-energy fold** depends only on the emitted packet sequence
   (timestamps, sizes, directions), never on RRC state.  It is a strict
   left fold of per-packet durations/energies, so elementwise float64
   expressions — IEEE-754 doubles, the same ops — folded per device with
   ``np.add.accumulate`` in packet order reproduce it bit-for-bit.  The
   devices of a batch are folded together as zero-padded rows of equal
   length (:func:`_segment_left_fold`); the padding adds ``+ 0.0``, which
   leaves every non-negative partial sum unchanged.

2. **The RRC machine** only does real work at *boundary* instants.
   Between boundaries every packet takes the
   :meth:`~repro.rrc.state_machine.RrcStateMachine.notify_activity` fast
   path (pure overwrites of ``now``/``last_activity``), which
   :meth:`~repro.rrc.state_machine.RrcStateMachine.fast_forward_activity`
   collapses into one step.  Boundary instants are computed as array
   comparisons over the same ``t + wait`` and ``t + const`` sums the
   scalar kernel pushes into its heap (no wait depends on RRC state: a
   MakeIdle wait depends only on the device's packet times):

   * a packet is a boundary when the previous gap fired a scheduled fast
     dormancy (``t[i] + wait[i] <= t[i+1]``, with ``wait[i]`` the wait
     decided after packet ``i``: the dormancy event pops before the
     arrival, equality included because DORMANCY sorts before ARRIVAL)
     or when it left the ``t1`` window (``t[i+1] >= t[i] + t1``);
   * an inactivity-timer expiry fires inside a gap when
     ``t[i] + idle_after <= t[i+1]`` (the self-deferring TIMER event pops
     at exactly the deadline; equality included, TIMER sorts before
     ARRIVAL) — and after the last packet, unconditionally at
     ``t_last + idle_after``;
   * a handover cuts the trailing events exactly as the heap does:
     the trailing dormancy still fires iff ``t_last + wait[last] <= detach``
     (DORMANCY sorts before HANDOVER), the trailing timer iff
     ``t_last + idle_after < detach`` (HANDOVER sorts before TIMER), then
     the machine is closed with the same
     :meth:`~repro.rrc.state_machine.RrcStateMachine.finish` call.

   At each such instant the real machine methods run with the same
   arguments in the same order as the scalar kernel's handlers, so the
   fold-at-transition accounting — including the threshold-instant timer
   folds and their one-ulp ``(t+t1)+t2`` vs ``t+(t1+t2)`` corner — is
   reproduced exactly rather than re-derived.

3. **Cell-load bookkeeping** is order-sensitive but replayable: every
   load mutation the scalar kernel performs is keyed by its popped event
   ``(time, kind, ue_id)``.  Each UE's mutations are derived analytically
   at the instants above, and a stable sort on ``(time, kind, ue_id)``
   interleaves all UEs' streams in exact heap order (the heap breaks ties
   the same way, and equal full keys only occur within one UE's
   consecutive ops).  A fresh :class:`~repro.sim.engine.CellLoad` is
   driven through the merged ops, and the periodic
   :class:`~repro.sim.engine.LoadSample` chain is re-run on the same
   grid: sample *k+1* exists iff some real event pops after sample *k*,
   so the chain horizon is the latest real pop.  Every scheduled dormancy
   pops, stale or not, so for a UE that is the later of its latest
   dormancy pop ``max_k(t_k + wait[k])`` (``t_last + wait`` for a
   constant wait) and ``t_last + idle_after`` — or, for a departed UE,
   of that dormancy pop, its handover instant and the final pop of its
   self-deferring timer chain.

Kernel selection
----------------

The kernel is chosen per shard, all or nothing (:func:`use_vector_kernel`):
numpy must import, the base-station policy must grant every dormancy
request unconditionally (request arbitration observes the live
interleaved load, which a per-UE replay cannot see), and every device
policy must be :func:`vector_eligible`.  That is a plain
:class:`~repro.core.makeidle.MakeIdlePolicy`, whose decisions depend only
on its own packet times, so each batch computes a device's whole wait
sequence up front (:meth:`~repro.core.makeidle.MakeIdlePolicy.dormancy_waits`)
before its boundary mask; or a policy with the base-class
``observe_packet`` and ``activation_delay`` hooks (no per-packet hooks,
no MakeActive buffering) and a ``dormancy_wait`` that is a known
constant: the base class (never requests dormancy), a
:class:`~repro.core.baselines.FixedTimerPolicy`, or a
:class:`~repro.core.baselines.PercentileIatPolicy` (whose constant is
trained in ``prepare``).  Either way each packet carries one wait in the
batch's wait column.  Any other shard runs on the scalar kernel.  The
choice is surfaced as ``CellShard.vector_devices`` /
``CellResult.vector_devices``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via numpy_available()
    _np = None

from ..core.baselines import FixedTimerPolicy, PercentileIatPolicy
from ..core.makeidle import MakeIdlePolicy
from ..core.policy import RadioPolicy
from ..energy.accounting import DataEnergyModel
from ..rrc.state_machine import RrcStateMachine
from ..rrc.states import RadioState
from ..rrc.tables import TransitionTable, transition_table
from ..traces.packet import Direction
from .engine import CellLoad, LoadSample, StreamOrderError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..basestation.cell import CellShard, CellSimulator, DeviceSpec

__all__ = [
    "numpy_available",
    "run_shard_vector",
    "station_always_grants",
    "use_vector_kernel",
    "vector_eligible",
]

#: Event-kind tie-break priorities, mirroring :class:`~repro.sim.engine.EventKind`
#: (plain ints: these key the replayed load-op ordering).
_RELEASE = 0
_DORMANCY = 1
_HANDOVER = 2
_TIMER = 3
_ARRIVAL = 4

#: One load mutation: ``(event_time, event_kind, ue_id, op)`` with ``op``
#: one of ``"act"`` / ``"deact"`` / ``"switch"``, keyed by the event the
#: scalar kernel would pop to perform it.
_LoadOp = tuple[float, int, int, str]

#: Heap order over merged load ops: ``(time, kind, ue_id)``, stable for
#: equal keys so each UE's generation order survives the global sort.
_OP_KEY = itemgetter(0, 1, 2)

#: A columnar batch closes once it holds this many packets.  Devices are
#: drained whole and in shard order, so a batch holds at most this many
#: packets plus one device's stream, and a shard of any device count
#: never holds more than that as arrays at once.
_PACKET_BUDGET = 65_536

_INF = float("inf")


def numpy_available() -> bool:
    """Whether the numpy the vector kernel needs is importable."""
    return _np is not None


def station_always_grants(policy: object) -> bool:
    """Whether a base-station dormancy policy unconditionally grants.

    Derived from the policy's type: its ``decide`` must be the accept-all
    implementation, so a subclass that overrides ``decide`` is consulted
    on every request.  Only then are per-UE outcomes independent of the
    live cell load — the precondition for the scalar kernel's
    per-request fast path (:class:`~repro.basestation.cell._NetworkStation`)
    and for running UEs out of event order here.
    """
    from ..basestation.policies import AcceptAllDormancy

    return type(policy).decide is AcceptAllDormancy.decide


def vector_eligible(policy: RadioPolicy) -> bool:
    """Whether the vector kernel can replay a device running ``policy``.

    ``True`` for a plain :class:`MakeIdlePolicy` (by exact type: its
    whole wait sequence is computed from its packet times up front, see
    :meth:`MakeIdlePolicy.dormancy_waits`), and for a policy with no
    per-packet hooks (base-class ``observe_packet`` and
    ``activation_delay`` — so it never buffers sessions either) whose
    ``dormancy_wait`` is a known time-independent constant: the base
    class (never requests fast dormancy), a :class:`FixedTimerPolicy` or
    a :class:`PercentileIatPolicy`.  A MakeIdle subclass, which may
    override any hook, is not eligible.  Judged from the policy's type
    alone, so the answer is the same before and after ``prepare()``.
    """
    ptype = type(policy)
    if ptype is MakeIdlePolicy:
        return True
    if ptype.observe_packet is not RadioPolicy.observe_packet:
        return False
    if ptype.activation_delay is not RadioPolicy.activation_delay:
        return False
    wait_fn = ptype.dormancy_wait
    return (
        wait_fn is RadioPolicy.dormancy_wait
        or (wait_fn is FixedTimerPolicy.dormancy_wait
            and isinstance(policy, FixedTimerPolicy))
        or (wait_fn is PercentileIatPolicy.dormancy_wait
            and isinstance(policy, PercentileIatPolicy))
    )


def use_vector_kernel(
    dormancy_policy: object, policies: Iterable[RadioPolicy]
) -> bool:
    """Whether a shard runs on the vector kernel rather than the scalar one.

    One kernel runs the whole shard: the vector kernel when numpy
    imports, the base station always grants
    (:func:`station_always_grants`) and every device policy is
    :func:`vector_eligible`; otherwise the scalar kernel.  Judged from
    policy types, so it is asked before any ``prepare()``.
    :meth:`~repro.basestation.cell.CellSimulator.run_shard` looks this
    function up on the module at call time, so replacing it (e.g. with
    ``lambda *args: False``) forces the scalar kernel.
    """
    return (
        numpy_available()
        and station_always_grants(dormancy_policy)
        and all(vector_eligible(policy) for policy in policies)
    )


def _constant_wait(policy: RadioPolicy) -> float | None:
    """A prepared constant-wait policy's wait (``None``: never requests).

    Read after ``prepare()``: trace-trained timeouts are fixed there.
    """
    if type(policy).dormancy_wait is RadioPolicy.dormancy_wait:
        return None
    return policy.timeout


def _wait_column(specs: Sequence["DeviceSpec"], times: list[float],
                 offsets: list[int], counts):
    """Every packet's dormancy wait: what its policy answers after it.

    ``inf`` means no request.  A constant-wait device's packets all carry
    its constant; a MakeIdle device's carry its decisions, computed from
    its packet times in one pass (:meth:`MakeIdlePolicy.dormancy_waits`),
    which also leaves the policy as the scalar kernel would.
    """
    constants: list[float] = []
    sequenced: list[int] = []
    for d, spec in enumerate(specs):
        policy = spec.policy
        if type(policy) is MakeIdlePolicy:
            sequenced.append(d)
            constants.append(_INF)  # overwritten below
        else:
            wait = _constant_wait(policy)
            constants.append(_INF if wait is None else wait)
    column = _np.repeat(_np.array(constants, dtype=_np.float64), counts)
    for d in sequenced:
        lo, hi = offsets[d], offsets[d + 1]
        column[lo:hi] = [
            _INF if wait is None else wait
            for wait in specs[d].policy.dormancy_waits(times[lo:hi])
        ]
    return column


def _drain(devices: Sequence["DeviceSpec"], first: int):
    """Drain whole devices from ``devices[first:]`` into one columnar batch.

    Walks each stream with the block protocol the scalar kernel's arrival
    source walks (a plain iterable is one ``list(trace)`` block), device
    by device in shard order, until the batch holds
    :data:`_PACKET_BUDGET` packets.  Returns ``(stop, (times, sizes,
    uplink, offsets))``: the batch is ``devices[first:stop]`` and its
    ``d``-th device owns packets ``offsets[d]:offsets[d + 1]`` of the
    float64/float64/bool columns (float64 round-trips every Python float,
    so nothing is rounded).
    """
    uplink = Direction.UPLINK  # hoisted: one load per packet, not three
    times: list[float] = []
    sizes: list[int] = []
    up: list[bool] = []
    offsets = [0]
    stop = first
    count = len(devices)
    while stop < count and len(times) < _PACKET_BUDGET:
        trace = devices[stop].trace
        blocks = getattr(trace, "packet_blocks", None)
        for block in blocks() if blocks is not None else (list(trace),):
            if block:
                times += [p.timestamp for p in block]
                sizes += [p.size for p in block]
                up += [p.direction is uplink for p in block]
        offsets.append(len(times))
        stop += 1
    return stop, (
        _np.array(times, dtype=_np.float64),
        _np.array(sizes, dtype=_np.float64),
        _np.array(up, dtype=bool),
        _np.array(offsets, dtype=_np.int64),
    )


def _check_streams(specs: Sequence["DeviceSpec"], t, offsets, heads) -> None:
    """Raise the scalar kernel's error for the batch's first faulty device.

    A device is faulty when its stream is not time-ordered (its first
    packet before 0.0, or a packet before its predecessor — gaps across
    a device boundary are masked out) or when its last packet is not
    strictly before its departure (the handover contract).  The first
    faulty device in shard order raises, with its order error when it
    has both faults: the per-device order of the checks.
    """
    n = t.shape[0]
    detach = _np.array(
        [_np.inf if spec.detach_at is None else spec.detach_at
         for spec in specs],
        dtype=_np.float64,
    )
    backwards = t[1:] < t[:-1]
    cuts = offsets[(offsets > 0) & (offsets < n)]
    backwards[cuts - 1] = False  # gaps into a device's first packet
    bad_gaps = _np.flatnonzero(backwards)
    nonempty = offsets[1:] > offsets[:-1]
    negative = _np.zeros(nonempty.shape[0], dtype=bool)
    negative[nonempty] = t[heads] < 0.0
    late = _np.zeros(nonempty.shape[0], dtype=bool)
    late[nonempty] = t[offsets[1:][nonempty] - 1] >= detach[nonempty]
    misordered = negative.copy()
    misordered[_np.searchsorted(offsets, bad_gaps + 1, side="right") - 1] = True
    faulty = _np.flatnonzero(misordered | late)
    if not faulty.shape[0]:
        return
    d = int(faulty[0])
    spec = specs[d]
    lo, hi = int(offsets[d]), int(offsets[d + 1])
    if negative[d]:
        raise StreamOrderError(
            f"packet stream for UE {spec.device_id} is not time-ordered: "
            f"{float(t[lo])} after 0.0"
        )
    if misordered[d]:
        i = int(bad_gaps[_np.searchsorted(bad_gaps, lo)])
        raise StreamOrderError(
            f"packet stream for UE {spec.device_id} is not time-ordered: "
            f"{float(t[i + 1])} after {float(t[i])}"
        )
    # The scalar kernel aborts on this too: the arrival pops after the
    # handover closed the machine.
    raise RuntimeError(
        f"UE {spec.device_id}: packet at {float(t[hi - 1])} is not "
        f"strictly before its departure at {spec.detach_at} "
        "(handover contract)"
    )


def _segment_left_fold(columns, starts, counts) -> list:
    """Each device's strict left fold of every column, one pass per bucket.

    ``out[c][d]`` is bit-equal to ``np.add.accumulate(col[s:s + n])[-1]``
    with ``s, n = starts[d], counts[d]`` (``0.0`` for ``n == 0``).  Devices
    are bucketed by length into ``(2**(k-1), 2**k]``; a bucket's runs are
    gathered into zero-padded rows as long as its longest run and folded
    with ``np.add.accumulate(axis=1)[:, -1]`` — sequential along each row,
    never pairwise.  The padding is exact: ``x + 0.0 == x`` for every
    partial sum that is not ``-0.0``, and a sum of non-negative terms
    (durations, energies) never is.  Padding at most doubles a bucket.
    """
    out = [_np.zeros(counts.shape[0]) for _ in columns]
    top = int(counts.max()) if counts.shape[0] else 0
    low, high = 0, 1
    while low < top:
        rows = _np.flatnonzero((counts > low) & (counts <= high))
        if rows.shape[0]:
            lengths = counts[rows]
            cols = _np.arange(int(lengths.max()))
            valid = cols < lengths[:, None]
            index = _np.where(valid, starts[rows][:, None] + cols, 0)
            for column, folded in zip(columns, out):
                padded = _np.where(valid, column[index], 0.0)
                folded[rows] = _np.add.accumulate(padded, axis=1)[:, -1]
        low, high = high, 2 * high
    return out


class _Batch:
    """One drained batch as the Python lists the per-device replay reads.

    ``specs`` are the batch's devices.  ``times`` are the batch's arrival
    times; device ``d`` owns ``packets[d]`` packets
    ``offsets[d]:offsets[d + 1]`` and the boundary packets
    ``boundaries[bounds[d]:bounds[d + 1]]`` (ascending, its first packet
    first).  ``dorm_fired[k]`` / ``timer_fired[k]`` say whether the gap
    ending at boundary packet ``boundaries[k]`` fired the scheduled fast
    dormancy / the inactivity timer, and ``gap_waits[k]`` is the wait
    decided at the packet that opens that gap (all meaningless at a first
    packet, which ends no gap).  ``last_waits[d]`` is the wait decided at
    device ``d``'s last packet and ``last_dormancy[d]`` its latest
    scheduled dormancy pop, ``max_k(t_k + w_k)`` (``inf`` / ``-inf``: no
    request).  ``data_j[d]`` / ``data_time_s[d]`` are device ``d``'s
    data-energy fold.
    """

    __slots__ = ("specs", "times", "offsets", "packets", "boundaries",
                 "bounds", "dorm_fired", "timer_fired", "gap_waits",
                 "last_waits", "last_dormancy", "data_j", "data_time_s")

    def __init__(self, specs: Sequence["DeviceSpec"], t, sizes, up, offsets,
                 table: TransitionTable, model: DataEnergyModel) -> None:
        counts = offsets[1:] - offsets[:-1]
        nonempty = counts > 0
        heads = offsets[:-1][nonempty]  # each device's first packet
        _check_streams(specs, t, offsets, heads)
        self.specs = specs
        # Python floats for MakeIdle decisions, machine calls and ops.
        self.times = t.tolist()
        self.offsets = offsets.tolist()
        n = t.shape[0]
        prev = t[:-1]
        nxt = t[1:]

        # The data-energy fold: elementwise float64 mirrors of the scalar
        # kernel's inlined ``account_transfer`` arithmetic (same
        # divisions, comparisons and products), each device's first
        # packet taking its serialisation time as every stream's first
        # packet does, folded per device in packet order.
        rates = _np.where(up, model.uplink_rate, model.downlink_rate)
        ser = sizes / rates
        ser = _np.where(ser < model.min_packet_time, model.min_packet_time,
                        ser)
        gaps = nxt - prev
        dur = _np.empty_like(ser)
        dur[1:] = _np.where(gaps <= model.burst_gap, gaps, ser[1:])
        dur[heads] = ser[heads]
        energy = dur * _np.where(up, model.send_power_w, model.recv_power_w)
        data_time_s, data_j = _segment_left_fold((dur, energy),
                                                 offsets[:-1], counts)

        # Per-gap fired events and the boundary mask (see module
        # docstring), over every gap at once: each packet carries the wait
        # decided after it (``inf``: no request, so no dormancy fires),
        # and every first packet is a boundary.
        wait = _wait_column(specs, self.times, self.offsets, counts)
        timer_fired = _np.zeros(n, dtype=bool)
        timer_fired[1:] = (prev + table.idle_after) <= nxt
        dorm_fired = _np.zeros(n, dtype=bool)
        dorm_fired[1:] = (prev + wait[:-1]) <= nxt
        boundary = _np.empty(n, dtype=bool)
        boundary[1:] = dorm_fired[1:] | (nxt >= (prev + table.t1))
        boundary[heads] = True
        boundaries = _np.flatnonzero(boundary)
        # Every scheduled dormancy pops, stale or not: the latest pop is
        # the largest t_k + w_k, which is t_last + w only for constant w.
        last_waits = _np.full(counts.shape[0], _np.inf)
        last_waits[nonempty] = wait[offsets[1:][nonempty] - 1]
        last_dormancy = _np.full(counts.shape[0], -_np.inf)
        last_dormancy[nonempty] = _np.maximum.reduceat(
            _np.where(wait < _np.inf, t + wait, -_np.inf), heads)

        self.packets = counts.tolist()
        self.boundaries = boundaries.tolist()
        self.bounds = _np.searchsorted(boundaries, offsets).tolist()
        self.dorm_fired = dorm_fired[boundaries].tolist()
        self.timer_fired = timer_fired[boundaries].tolist()
        self.gap_waits = wait[boundaries - 1].tolist()
        self.last_waits = last_waits.tolist()
        self.last_dormancy = last_dormancy.tolist()
        self.data_j = data_j.tolist()
        self.data_time_s = data_time_s.tolist()


def _final_timer_pop(
    tl: Sequence[float], lo: int, hi: int, idle_after: float, detach: float
) -> float | None:
    """Last pop of a departed UE's self-deferring inactivity-timer chain.

    ``tl[lo:hi]`` are the UE's arrival times.  Walks the TIMER event chain
    exactly as the heap would: the event pushed at the first arrival pops
    at its scheduled time; a pop before the current deadline (last arrival
    strictly before the pop, plus ``idle_after``) re-pushes at the
    deadline; a pop at the deadline fires and the next arrival pushes
    afresh.  The first pop at-or-after ``detach`` hits the departed guard
    and ends the chain — its time is returned because it is still a
    *real* event extending the load sample horizon.  Returns ``None`` when
    the chain ended (fired with no further arrivals) before the handover.
    """
    pop = tl[lo] + idle_after
    j = lo + 1
    while True:
        while j < hi and tl[j] < pop:
            j += 1
        if pop >= detach:  # HANDOVER (kind 2) pops before TIMER (kind 3)
            return pop
        target = tl[j - 1] + idle_after
        if pop < target:
            pop = target  # stale: defer to the moved deadline
            continue
        # Fires before the handover; the next arrival re-arms the chain.
        if j < hi:
            pop = tl[j] + idle_after
            j += 1
            continue
        return None


def _replay_ue(
    machine: RrcStateMachine,
    table: TransitionTable,
    batch: _Batch,
    d: int,
    ops: list[_LoadOp],
) -> tuple[int, float | None, float | None]:
    """Replay device ``d`` of ``batch`` through its real state machine.

    Runs the machine methods at the device's boundary instants with the
    scalar kernel's arguments in its order, and appends the device's
    load mutations to ``ops``.  Returns ``(dormancy requests, last
    arrival, horizon)``, where the horizon is the device's latest real
    event pop.  A device without packets has no last arrival, and no
    horizon unless it departs.
    """
    spec = batch.specs[d]
    ue_id = spec.device_id
    detach = spec.detach_at
    lo = batch.offsets[d]
    hi = batch.offsets[d + 1]
    if lo == hi:
        if detach is None:
            return 0, None, None
        machine.finish(detach)
        return 0, None, detach

    tl = batch.times
    t1 = table.t1
    idle_after = table.idle_after
    idle_state = RadioState.IDLE
    requests = 0
    was_active = False

    def do_dormancy(at: float, sched_t: float) -> None:
        nonlocal requests, was_active
        requests += 1  # always-grants station: granted == requests
        # A zero-effective-wait dormancy (``at == sched_t``) is pushed
        # while its arrival is processed, after the kind-1 slot of that
        # timestamp has passed, so it pops right behind that arrival: its
        # ops carry the arrival kind to sort into that slot.
        log_kind = _ARRIVAL if at == sched_t else _DORMANCY
        if machine.request_fast_dormancy(at):
            ops.append((at, log_kind, ue_id, "switch"))
        active = machine.state is not idle_state
        if active != was_active:
            ops.append((at, log_kind, ue_id, "act" if active else "deact"))
            was_active = active

    def do_timer(at: float) -> None:
        nonlocal was_active
        machine.advance_to(at)
        active = machine.state is not idle_state
        if active != was_active:
            ops.append((at, _TIMER, ue_id, "act" if active else "deact"))
            was_active = active

    # Bound methods and list handles hoisted out of the boundary loop:
    # the loop body runs once per boundary packet and these lookups are
    # its only non-arithmetic overhead.
    fast_forward = machine.fast_forward_activity
    notify = machine.notify_activity
    append_op = ops.append
    boundaries = batch.boundaries
    dorm_fired = batch.dorm_fired
    timer_fired = batch.timer_fired
    gap_waits = batch.gap_waits
    first = batch.bounds[d]
    stop = batch.bounds[d + 1]
    for k in range(first, stop):
        b = boundaries[k]
        if k != first:
            if b - 1 > boundaries[k - 1]:
                # Packets strictly inside the t1 window of their
                # predecessor: the fast path's pure overwrites, collapsed.
                fast_forward(tl[b - 1])
            gt = tl[b - 1]  # the gap ending at b made packet b a boundary
            if dorm_fired[k]:
                at = gt + gap_waits[k]
                if timer_fired[k]:
                    tt = gt + idle_after
                    # Heap order of the two fired events: (time, kind),
                    # DORMANCY (1) before TIMER (3) on equal times.
                    if tt < at:
                        do_timer(tt)
                        do_dormancy(at, gt)
                    else:
                        do_dormancy(at, gt)
                        do_timer(tt)
                else:
                    do_dormancy(at, gt)
            elif timer_fired[k]:
                do_timer(gt + idle_after)
        tb = tl[b]
        if notify(tb):
            append_op((tb, _ARRIVAL, ue_id, "switch"))
        if not was_active:
            append_op((tb, _ARRIVAL, ue_id, "act"))
            was_active = True

    last = hi - 1
    if last > boundaries[stop - 1]:
        fast_forward(tl[last])
    t_last = tl[last]

    # Trailing events after the last packet: the scheduled dormancy and
    # the final timer-chain pop, cut by a handover exactly as the heap
    # tie-breaks them (see module docstring).
    trailing: list[tuple[float, int]] = []
    wait = batch.last_waits[d]
    if wait < _INF:
        at = t_last + wait
        if detach is None or at <= detach:
            trailing.append((at, _DORMANCY))
    tt = t_last + idle_after
    if detach is None or tt < detach:
        trailing.append((tt, _TIMER))
    if len(trailing) == 2:
        trailing.sort()
    for etime, ekind in trailing:
        if ekind == _DORMANCY:
            do_dormancy(etime, t_last)
        else:
            do_timer(etime)

    if detach is not None:
        machine.finish(detach)
        if was_active:
            ops.append((detach, _HANDOVER, ue_id, "deact"))
            was_active = False
        horizon = detach
        tau = _final_timer_pop(tl, lo, hi, idle_after, detach)
        if tau is not None and tau > horizon:
            horizon = tau
    else:
        horizon = t_last + idle_after
    if batch.last_dormancy[d] > horizon:
        horizon = batch.last_dormancy[d]
    return requests, t_last, horizon


def _rebuild_load_and_samples(
    ops: list[_LoadOp],
    total_devices: int,
    window_s: float,
    sample_interval_s: float | None,
    horizon: float | None,
) -> tuple[CellLoad, tuple[LoadSample, ...]]:
    """Drive a fresh :class:`CellLoad` through the merged op stream.

    ``ops`` must already be in global heap order.  Sample instants
    interleave exactly as SAMPLE events do: every op at ``time <= s``
    precedes the sample at ``s`` (op kinds all sort before SAMPLE), the
    grid accumulates ``s + interval`` left-to-right, and sample ``k+1``
    exists iff a real event pops after sample ``k`` (``horizon`` is the
    latest real pop).  ``horizon`` is ``None`` exactly when the heap was
    never primed with a real event, and then no sample exists at all.
    """
    load = CellLoad(total_devices=total_devices, window_s=window_s)
    samples: list[LoadSample] = []
    i = 0
    count = len(ops)
    if sample_interval_s is not None and horizon is not None:
        s = sample_interval_s
        while True:
            while i < count and ops[i][0] <= s:
                op = ops[i]
                kind = op[3]
                if kind == "act":
                    load.activate()
                elif kind == "deact":
                    load.deactivate()
                else:
                    load.note_switch(op[0])
                i += 1
            samples.append(
                LoadSample(
                    time=s,
                    active_devices=load.active_devices,
                    switches_last_minute=load.switches_within_window(s),
                )
            )
            if horizon > s:
                s = s + sample_interval_s
            else:
                break
    while i < count:
        op = ops[i]
        kind = op[3]
        if kind == "act":
            load.activate()
        elif kind == "deact":
            load.deactivate()
        else:
            load.note_switch(op[0])
        i += 1
    return load, tuple(samples)


def run_shard_vector(
    simulator: "CellSimulator", devices: Sequence["DeviceSpec"]
) -> "CellShard":
    """Vector-kernel implementation of :meth:`CellSimulator.run_shard`.

    Produces a :class:`~repro.basestation.cell.CellShard` byte-identical
    to the scalar shard run over the same devices: the shard's devices
    are drained into columnar batches whose folds and boundary masks are
    computed once per batch, each device's boundaries are replayed
    through its real state machine, and the shared cell-load state
    (ordered switch timeline, running peak, sample series) is
    reconstructed by replaying all UEs' load mutations in exact heap
    order.  The device columns go to the same
    :meth:`~repro.basestation.table.ShardTable.from_columns` the scalar
    kernel builds its partial with.  The caller —
    :meth:`~repro.basestation.cell.CellSimulator.run_shard` — has already
    validated the shard, checked :func:`use_vector_kernel`, and prepared
    and reset every policy.
    """
    from ..basestation.cell import _LOAD_WINDOW_S, CellShard
    from ..basestation.table import ShardTable

    engine = simulator.engine
    profile = engine.profile
    table = transition_table(profile)
    model = engine.accountant.data_model
    ops: list[_LoadOp] = []
    # The shard's device columns, filled in device order.
    totals: list[tuple[float, float, float, float, int, int, int]] = []
    open_states: list[RadioState] = []
    open_since: list[float] = []
    last_activity: list[float] = []
    packets: list[int] = []
    requests: list[int] = []
    data_j: list[float] = []
    data_time_s: list[float] = []
    horizon: float | None = None
    last_emitted: float | None = None
    max_now = 0.0
    first = 0
    while first < len(devices):
        stop, columns = _drain(devices, first)
        batch = _Batch(devices[first:stop], *columns, table, model)
        del columns  # the batch keeps lists; free the arrays before replay
        first = stop
        packets += batch.packets
        data_j += batch.data_j
        data_time_s += batch.data_time_s

        for d, spec in enumerate(batch.specs):
            machine = RrcStateMachine(profile, start_time=spec.attach_at,
                                      fold_history=True)
            ue_requests, t_last, ue_horizon = _replay_ue(machine, table,
                                                         batch, d, ops)
            totals.append(machine.folded_state_totals())
            open_states.append(machine.state)
            open_since.append(machine.segment_start)
            last_activity.append(machine.last_activity)
            requests.append(ue_requests)
            if t_last is not None and (last_emitted is None
                                       or t_last > last_emitted):
                last_emitted = t_last
            if machine.now > max_now:
                max_now = machine.now
            if ue_horizon is not None and (horizon is None
                                           or ue_horizon > horizon):
                horizon = ue_horizon

    (active_s, high_idle_s, idle_s, switch_j, promotions, timer_demotions,
     fast_demotions) = zip(*totals)
    table = ShardTable.from_columns(
        {
            "device_id": [spec.device_id for spec in devices],
            "data_j": data_j,
            "data_time_s": data_time_s,
            "active_time_s": active_s,
            "high_idle_time_s": high_idle_s,
            "idle_time_s": idle_s,
            "switch_j": switch_j,
            "promotions": promotions,
            "timer_demotions": timer_demotions,
            "fast_demotions": fast_demotions,
            "open_since": open_since,
            "last_activity": last_activity,
            "packets": packets,
            # An always-granting station: every request is granted.
            "dormancy_requests": requests,
            "dormancy_granted": requests,
        },
        open_states=open_states,
        closed=[spec.detach_at is not None for spec in devices],
        policy_names=[spec.policy.name for spec in devices],
        cohorts=[spec.cohort for spec in devices],
        # Vector-eligible policies never delay a session.
        session_delays=[()] * len(devices),
    )

    # Global load replay: merge every UE's mutations into heap order.
    ops.sort(key=_OP_KEY)
    load, samples = _rebuild_load_and_samples(
        ops,
        total_devices=len(devices),
        window_s=_LOAD_WINDOW_S,
        sample_interval_s=simulator.sample_interval_s,
        horizon=horizon,
    )

    return CellShard(
        dormancy_policy_name=simulator.dormancy_policy.name,
        profile=profile,
        trailing_time=engine.trailing_time,
        devices=table,
        last_emitted=last_emitted,
        max_now=max_now,
        load=load,
        load_samples=samples,
        sample_interval_s=simulator.sample_interval_s,
        vector_devices=len(devices),
    )
