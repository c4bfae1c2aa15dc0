"""Vectorized (numpy) cell kernel — byte-identical to the scalar kernel.

:meth:`~repro.basestation.cell.CellSimulator.run_shard` runs a shard on
this kernel whenever :func:`use_vector_kernel` says it can.  The kernel
replays a whole shard in *columnar batches*: every device's packet stream
is drained, in shard order, into flat numpy arrays (arrival times, sizes,
uplink flags) delimited by int64 offsets, and everything the scalar
kernel computes per heap event is computed as one array expression per
batch over the constants the scalar kernel reads (the profile's
:class:`~repro.rrc.tables.TransitionTable` and the engine's
:class:`~repro.energy.accounting.DataEnergyModel`).  That includes the
RRC machine's work at the sparse "boundary" instants: every transition
there is a comparison between the same IEEE-754 sums the
:class:`~repro.rrc.state_machine.RrcStateMachine` and the event heap
evaluate, so every float lands bit-for-bit where the scalar kernel puts
it, and no per-device state machine runs.

Shard layout
------------

A batch is the ragged layout of
:class:`~repro.basestation.table.DeviceTable`: the ``d``-th device owns
packets ``offsets[d]:offsets[d + 1]`` of the flat columns.  Devices are
drained whole until a batch holds :data:`_PACKET_BUDGET` packets, so a
shard of a million devices never holds all its packets as arrays at
once; only a shard whose station reads the switch window drains as one
batch (see Kernel selection).  Within a batch a gap ``t[i] -> t[i + 1]``
belongs to a device unless ``i + 1`` is an offset; those cross-device
gaps are masked out of the order check, and every device's first packet
is treated as a stream start by the folds and the boundary mask, so one
pass over the flat arrays computes exactly what one pass per device
would.

Stream errors keep the per-device texts and their per-device order: the
first faulty device in shard order raises — its
:class:`~repro.sim.engine.StreamOrderError` when its stream is not
time-ordered, else the handover-contract ``RuntimeError`` when its last
packet is not strictly before its departure.  After those checks, the
first device whose first packet precedes its ``attach_at`` raises the
machine's ``ValueError`` ("events must be non-decreasing in time"), as
the scalar kernel's machine does.

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
   path (pure overwrites of ``now``/``last_activity``), so a device's
   timeline is pinned down by its boundary packets alone.  Boundary
   instants are computed as array comparisons over the same ``t + wait``
   and ``t + const`` sums the scalar kernel pushes into its heap (no wait
   depends on RRC state: a MakeIdle wait depends only on the device's
   packet times):

   * a packet is a boundary when the base station granted the request
     the previous gap fired (``t[i] + wait[i] <= t[i+1]``, with
     ``wait[i]`` the wait decided after packet ``i``: the dormancy event
     pops before the arrival, equality included because DORMANCY sorts
     before ARRIVAL) or when that gap left the ``t1`` window
     (``t[i+1] >= t[i] + t1``).  A denied request changes nothing: no
     state, no load op, not even the machine's clock;
   * an inactivity-timer expiry fires inside a gap when
     ``t[i] + idle_after <= t[i+1]`` (the self-deferring TIMER event pops
     at exactly the deadline; equality included, TIMER sorts before
     ARRIVAL) — and after the last packet, unconditionally at
     ``t_last + idle_after``;
   * a handover cuts the trailing events exactly as the heap does:
     the trailing dormancy still fires iff ``t_last + wait[last] <= detach``
     (DORMANCY sorts before HANDOVER), the trailing timer iff
     ``t_last + idle_after < detach`` (HANDOVER sorts before TIMER), then
     the open segment is folded up to ``detach``, as
     :meth:`~repro.rrc.state_machine.RrcStateMachine.finish` does.

   Each boundary is one *row*, and each device with packets has one
   trailing row for the events after its last packet (:class:`_Rows`).
   At a row the machine has been Active since the device's previous
   boundary packet, and its last activity ``gt`` is the packet before
   the gap.  Four instants decide the row: the machine's
   ``demote_at = gt + t1`` and ``idle_at = demote_at + t2``, and the
   heap's TIMER pop ``gt + idle_after`` and DORMANCY pop ``gt + wait``.
   They are kept apart because ``(gt + t1) + t2`` and ``gt + (t1 + t2)``
   differ by an ulp in a sizeable share of gaps.  Every transition, state
   duration, switch energy, counter and load op of the row is a
   comparison among them (``docs/DESIGN.md`` §2.3), and each device's
   totals are left folds over its rows: the machine's own
   fold-at-transition order, with ``+ 0.0`` where a state does not occur.

3. **Cell-load bookkeeping** is order-sensitive but replayable: every
   load mutation the scalar kernel performs is keyed by its popped event
   ``(time, kind, ue_id)``.  Each row writes its mutations into fixed op
   slots in the order the scalar handlers perform them, and one stable
   ``np.lexsort`` on ``(time, kind, ue_id)`` interleaves all UEs' ops in
   exact heap order (the heap breaks ties the same way, and equal full
   keys only occur within one UE's consecutive ops).  The
   :class:`~repro.sim.engine.CellLoad` is rebuilt from the sorted
   columns, and the periodic :class:`~repro.sim.engine.LoadSample` chain
   is re-run on the same grid: sample *k+1* exists iff some real event
   pops after sample *k*, so the chain horizon is the latest real pop.
   Every scheduled dormancy pops, stale, denied or neither, so for a UE
   that is the later of its latest dormancy pop ``max_k(t_k + wait[k])``
   (``t_last + wait`` for a constant wait) and ``t_last + idle_after`` —
   or, for a departed UE, of that dormancy pop, its handover instant and
   the final pop of its self-deferring timer chain.

Kernel selection
----------------

The kernel is chosen per shard, all or nothing (:func:`use_vector_kernel`):
numpy must import, the base station must decide each request from the
requesting device alone (:func:`station_decides_per_device`: accept-all,
reject-all or rate-limited by type) or from the cell's switch window
(:func:`station_reads_switch_window`: load-aware by type; a subclass
that overrides ``decide`` may read anything of the live load and stays
scalar), and every device policy must be :func:`vector_eligible`.  Each
fired request goes to the station's own ``decide`` once, in heap order,
before any RRC work (:func:`_ask_station`); an always-granting station
is not called at all.  A window-reading station is asked against a
:class:`~repro.sim.engine.CellLoad` fed with the batch's switches in the
same heap order.  That is exact because no request depends on a grant
(every wait depends only on its device's packet times) and a grant adds
switches only at or after its own pop.  An answer can depend on a switch
of any device, so such a shard drains as one batch.  A device policy is
eligible when it is a plain
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

from typing import TYPE_CHECKING, Iterable, Sequence

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via numpy_available()
    _np = None

from ..core.baselines import FixedTimerPolicy, PercentileIatPolicy
from ..core.makeidle import MakeIdlePolicy
from ..core.policy import RadioPolicy
from ..energy.accounting import DataEnergyModel
from ..rrc.tables import TransitionTable, transition_table
from ..traces.packet import Columns, packet_columns
from .engine import LOAD_WINDOW_S, CellLoad, LoadSample, StreamOrderError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..basestation.cell import CellShard, CellSimulator, DeviceSpec

__all__ = [
    "numpy_available",
    "run_shard_vector",
    "station_always_grants",
    "station_decides_per_device",
    "station_reads_switch_window",
    "use_vector_kernel",
    "vector_eligible",
]

#: Event-kind tie-break priorities, mirroring :class:`~repro.sim.engine.EventKind`
#: (plain ints: these key the replayed load-op ordering).
_DORMANCY = 1
_HANDOVER = 2
_TIMER = 3
_ARRIVAL = 4

#: Load-op codes of the op column: what one op does to the cell load.
_ACT = 1
_DEACT = -1
_SWITCH = 0

#: Item codes of the decision replay (:func:`_ask_station`).
_NOTE = 0     # a switch no answer can undo
_ASK = 1      # a fired request: ask the station
_NOTE_IF = 2  # a switch that happens iff its request is granted

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
    on every request.  :meth:`~repro.basestation.cell.CellSimulator.run_shard`
    then hands either kernel no ``decide`` at all, and every fired request
    is granted without a call.
    """
    from ..basestation.policies import AcceptAllDormancy

    return type(policy).decide is AcceptAllDormancy.decide


def station_decides_per_device(policy: object) -> bool:
    """Whether a base-station policy answers from the requesting device alone.

    Derived from the policy's type, as :func:`station_always_grants` is:
    its ``decide`` must be the accept-all, reject-all or rate-limited
    implementation.  None of them reads the cell load, and the
    rate-limited state is keyed by device id, so a device's answers
    depend only on its own earlier requests: the vector kernel asks them
    batch by batch and passes ``None`` for the load.  The load-aware
    station (:func:`station_reads_switch_window`) and a subclass that
    overrides ``decide`` are not.
    """
    from ..basestation.policies import (
        AcceptAllDormancy,
        RateLimitedDormancy,
        RejectAllDormancy,
    )

    return type(policy).decide in (AcceptAllDormancy.decide,
                                   RejectAllDormancy.decide,
                                   RateLimitedDormancy.decide)


def station_reads_switch_window(policy: object) -> bool:
    """Whether a base-station policy answers from the cell's switch window.

    Derived from the policy's type: its ``decide`` must be
    :meth:`~repro.basestation.policies.LoadAwareDormancy.decide`, which
    reads nothing of the live load but
    :meth:`~repro.sim.engine.CellLoad.switches_within_window`.  The vector
    kernel replays that window in heap order (:func:`_ask_station`), so
    the answers couple every UE of the shard; a subclass that overrides
    ``decide`` may read anything and is not admitted.
    """
    from ..basestation.policies import LoadAwareDormancy

    return type(policy).decide is LoadAwareDormancy.decide


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
    imports, the base station decides per device
    (:func:`station_decides_per_device`) or from the switch window
    (:func:`station_reads_switch_window`), and every device policy is
    :func:`vector_eligible`; otherwise the scalar kernel.  Judged from
    policy types, so it is asked before any ``prepare()``.
    :meth:`~repro.basestation.cell.CellSimulator.run_shard` looks this
    function up on the module at call time, so replacing it (e.g. with
    ``lambda *args: False``) forces the scalar kernel.
    """
    return (
        numpy_available()
        and (station_decides_per_device(dormancy_policy)
             or station_reads_switch_window(dormancy_policy))
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


def _column_blocks(source) -> Iterable[Columns]:
    """A device source's packets as ``(times, sizes, uplink)`` blocks.

    A generated stream's ``column_blocks()`` builds no packet.  A source
    without them is read through its ``packet_blocks()``, or as one
    ``list(source)`` block.
    """
    columns = getattr(source, "column_blocks", None)
    if columns is not None:
        return columns()
    blocks = getattr(source, "packet_blocks", None)
    return map(packet_columns,
               blocks() if blocks is not None else (list(source),))


def _drain(devices: Sequence["DeviceSpec"], first: int, budget: float):
    """Drain whole devices from ``devices[first:]`` into one columnar batch.

    Reads each stream's column blocks (:func:`_column_blocks`: every
    generated stream, a ``PacketTrace`` and a window over either offer
    them, so no ``Packet`` is built), device by device in shard order,
    until the batch holds ``budget`` packets (``inf``: the whole shard;
    see :func:`run_shard_vector`).  Packets are not checked on the way:
    :func:`_check_streams` checks the times, and generated sizes are
    checked once per train shape
    (:class:`~repro.traces.synthetic.PacketTrainSpec`).  Returns
    ``(stop, (times, sizes, uplink, offsets))``: the batch is
    ``devices[first:stop]`` and its ``d``-th device owns packets
    ``offsets[d]:offsets[d + 1]`` of the float64/float64/bool columns
    (float64 round-trips every Python float, so nothing is rounded).
    """
    times: list[float] = []
    sizes: list[int] = []
    up: list[bool] = []
    offsets = [0]
    stop = first
    count = len(devices)
    while stop < count and len(times) < budget:
        for block_times, block_sizes, block_up in _column_blocks(
                devices[stop].trace):
            times += block_times
            sizes += block_sizes
            up += block_up
        offsets.append(len(times))
        stop += 1
    return stop, (
        _np.array(times, dtype=_np.float64),
        _np.array(sizes, dtype=_np.float64),
        _np.array(up, dtype=bool),
        _np.array(offsets, dtype=_np.int64),
    )


def _check_streams(specs: Sequence["DeviceSpec"], t, offsets, heads,
                   detach) -> None:
    """Raise the scalar kernel's error for the batch's first faulty device.

    A device is faulty when its stream is not time-ordered (its first
    packet before 0.0, or a packet before its predecessor — gaps across
    a device boundary are masked out) or when its last packet is not
    strictly before its departure ``detach[d]`` (the handover contract;
    ``inf`` when it stays).  The first faulty device in shard order
    raises, with its order error when it has both faults: the per-device
    order of the checks.
    """
    n = t.shape[0]
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


def _segment_counts(values, bounds):
    """Each segment's integer total of ``values[bounds[d]:bounds[d + 1]]``.

    An integer prefix sum (``np.add.accumulate``) is exact, so each
    segment's count is the difference of two prefixes.
    """
    prefix = _np.zeros(values.shape[0] + 1, dtype=_np.int64)
    _np.add.accumulate(values, dtype=_np.int64, out=prefix[1:])
    return prefix[bounds[1:]] - prefix[bounds[:-1]]


class _Rows:
    """The RRC machine's work over a set of replay rows, as arrays.

    A row is the stretch of one device's timeline after the packet that
    opens a gap.  The machine has been Active since ``s`` (the device's
    previous boundary packet), its last activity is ``gt`` (the packet
    that opens the gap) and ``wait`` is the dormancy wait decided there.
    Four instants decide the row, each with the expression the machine or
    the event heap evaluates: ``a1 = gt + t1`` (the machine's
    ``demote_at``), ``a2 = a1 + t2`` (its ``idle_at``; ``a1`` itself
    without a FACH state), ``tt = gt + idle_after`` (the TIMER pop) and
    ``at = gt + wait`` (the DORMANCY pop, ``inf`` without a request).
    ``tt`` and ``a2`` are never interchangeable: ``(gt + t1) + t2`` and
    ``gt + (t1 + t2)`` differ by an ulp in a sizeable share of gaps, and
    a TIMER pop below ``idle_at`` finds the machine in FACH.
    """

    __slots__ = ("table", "gt", "s", "a1", "a2", "tt", "at", "fd", "idle",
                 "active_s", "high_idle_s", "idle_s", "timer_demotions",
                 "timer_deact", "dorm_deact", "timer_only_deact", "deacts",
                 "dorm_kind", "_end", "_closes", "_dch_closed",
                 "_idle_start")

    def __init__(self, table: TransitionTable, gt, s, wait) -> None:
        self.table = table
        self.gt = gt
        self.s = s
        self.a1 = gt + table.t1
        self.a2 = self.a1 + table.t2 if table.has_high_idle else self.a1
        self.tt = gt + table.idle_after
        self.at = gt + wait

    def run(self, dorm, timer, end, closes) -> None:
        """Resolve every row up to ``end``, its last processed event.

        ``dorm`` says whether the row's dormancy request pops by ``end``
        and is granted (a denied one does nothing), ``timer`` whether its
        TIMER event pops by ``end``; ``closes`` whether the segment open
        at ``end`` is folded there (an arrival or a handover ends it,
        while a device that stays leaves it open for the shard merge).
        Sets each state's duration (``0.0`` where the state does not
        occur), the request's outcome, the timer-demotion count and the
        load-op slot masks.
        """
        a1, a2, tt, at = self.a1, self.a2, self.tt, self.at
        # A granted request demotes unless the timers reached Idle first,
        # and leaves DCH itself when it comes before demote_at.
        fd = dorm & (at < a2)
        fd_dch = fd & (at < a1)
        past_a1 = end >= a1
        past_a2 = end >= a2
        idle = fd | past_a2
        if self.table.has_high_idle:
            fach = ~fd_dch & past_a1  # FACH entered at a1
        else:
            fach = _np.zeros_like(fd)
        idle_start = _np.where(fd, at, a2)
        self.fd = fd
        self.idle = idle
        self.active_s = _np.where(fd_dch, at, _np.minimum(a1, end)) - self.s
        self.high_idle_s = _np.where(
            fach & (idle | closes),
            _np.where(fd, at, _np.minimum(a2, end)) - a1, 0.0)
        self.idle_s = _np.where(idle & closes, end - idle_start, 0.0)
        self.timer_demotions = ((~fd_dch & past_a1).astype(_np.int64)
                                + (fach & ~fd & past_a2))
        # The load-op slots, in the order the scalar handlers perform
        # them.  A TIMER pop below idle_at finds FACH and logs nothing; a
        # dormancy deactivates unless the timer already did; a zero
        # effective wait pops right behind the arrival that scheduled it,
        # so its ops carry the arrival kind.
        timer_idle = tt >= a2
        self.timer_deact = timer & dorm & (tt < at) & timer_idle
        self.dorm_deact = dorm & ~self.timer_deact
        self.timer_only_deact = timer & ~dorm & timer_idle
        self.deacts = dorm | self.timer_only_deact
        self.dorm_kind = _np.where(at == self.gt, _ARRIVAL, _DORMANCY)
        self._end = end
        self._closes = closes
        self._dch_closed = fd_dch | past_a1
        self._idle_start = idle_start

    def open_segment(self):
        """The state each row is in at ``end`` and since when.

        Returns ``(code, since)``, ``code`` 0/1/2 for Active/High-idle/
        Idle: the shard table's open-state codes.  A segment folded at
        ``end`` restarts there, as ``finish`` leaves it.
        """
        code = _np.where(self.idle, 2, _np.where(self._dch_closed, 1, 0))
        since = _np.where(
            self._closes, self._end,
            _np.where(self.idle, self._idle_start,
                      _np.where(self._dch_closed, self.a1, self.s)))
        return code.astype(_np.int8), since


def _op_columns(ue, slots):
    """A block of rows' load ops as ``(time, kind, ue_id, op)`` columns.

    ``slots`` lists every row's op slots in the order the scalar handlers
    perform them, as ``(valid, time, kind, op)``.  Rows stay in order and
    a row's slots stay together, so each UE's ops keep their generation
    order, which is what the stable sort preserves among equal keys.
    """
    rows, width = ue.shape[0], len(slots)
    valid = _np.empty((rows, width), dtype=bool)
    when = _np.empty((rows, width))
    kind = _np.empty((rows, width), dtype=_np.int8)
    op = _np.empty((rows, width), dtype=_np.int8)
    for j, (slot_valid, slot_when, slot_kind, slot_op) in enumerate(slots):
        valid[:, j] = slot_valid
        when[:, j] = slot_when
        kind[:, j] = slot_kind
        op[:, j] = slot_op
    keep = valid.ravel()
    return (when.ravel()[keep], kind.ravel()[keep],
            _np.repeat(ue, width)[keep], op.ravel()[keep])


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


def _ask_station(decide, load: CellLoad | None, table: TransitionTable,
                 owner, t, request_at, fired, heads, lasts, tail_fired):
    """Ask the station about every fired request, in heap order.

    ``fired[j]`` marks the request decided after packet ``j - 1`` that
    pops before packet ``j``; ``tail_fired`` the trailing request of each
    device with packets (``lasts``: their last packets), and ``owner``
    is each packet's device id.  Each request is keyed
    ``(time, kind, ue_id, generation)``, the key the load ops sort by:
    the generation is ``3 * k + 1`` for the request decided after packet
    ``k``, and a zero effective wait carries the arrival kind, since it
    pops right behind the arrival that scheduled it.  One stable
    ``np.lexsort`` puts the requests in the scalar heap's pop order and
    ``decide(ue_id, time, load)`` answers each in turn.

    ``load`` is ``None`` for a per-device station
    (:func:`station_decides_per_device`), which never reads it.  For a
    station that reads the switch window
    (:func:`station_reads_switch_window`) it is a fresh
    :class:`CellLoad`, fed through ``note_switch`` with every switch of
    the batch interleaved by the same key: each device's first packet
    and every packet at or after its gap's ``idle_at`` promote whatever
    the answers (generation ``3 * k``), while a grant adds its own fast
    dormancy when it pops before ``idle_at`` (``3 * k + 2``) and then
    the promotion of the packet ending its gap, if the timers did not
    already idle the device.  This is exact because requests do not
    depend on grants (each wait depends only on the device's own packet
    times), a request reads only switches that pop before it, and a
    grant adds switches only at or after its own pop, where its answer
    is known.  Returns ``(granted, tail_granted)`` shaped like
    ``fired`` and ``tail_fired``.
    """
    gap = _np.flatnonzero(fired)
    tails = _np.flatnonzero(tail_fired)
    after = _np.concatenate((gap - 1, lasts[tails]))
    at = request_at[after]
    kind = _np.where(at == t[after], _ARRIVAL, _DORMANCY)
    asks = after.shape[0]
    # Per item: (time, kind, packet, generation, item code, request).
    groups = [(at, kind, after, 3 * after + 1, _ASK, _np.arange(asks))]
    if load is not None:
        # The machine's idle_at after each packet, as _Rows.a2 sums it.
        idle_at = t + table.t1
        if table.has_high_idle:
            idle_at = idle_at + table.t2
        promoted = _np.empty(t.shape[0], dtype=bool)
        promoted[1:] = t[1:] >= idle_at[:-1]
        promoted[heads] = True
        timers = _np.flatnonzero(promoted)
        groups.append((t[timers], _ARRIVAL, timers, 3 * timers, _NOTE, -1))
        demotes = _np.flatnonzero(at < idle_at[after])
        groups.append((at[demotes], kind[demotes], after[demotes],
                       3 * after[demotes] + 2, _NOTE_IF, demotes))
        wakes = demotes[demotes < gap.shape[0]]
        wakes = wakes[~promoted[gap[wakes]]]
        groups.append((t[gap[wakes]], _ARRIVAL, gap[wakes], 3 * gap[wakes],
                       _NOTE_IF, wakes))
    when, kinds, packet, generation, code, ref = (
        _np.concatenate([_np.broadcast_to(group[k], group[0].shape)
                         for group in groups])
        for k in range(6))
    ue = owner[packet]
    order = _np.lexsort((generation, ue, kinds, when))
    answers = [False] * asks
    note = None if load is None else load.note_switch
    for item, time, ue_id, request in zip(code[order].tolist(),
                                          when[order].tolist(),
                                          ue[order].tolist(),
                                          ref[order].tolist()):
        if item == _ASK:
            answers[request] = decide(ue_id, time, load)
        elif item == _NOTE or answers[request]:
            note(time)
    answered = _np.array(answers, dtype=bool)
    granted = _np.zeros_like(fired)
    granted[gap] = answered[:gap.shape[0]]
    tail_granted = _np.zeros_like(tail_fired)
    tail_granted[tails] = answered[gap.shape[0]:]
    return granted, tail_granted


def _replay_batch(specs: Sequence["DeviceSpec"], t, sizes, up, offsets,
                  table: TransitionTable, model: DataEnergyModel, decide,
                  load: CellLoad | None):
    """Replay one drained batch: its devices' columns and its load ops.

    ``decide`` is the station's own ``decide``, or ``None`` for a
    station that always grants; ``load`` is the switch window a
    window-reading station is asked against (``None``: a per-device
    station; see :func:`_ask_station`).  Returns ``(columns, ops,
    horizon, last_emitted, max_now)``.
    ``columns`` maps shard-table fields (plus ``open_code``, the shard
    table's open-state code, and ``closed``) to one value per device;
    ``ops`` are the batch's ``(time, kind, ue_id, op)`` columns, every
    UE's in generation order.  The scalars are the batch's latest real
    event pop (``-inf``: none), its latest packet (``None``: none) and
    the latest clock any of its machines reached.
    """
    ids = _np.array([spec.device_id for spec in specs], dtype=_np.int64)
    attach = _np.array([spec.attach_at for spec in specs], dtype=_np.float64)
    departs = _np.array([spec.detach_at is not None for spec in specs],
                        dtype=bool)
    detach = _np.array(
        [_INF if spec.detach_at is None else spec.detach_at
         for spec in specs],
        dtype=_np.float64,
    )
    counts = offsets[1:] - offsets[:-1]
    nonempty = counts > 0
    heads = offsets[:-1][nonempty]  # each device's first packet
    lasts = offsets[1:][nonempty] - 1  # and its last
    _check_streams(specs, t, offsets, heads, detach)
    early = _np.flatnonzero(t[heads] < attach[nonempty])
    if early.shape[0]:
        # The machine refuses a first packet before its start time.
        d = int(_np.flatnonzero(nonempty)[early[0]])
        raise ValueError(
            "events must be non-decreasing in time: "
            f"{float(t[heads[early[0]]])} < {specs[d].attach_at}"
        )
    n = t.shape[0]
    prev = t[:-1]
    nxt = t[1:]

    # The data-energy fold: elementwise float64 mirrors of the scalar
    # kernel's inlined ``account_transfer`` arithmetic (same divisions,
    # comparisons and products), each device's first packet taking its
    # serialisation time as every stream's first packet does, folded per
    # device in packet order.
    rates = _np.where(up, model.uplink_rate, model.downlink_rate)
    ser = sizes / rates
    ser = _np.where(ser < model.min_packet_time, model.min_packet_time, ser)
    gaps = nxt - prev
    dur = _np.empty_like(ser)
    dur[1:] = _np.where(gaps <= model.burst_gap, gaps, ser[1:])
    dur[heads] = ser[heads]
    energy = dur * _np.where(up, model.send_power_w, model.recv_power_w)
    data_time_s, data_j = _segment_left_fold((dur, energy), offsets[:-1],
                                             counts)

    # Fired dormancy requests, before any RRC work: each packet carries
    # the wait decided after it (``inf``: no request).  The gap into
    # packet i fires iff t[i-1] + wait[i-1] <= t[i], never into a
    # device's first packet; a device's trailing request fires iff it
    # asked and the request pops by its departure.
    times = t.tolist()  # Python floats for MakeIdle and the timer chains
    wait = _wait_column(specs, times, offsets.tolist(), counts)
    request_at = t + wait
    fired = _np.zeros(n, dtype=bool)
    fired[1:] = request_at[:-1] <= nxt
    fired[heads] = False
    dep = departs[nonempty]
    det = detach[nonempty]
    last_wait = wait[lasts]
    tail_at = t[lasts] + last_wait
    tail_fired = (last_wait < _INF) & (tail_at <= det)
    granted, tail_granted = fired, tail_fired
    if decide is not None:
        granted, tail_granted = _ask_station(
            decide, load, table, _np.repeat(ids, counts), t, request_at,
            fired, heads, lasts, tail_fired)

    # The boundary mask (see module docstring) over every gap at once:
    # a granted request or a gap past t1 ends a gap at a boundary, and
    # every first packet is one.
    timer_fired = _np.zeros(n, dtype=bool)
    timer_fired[1:] = (prev + table.idle_after) <= nxt
    boundary = _np.empty(n, dtype=bool)
    boundary[1:] = granted[1:] | (nxt >= (prev + table.t1))
    boundary[heads] = True
    b = _np.flatnonzero(boundary)
    # Device d's boundary rows are b[bounds[d]:bounds[d + 1]], its first
    # packet first.
    bounds = _np.searchsorted(b, offsets)
    per_device = bounds[1:] - bounds[:-1]
    first = _np.zeros(b.shape[0], dtype=bool)
    first[bounds[:-1][nonempty]] = True
    later = ~first

    # Boundary rows.  A later boundary ends a gap that opened at b - 1,
    # with DCH held since the previous boundary packet; a first row is
    # Idle from attach_at to the first packet, then a promotion.
    tb = t[b]
    s = _np.empty_like(tb)
    s[1:] = tb[:-1]
    s[:1] = tb[:1]
    rows = _Rows(table, t[b - 1], s, wait[b - 1])
    rows.run(granted[b], timer_fired[b] & later, tb, True)
    rows.active_s[first] = 0.0
    rows.high_idle_s[first] = 0.0
    rows.idle_s[first] = t[heads] - attach[nonempty]
    rows.timer_demotions[first] = 0
    promoted = rows.idle | first
    pairs = _np.empty((b.shape[0], 2))  # switch energies in time order
    pairs[:, 0] = _np.where(rows.fd, table.demotion_energy_j, 0.0)
    pairs[:, 1] = _np.where(promoted, table.promotion_energy_j, 0.0)

    # Trailing rows: the scheduled dormancy and the final timer pop after
    # each last packet, cut by a departure as the heap tie-breaks them,
    # up to the last event the device processes.  A denied request does
    # not move the machine's clock, so a staying device then ends at its
    # timer pop.
    tail = _Rows(table, t[lasts], tb[bounds[1:][nonempty] - 1], last_wait)
    end = _np.where(dep, det,
                    _np.where(tail_granted, _np.maximum(tail.tt, tail.at),
                              tail.tt))
    tail.run(tail_granted, tail.tt < det, end, dep)

    # Per-device folds over the boundary rows, then one more left-fold
    # step: the trailing row of each device with packets, and the Idle
    # stretch of a departing device without packets.
    active_s, high_idle_s, idle_s = _segment_left_fold(
        (rows.active_s, rows.high_idle_s, rows.idle_s), bounds[:-1],
        per_device)
    (switch_j,) = _segment_left_fold((pairs.ravel(),), 2 * bounds[:-1],
                                     2 * per_device)
    active_s[nonempty] += tail.active_s
    high_idle_s[nonempty] += tail.high_idle_s
    idle_s[nonempty] += tail.idle_s
    bare = departs & ~nonempty
    idle_s[bare] += detach[bare] - attach[bare]
    switch_j[nonempty] += _np.where(tail.fd, table.demotion_energy_j, 0.0)
    timer_demotions = _segment_counts(rows.timer_demotions, bounds)
    timer_demotions[nonempty] += tail.timer_demotions
    fast_demotions = _segment_counts(rows.fd, bounds)
    fast_demotions[nonempty] += tail.fd
    requests = _segment_counts(fired, offsets)
    requests[nonempty] += tail_fired
    grants = _segment_counts(granted, offsets)
    grants[nonempty] += tail_granted

    # Open segments: a departed machine is closed at detach_at, a device
    # without packets is still Idle since attach_at.
    tail_code, tail_since = tail.open_segment()
    open_code = _np.full(ids.shape[0], 2, dtype=_np.int8)
    open_code[nonempty] = tail_code
    open_since = _np.where(departs, detach, attach)
    open_since[nonempty] = tail_since
    last_activity = attach.copy()
    last_activity[nonempty] = t[lasts]
    now = _np.where(departs, detach, attach)
    now[nonempty] = end

    # The sample horizon: every device's latest real event pop.  Every
    # scheduled dormancy pops, stale or not: the latest pop is the
    # largest t_k + w_k, which is t_last + w only for constant w.
    horizon = _np.where(departs, detach, -_INF)
    if heads.shape[0]:
        last_dormancy = _np.maximum.reduceat(
            _np.where(wait < _INF, request_at, -_INF), heads)
        horizon[nonempty] = _np.maximum(_np.where(dep, det, tail.tt),
                                        last_dormancy)
    chained = _np.flatnonzero(departs & nonempty)
    if chained.shape[0]:
        pops = [
            _final_timer_pop(times, lo, hi, table.idle_after, leave)
            for lo, hi, leave in zip(offsets[chained].tolist(),
                                     offsets[chained + 1].tolist(),
                                     detach[chained].tolist())
        ]
        horizon[chained] = _np.maximum(
            horizon[chained],
            [-_INF if pop is None else pop for pop in pops])

    boundary_ops = _op_columns(_np.repeat(ids, per_device), (
        (rows.timer_deact, rows.tt, _TIMER, _DEACT),
        (rows.fd, rows.at, rows.dorm_kind, _SWITCH),
        (rows.dorm_deact, rows.at, rows.dorm_kind, _DEACT),
        (rows.timer_only_deact, rows.tt, _TIMER, _DEACT),
        (promoted, tb, _ARRIVAL, _SWITCH),
        (rows.deacts | first, tb, _ARRIVAL, _ACT),
    ))
    trailing_ops = _op_columns(ids[nonempty], (
        (tail.timer_deact, tail.tt, _TIMER, _DEACT),
        (tail.fd, tail.at, tail.dorm_kind, _SWITCH),
        (tail.dorm_deact, tail.at, tail.dorm_kind, _DEACT),
        (tail.timer_only_deact, tail.tt, _TIMER, _DEACT),
        (dep & ~tail.deacts, det, _HANDOVER, _DEACT),
    ))
    ops = tuple(_np.concatenate(pair)
                for pair in zip(boundary_ops, trailing_ops))

    columns = {
        "device_id": ids,
        "data_j": data_j,
        "data_time_s": data_time_s,
        "active_time_s": active_s,
        "high_idle_time_s": high_idle_s,
        "idle_time_s": idle_s,
        "switch_j": switch_j,
        "promotions": _segment_counts(promoted, bounds),
        "timer_demotions": timer_demotions,
        "fast_demotions": fast_demotions,
        "open_since": open_since,
        "last_activity": last_activity,
        "packets": counts,
        "dormancy_requests": requests,
        "dormancy_granted": grants,
        "dormancy_denied": requests - grants,
        "open_code": open_code,
        "closed": departs,
    }
    last_emitted = float(t[lasts].max()) if lasts.shape[0] else None
    return (columns, ops, float(horizon.max()), last_emitted,
            float(now.max()))


def _rebuild_load_and_samples(
    when,
    op,
    sample_interval_s: float | None,
    horizon: float | None,
) -> tuple[CellLoad, tuple[LoadSample, ...]]:
    """Rebuild the shard's :class:`CellLoad` and samples from its load ops.

    ``when`` / ``op`` are the merged ops in global heap order (``op``:
    :data:`_ACT`, :data:`_DEACT` or :data:`_SWITCH`).  The active count
    is their running sum and its peak the running maximum; the switch
    timeline is the switch ops' times.  Sample instants interleave
    exactly as SAMPLE events do: every op at ``time <= s`` precedes the
    sample at ``s`` (op kinds all sort before SAMPLE), the grid
    accumulates ``s + interval`` left-to-right, and sample ``k+1`` exists
    iff a real event pops after sample ``k`` (``horizon`` is the latest
    real pop).  ``horizon`` is ``None`` exactly when the heap was never
    primed with a real event, and then no sample exists at all.  Each
    sample's switch count prunes the window with the comparison
    :meth:`CellLoad.switches_within_window` makes.
    """
    load = CellLoad()
    active = _np.zeros(op.shape[0] + 1, dtype=_np.int64)
    _np.add.accumulate(op, dtype=_np.int64, out=active[1:])
    load.active_devices = int(active[-1])
    load.peak_active_devices = int(active.max())
    switches = when[op == _SWITCH]
    load.switch_times = switches
    if sample_interval_s is None or horizon is None:
        return load, ()
    grid = [sample_interval_s]
    while horizon > grid[-1]:
        grid.append(grid[-1] + sample_interval_s)
    instants = _np.array(grid)
    applied = _np.searchsorted(when, instants, side="right")
    noted = _np.searchsorted(switches, instants, side="right").tolist()
    recent = switches[:noted[-1]].tolist()
    samples: list[LoadSample] = []
    start = 0
    for s, active_now, count in zip(grid, active[applied].tolist(), noted):
        while start < count and s - recent[start] >= LOAD_WINDOW_S:
            start += 1
        samples.append(LoadSample(time=s, active_devices=active_now,
                                  switches_last_minute=count - start))
    return load, tuple(samples)


def run_shard_vector(
    simulator: "CellSimulator", devices: Sequence["DeviceSpec"], decide
) -> "CellShard":
    """Vector-kernel implementation of :meth:`CellSimulator.run_shard`.

    Produces a :class:`~repro.basestation.cell.CellShard` byte-identical
    to the scalar shard run over the same devices: the shard's devices
    are drained into columnar batches (the whole shard is one batch
    under a station that reads the switch window) whose answers, folds,
    boundary rows and load ops are computed once per batch
    (:func:`_replay_batch`), and the
    shared cell-load state (ordered switch timeline, running peak, sample
    series) is rebuilt from all UEs' load ops, put in exact heap order by
    one stable ``np.lexsort``.  The device columns go to the same
    :meth:`~repro.basestation.table.ShardTable.from_columns` the scalar
    kernel builds its partial with.  The caller —
    :meth:`~repro.basestation.cell.CellSimulator.run_shard` — has already
    validated the shard, checked :func:`use_vector_kernel`, and prepared
    and reset every policy and the station, whose ``decide`` it passes
    (``None``: the station always grants).
    """
    from ..basestation.cell import CellShard
    from ..basestation.table import ShardTable

    engine = simulator.engine
    profile = engine.profile
    table = transition_table(profile)
    model = engine.accountant.data_model
    # A request can read a switch of any device of the shard, including
    # one a later batch would hold, so a shard whose station reads the
    # switch window drains as one batch.
    window = station_reads_switch_window(simulator.dormancy_policy)
    budget = _INF if window else _PACKET_BUDGET
    parts = []
    ops = []
    horizon = -_INF
    last_emitted: float | None = None
    max_now = 0.0
    first = 0
    while first < len(devices):
        stop, drained = _drain(devices, first, budget)
        columns, batch_ops, batch_horizon, batch_last, batch_now = (
            _replay_batch(devices[first:stop], *drained, table, model,
                          decide, CellLoad() if window else None))
        del drained  # free the packet arrays before the next batch
        first = stop
        parts.append(columns)
        ops.append(batch_ops)
        horizon = max(horizon, batch_horizon)
        if batch_last is not None and (last_emitted is None
                                       or batch_last > last_emitted):
            last_emitted = batch_last
        max_now = max(max_now, batch_now)

    columns = {name: _np.concatenate([part[name] for part in parts])
               for name in parts[0]}
    del parts
    when, kind, ue_id, op = (_np.concatenate(column) for column in zip(*ops))
    del ops
    # Global load replay: one stable sort puts every UE's ops in heap
    # order, keeping each UE's generation order among equal keys.
    order = _np.lexsort((ue_id, kind, when))
    load, samples = _rebuild_load_and_samples(
        when[order],
        op[order],
        sample_interval_s=simulator.sample_interval_s,
        horizon=None if horizon == -_INF else horizon,
    )

    open_code = columns.pop("open_code")
    closed = columns.pop("closed")
    shard_table = ShardTable.from_columns(
        columns,
        open_codes=open_code,
        closed=closed,
        policy_names=[spec.policy.name for spec in devices],
        cohorts=[spec.cohort for spec in devices],
        # Vector-eligible policies never delay a session.
        session_delays=[()] * len(devices),
    )

    return CellShard(
        dormancy_policy_name=simulator.dormancy_policy.name,
        profile=profile,
        trailing_time=engine.trailing_time,
        devices=shard_table,
        last_emitted=last_emitted,
        max_now=max_now,
        load=load,
        load_samples=samples,
        sample_interval_s=simulator.sample_interval_s,
        vector_devices=len(devices),
    )
