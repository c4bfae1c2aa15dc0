"""Vectorized (numpy) cell kernel — byte-identical to the scalar kernel.

:meth:`~repro.basestation.cell.CellSimulator.run_shard` runs a shard on
this kernel whenever :func:`use_vector_kernel` says it can.  The kernel
replays each UE in *batch*: one UE's whole packet stream is materialised
into numpy arrays (arrival times, sizes, uplink flags), and everything the
scalar kernel computes per heap event is computed as array expressions
over the :class:`~repro.rrc.vector_tables.VectorTable` constants — except
at the sparse "interesting" instants, which are replayed through the
*real* per-UE :class:`~repro.rrc.state_machine.RrcStateMachine` so every
float lands bit-for-bit where the scalar kernel would put it.

Why byte-identity holds
-----------------------

The scalar kernel's per-UE work for an *eligible* UE (see
:func:`vector_eligible`) decomposes into three independent pieces:

1. **The data-energy fold** depends only on the emitted packet sequence
   (timestamps, sizes, directions), never on RRC state.  It is a strict
   left fold of per-packet durations/energies, so ``np.add.accumulate``
   over elementwise float64 expressions — IEEE-754 doubles, the same ops
   in the same order — reproduces it bit-for-bit.

2. **The RRC machine** only does real work at *boundary* instants.
   Between boundaries every packet takes the
   :meth:`~repro.rrc.state_machine.RrcStateMachine.notify_activity` fast
   path (pure overwrites of ``now``/``last_activity``), which
   :meth:`~repro.rrc.state_machine.RrcStateMachine.fast_forward_activity`
   collapses into one step.  Boundary instants are computed as array
   comparisons over the same ``t + const`` sums the scalar kernel pushes
   into its heap:

   * a packet is a boundary when the previous gap fired a scheduled fast
     dormancy (``t[i] + wait <= t[i+1]``: the dormancy event pops before
     the arrival, equality included because DORMANCY sorts before
     ARRIVAL) or when it left the ``t1`` window (``t[i+1] >= t[i] + t1``);
   * an inactivity-timer expiry fires inside a gap when
     ``t[i] + idle_after <= t[i+1]`` (the self-deferring TIMER event pops
     at exactly the deadline; equality included, TIMER sorts before
     ARRIVAL) — and after the last packet, unconditionally at
     ``t_last + idle_after``;
   * a handover cuts the trailing events exactly as the heap does:
     the trailing dormancy still fires iff ``t_last + wait <= detach``
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
   so the chain horizon is the latest real pop — for a UE that is
   ``t_last + max(wait, idle_after)``, or for a departed UE the latest of
   its handover instant, its last (stale) dormancy pop and the final pop
   of its self-deferring timer chain.

Kernel selection
----------------

The kernel is chosen per shard, all or nothing (:func:`use_vector_kernel`):
numpy must import, the base-station policy must grant every dormancy
request unconditionally (request arbitration observes the live
interleaved load, which a per-UE replay cannot see), and every device
policy must be :func:`vector_eligible` — the base-class
``observe_packet`` and ``activation_delay`` hooks (no per-packet hooks,
no MakeActive buffering) and a ``dormancy_wait`` that is a known
constant: the base class (never requests dormancy), a
:class:`~repro.core.baselines.FixedTimerPolicy`, or a
:class:`~repro.core.baselines.PercentileIatPolicy` (whose constant is
trained in ``prepare``).  Any other shard runs on the scalar kernel.  The
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
from ..core.policy import RadioPolicy
from ..rrc.state_machine import RrcStateMachine
from ..rrc.states import RadioState
from ..rrc.vector_tables import VectorTable, vector_table
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


def numpy_available() -> bool:
    """Whether the numpy the vector kernel needs is importable."""
    return _np is not None


def station_always_grants(policy: object) -> bool:
    """Whether a base-station dormancy policy unconditionally grants.

    The flag must be set *and* ``decide`` must really be the accept-all
    implementation, so a subclass that overrides ``decide`` while
    inheriting the flag is still consulted.  Only then are per-UE
    outcomes independent of the live cell load — the precondition for
    the scalar kernel's per-request fast path
    (:class:`~repro.basestation.cell._NetworkStation`) and for running
    UEs out of event order here.
    """
    from ..basestation.policies import AcceptAllDormancy

    return (
        bool(getattr(policy, "always_grants", False))
        and type(policy).decide is AcceptAllDormancy.decide
    )


def vector_eligible(policy: RadioPolicy) -> bool:
    """Whether the vector kernel can replay a device running ``policy``.

    ``True`` when the policy has no per-packet hooks (base-class
    ``observe_packet`` and ``activation_delay`` — so it never buffers
    sessions either) and its ``dormancy_wait`` is a known
    time-independent constant: the base class (never requests fast
    dormancy), a :class:`FixedTimerPolicy` or a
    :class:`PercentileIatPolicy`.  Judged from the policy's type alone,
    so the answer is the same before and after ``prepare()``.
    """
    ptype = type(policy)
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
    """A prepared eligible policy's dormancy wait (``None``: never requests).

    Read after ``prepare()``: trace-trained timeouts are fixed there.
    """
    if type(policy).dormancy_wait is RadioPolicy.dormancy_wait:
        return None
    return policy.timeout


def _materialize(trace, ue_id: int):
    """One UE's packet stream as ``(times, sizes, uplink)`` float64/bool arrays.

    Walks the same block protocol the scalar kernel's arrival source
    walks, validates time order with the scalar kernel's exact rule and
    error text, and keeps Python-float fidelity (float64 round-trips
    exactly).
    """
    uplink = Direction.UPLINK  # hoisted: one load per packet, not three
    parts_t: list[list[float]] = []
    parts_size: list[list[int]] = []
    parts_up: list[list[bool]] = []
    blocks = getattr(trace, "packet_blocks", None)
    if blocks is not None:
        for block in blocks():
            if not block:
                continue
            parts_t.append([p.timestamp for p in block])
            parts_size.append([p.size for p in block])
            parts_up.append([p.direction is uplink for p in block])
    else:
        block = list(trace)
        if block:
            parts_t.append([p.timestamp for p in block])
            parts_size.append([p.size for p in block])
            parts_up.append([p.direction is uplink for p in block])
    if not parts_t:
        empty = _np.empty(0, dtype=_np.float64)
        return empty, empty, _np.empty(0, dtype=bool)
    if len(parts_t) == 1:
        t = _np.asarray(parts_t[0], dtype=_np.float64)
        sizes = _np.asarray(parts_size[0], dtype=_np.float64)
        up = _np.asarray(parts_up[0], dtype=bool)
    else:
        t = _np.concatenate(
            [_np.asarray(p, dtype=_np.float64) for p in parts_t]
        )
        sizes = _np.concatenate(
            [_np.asarray(p, dtype=_np.float64) for p in parts_size]
        )
        up = _np.concatenate([_np.asarray(p, dtype=bool) for p in parts_up])
    if t[0] < 0.0:
        raise StreamOrderError(
            f"packet stream for UE {ue_id} is not time-ordered: "
            f"{t[0]} after 0.0"
        )
    bad = _np.flatnonzero(t[1:] < t[:-1])
    if bad.size:
        i = int(bad[0])
        raise StreamOrderError(
            f"packet stream for UE {ue_id} is not time-ordered: "
            f"{float(t[i + 1])} after {float(t[i])}"
        )
    return t, sizes, up


def _data_fold(
    t, sizes, up, vt: VectorTable
) -> tuple[float, float]:
    """The emitted-packet data-energy fold as array expressions.

    Elementwise float64 mirrors of the scalar kernel's inlined
    ``account_transfer`` arithmetic (same divisions, comparisons and
    products), folded with ``np.add.accumulate`` — a strict left fold,
    unlike pairwise ``np.sum`` — so the running sums accumulate in the
    scalar kernel's order.  Returns ``(data_j, data_time_s)``.
    """
    rates = _np.where(up, vt.uplink_rate, vt.downlink_rate)
    ser = sizes / rates
    ser = _np.where(ser < vt.min_packet_time, vt.min_packet_time, ser)
    dur = _np.empty_like(ser)
    dur[0] = ser[0]
    if ser.shape[0] > 1:
        gaps = t[1:] - t[:-1]
        dur[1:] = _np.where(gaps <= vt.burst_gap, gaps, ser[1:])
    energy = dur * _np.where(up, vt.send_power_w, vt.recv_power_w)
    data_time_s = float(_np.add.accumulate(dur)[-1])
    data_j = float(_np.add.accumulate(energy)[-1])
    return data_j, data_time_s


def _final_timer_pop(
    tl: Sequence[float], idle_after: float, detach: float
) -> float | None:
    """Last pop of a departed UE's self-deferring inactivity-timer chain.

    Walks the TIMER event chain exactly as the heap would: the event
    pushed at the first arrival pops at its scheduled time; a pop before
    the current deadline (last arrival strictly before the pop, plus
    ``idle_after``) re-pushes at the deadline; a pop at the deadline
    fires and the next arrival pushes afresh.  The first pop at-or-after
    ``detach`` hits the departed guard and ends the chain — its time is
    returned because it is still a *real* event extending the load
    sample horizon.  Returns ``None`` when the chain ended (fired with
    no further arrivals) before the handover.
    """
    pop = tl[0] + idle_after
    j = 1
    n = len(tl)
    while True:
        while j < n and tl[j] < pop:
            j += 1
        if pop >= detach:  # HANDOVER (kind 2) pops before TIMER (kind 3)
            return pop
        target = tl[j - 1] + idle_after
        if pop < target:
            pop = target  # stale: defer to the moved deadline
            continue
        # Fires before the handover; the next arrival re-arms the chain.
        if j < n:
            pop = tl[j] + idle_after
            j += 1
            continue
        return None


class _VectorUeOutcome:
    """What one vector-path UE replay produced."""

    __slots__ = (
        "machine",
        "data_j",
        "data_time_s",
        "packets",
        "requests",
        "last_effective",
        "horizon",
        "departed",
    )

    def __init__(self, machine, data_j, data_time_s, packets, requests,
                 last_effective, horizon, departed):
        self.machine = machine
        self.data_j = data_j
        self.data_time_s = data_time_s
        self.packets = packets
        self.requests = requests
        self.last_effective = last_effective
        self.horizon = horizon
        self.departed = departed


def _run_vector_ue(
    spec: "DeviceSpec",
    profile,
    vt: VectorTable,
    wait: float | None,
    ops: list[_LoadOp],
) -> _VectorUeOutcome:
    """Replay one eligible UE: batch folds + sparse real-machine calls."""
    ue_id = spec.device_id
    detach = spec.detach_at
    machine = RrcStateMachine(profile, start_time=spec.attach_at,
                              fold_history=True)
    t, sizes, up = _materialize(spec.trace, ue_id)
    n = int(t.shape[0])
    if n == 0:
        horizon = None
        if detach is not None:
            machine.finish(detach)
            horizon = detach
        return _VectorUeOutcome(machine, 0.0, 0.0, 0, 0, None, horizon,
                                detach is not None)
    tl = t.tolist()  # Python floats for machine calls and op records
    if detach is not None and tl[-1] >= detach:
        # The scalar kernel aborts on this too: the arrival pops after
        # the handover closed the machine.
        raise RuntimeError(
            f"UE {ue_id}: packet at {tl[-1]} is not strictly before its "
            f"departure at {detach} (handover contract)"
        )

    data_j, data_time_s = _data_fold(t, sizes, up, vt)

    t1 = vt.t1
    idle_after = vt.idle_after
    idle_state = RadioState.IDLE
    prev = t[:-1]
    nxt = t[1:]
    # Per-gap fired events and the boundary mask (see module docstring).
    timer_fires = (prev + idle_after) <= nxt
    if wait is not None:
        dorm_fires = (prev + wait) <= nxt
        boundary = dorm_fires | (nxt >= (prev + t1))
    else:
        dorm_fires = None
        boundary = nxt >= (prev + t1)
    bps = [0]
    bps.extend((_np.flatnonzero(boundary) + 1).tolist())

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
    for pos in range(len(bps)):
        b = bps[pos]
        if pos:
            prev_b = bps[pos - 1]
            if b - 1 > prev_b:
                # Packets strictly inside the t1 window of their
                # predecessor: the fast path's pure overwrites, collapsed.
                fast_forward(tl[b - 1])
            g = b - 1  # the gap that made packet b a boundary
            gt = tl[g]
            if dorm_fires is not None and dorm_fires[g]:
                at = gt + wait
                if timer_fires[g]:
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
            elif timer_fires[g]:
                do_timer(gt + idle_after)
        tb = tl[b]
        if notify(tb):
            append_op((tb, _ARRIVAL, ue_id, "switch"))
        if not was_active:
            append_op((tb, _ARRIVAL, ue_id, "act"))
            was_active = True

    last = n - 1
    if last > bps[-1]:
        machine.fast_forward_activity(tl[last])
    t_last = tl[last]

    # Trailing events after the last packet: the scheduled dormancy and
    # the final timer-chain pop, cut by a handover exactly as the heap
    # tie-breaks them (see module docstring).
    trailing: list[tuple[float, int]] = []
    if wait is not None:
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
        tau = _final_timer_pop(tl, idle_after, detach)
        if tau is not None and tau > horizon:
            horizon = tau
        if wait is not None and t_last + wait > horizon:
            horizon = t_last + wait
    else:
        horizon = t_last + idle_after
        if wait is not None and t_last + wait > horizon:
            horizon = t_last + wait

    return _VectorUeOutcome(machine, data_j, data_time_s, n, requests,
                            t_last, horizon, detach is not None)


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
    to the scalar shard run over the same devices: every UE takes the
    batch path, and the shared cell-load state (ordered switch timeline,
    running peak, sample series) is reconstructed by replaying all UEs'
    load mutations in exact heap order.  The caller —
    :meth:`~repro.basestation.cell.CellSimulator.run_shard` — has already
    validated the shard, checked :func:`use_vector_kernel`, and prepared
    and reset every policy.
    """
    from ..basestation.cell import _LOAD_WINDOW_S, CellShard, ShardDeviceState

    engine = simulator.engine
    profile = engine.profile
    vt = vector_table(profile, engine.accountant.data_model)
    ops: list[_LoadOp] = []
    states: list[ShardDeviceState] = []
    horizon: float | None = None
    last_emitted: float | None = None
    max_now = 0.0
    for spec in devices:
        outcome = _run_vector_ue(
            spec, profile, vt, _constant_wait(spec.policy), ops
        )
        machine = outcome.machine
        (active_s, high_idle_s, idle_s, switch_j, promotions,
         timer_demotions, fast_demotions) = machine.folded_state_totals()
        states.append(ShardDeviceState(
            device_id=spec.device_id,
            policy_name=spec.policy.name,
            data_j=outcome.data_j,
            data_time_s=outcome.data_time_s,
            active_time_s=active_s,
            high_idle_time_s=high_idle_s,
            idle_time_s=idle_s,
            switch_j=switch_j,
            promotions=promotions,
            timer_demotions=timer_demotions,
            fast_demotions=fast_demotions,
            open_state=machine.state,
            open_since=machine.segment_start,
            last_activity=machine.last_activity,
            packets=outcome.packets,
            dormancy_requests=outcome.requests,
            dormancy_granted=outcome.requests,
            dormancy_denied=0,
            session_delays=(),
            delayed_sessions=0,
            total_session_delay_s=0.0,
            cohort=spec.cohort,
            closed=outcome.departed,
        ))
        if outcome.packets and (last_emitted is None
                                or outcome.last_effective > last_emitted):
            last_emitted = outcome.last_effective
        if machine.now > max_now:
            max_now = machine.now
        if outcome.horizon is not None and (horizon is None
                                            or outcome.horizon > horizon):
            horizon = outcome.horizon

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
        devices=tuple(states),
        last_emitted=last_emitted,
        max_now=max_now,
        load=load,
        load_samples=samples,
        sample_interval_s=simulator.sample_interval_s,
        vector_devices=len(devices),
    )
