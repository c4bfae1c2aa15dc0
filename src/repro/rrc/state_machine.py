"""Discrete-event RRC state machine driven by packet activity.

The machine reproduces the behaviour in Figure 2 of the paper:

* data activity keeps (or puts) the radio in the **Active** state
  (CELL_DCH / RRC_CONNECTED);
* after ``t1`` seconds without activity the network demotes the radio to the
  **High-power idle** state (CELL_FACH) — carriers without such a state
  (Verizon 3G, LTE) skip straight to Idle;
* after a further ``t2`` seconds of inactivity the radio is demoted to
  **Idle** (CELL_PCH / IDLE / RRC_IDLE);
* a device supporting fast dormancy may request the demotion to Idle early;
* any activity while Idle triggers a **promotion** back to Active, which
  costs time, energy, and signalling.

The machine maintains a timeline of :class:`StateInterval` records (which
state the radio occupied over which span of trace time) and a list of
:class:`SwitchEvent` records (each promotion or demotion with its energy
cost).  The energy accounting in :mod:`repro.energy` integrates state power
over the timeline and adds the switch energies, exactly as the paper's
simplified power model (Figure 5) does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .profiles import CarrierProfile
from .states import RadioState
from .tables import transition_table

__all__ = [
    "StateInterval",
    "SwitchEvent",
    "SwitchKind",
    "RrcStateMachine",
]


class SwitchKind(Enum):
    """Why a state switch happened."""

    PROMOTION = "promotion"          # Idle -> Active, triggered by traffic
    TIMER_DEMOTION = "timer_demotion"  # Active/High-idle -> next state, by timer
    FAST_DORMANCY = "fast_dormancy"    # Active/High-idle -> Idle, by device request


@dataclass(frozen=True)
class StateInterval:
    """The radio occupied ``state`` from ``start`` to ``end`` (trace time)."""

    start: float
    end: float
    state: RadioState

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"interval end ({self.end}) must be >= start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class SwitchEvent:
    """One radio state switch and its fixed cost."""

    time: float
    kind: SwitchKind
    from_state: RadioState
    to_state: RadioState
    energy_j: float
    delay_s: float

    @property
    def is_promotion(self) -> bool:
        """True when this switch brought the radio from Idle to Active."""
        return self.kind is SwitchKind.PROMOTION

    @property
    def is_demotion(self) -> bool:
        """True when this switch lowered the radio's power state."""
        return not self.is_promotion


class RrcStateMachine:
    """Simulates the RRC machine of one carrier for one device.

    The machine is advanced by two kinds of calls:

    * :meth:`notify_activity` — a packet was sent or received at a given
      time; the machine first applies any timer-based demotions that would
      have happened since the previous event, then promotes the radio if it
      was Idle.
    * :meth:`request_fast_dormancy` — the control module asks the base
      station to release the channel now (the paper's simplified model
      assumes the request is always granted).

    Finally :meth:`finish` closes the timeline at the end of the trace.
    The radio starts Idle at ``start_time``, and times must be
    non-decreasing across calls.

    Timer thresholds and switch costs are read from the profile's
    precomputed :class:`~repro.rrc.tables.TransitionTable` (bound to plain
    attributes at construction), so no per-event call re-derives a
    constant — the table values are float-identical to the profile
    properties they replace.

    History modes
    -------------

    By default the machine records a full :class:`StateInterval` /
    :class:`SwitchEvent` history (what single-UE results are built from).
    With ``fold_history=True`` it instead *folds* each completed interval
    and switch into flat per-state totals at the moment the transition
    happens — the same ``end - start`` durations and ``energy_j`` values,
    added in the same order, so the folded totals are bit-equal to
    summing the recorded history afterwards, while allocating no history
    objects at all.  Read the totals back with
    :meth:`folded_state_totals`.
    """

    def __init__(self, profile: CarrierProfile, start_time: float = 0.0,
                 fold_history: bool = False) -> None:
        self._profile = profile
        table = transition_table(profile)
        self._t1 = table.t1
        self._t2 = table.t2
        self._total_timeout = table.total_timeout
        self._has_high_idle = table.has_high_idle
        self._promotion_energy_j = table.promotion_energy_j
        self._promotion_delay_s = table.promotion_delay_s
        self._demotion_energy_j = table.demotion_energy_j
        self._demotion_delay_s = table.demotion_delay_s
        self._state = RadioState.IDLE
        self._segment_start = start_time
        self._last_activity = start_time
        self._now = start_time
        self._intervals: list[StateInterval] = []
        self._switches: list[SwitchEvent] = []
        self._finished = False
        self._fold = fold_history
        # Folded totals (fold_history mode): per-state completed-interval
        # durations, switch energy, and switch counts by kind.
        self._fold_active_s = 0.0
        self._fold_high_idle_s = 0.0
        self._fold_idle_s = 0.0
        self._fold_switch_j = 0.0
        self._fold_promotions = 0
        self._fold_timer_demotions = 0
        self._fold_fast_demotions = 0

    # -- public read-only views -----------------------------------------------------

    @property
    def profile(self) -> CarrierProfile:
        """The carrier profile driving timers and costs."""
        return self._profile

    @property
    def state(self) -> RadioState:
        """Current radio state (as of the last processed event)."""
        return self._state

    @property
    def now(self) -> float:
        """Time of the most recently processed event."""
        return self._now

    @property
    def intervals(self) -> Sequence[StateInterval]:
        """Timeline of completed state intervals."""
        return tuple(self._intervals)

    @property
    def switches(self) -> Sequence[SwitchEvent]:
        """All state switches recorded so far."""
        return tuple(self._switches)

    @property
    def promotion_count(self) -> int:
        """Number of Idle→Active promotions so far."""
        if self._fold:
            return self._fold_promotions
        return sum(1 for s in self._switches if s.is_promotion)  # repro-lint: allow[left-fold] reason=integer count; exact

    @property
    def demotion_count(self) -> int:
        """Number of demotions (timer or fast dormancy) so far."""
        if self._fold:
            return self._fold_timer_demotions + self._fold_fast_demotions
        return sum(1 for s in self._switches if s.is_demotion)  # repro-lint: allow[left-fold] reason=integer count; exact

    @property
    def timer_demotion_count(self) -> int:
        """Number of inactivity-timer demotions so far (either history mode)."""
        if self._fold:
            return self._fold_timer_demotions
        return sum(  # repro-lint: allow[left-fold] reason=integer count; exact
            1 for s in self._switches if s.kind is SwitchKind.TIMER_DEMOTION
        )

    @property
    def fast_demotion_count(self) -> int:
        """Number of fast-dormancy demotions so far (either history mode)."""
        if self._fold:
            return self._fold_fast_demotions
        return sum(  # repro-lint: allow[left-fold] reason=integer count; exact
            1 for s in self._switches if s.kind is SwitchKind.FAST_DORMANCY
        )

    @property
    def switch_count(self) -> int:
        """Total number of state switches so far."""
        if self._fold:
            return (self._fold_promotions + self._fold_timer_demotions
                    + self._fold_fast_demotions)
        return len(self._switches)

    @property
    def idle_since_last_activity(self) -> float:
        """Seconds elapsed since the last data activity."""
        return self._now - self._last_activity

    @property
    def finished(self) -> bool:
        """Whether the timeline is closed (or the machine was sealed)."""
        return self._finished

    def seal(self) -> None:
        """Refuse all further events without closing the timeline.

        Unlike :meth:`finish` this records and folds nothing — the
        machine is frozen exactly as it stands.  The kernel seals every
        machine of an aborted run so a partially-advanced timeline can
        neither be extended nor finished into something that looks
        complete.
        """
        self._finished = True

    @property
    def segment_start(self) -> float:
        """Start time of the current (still open) state segment.

        :meth:`finish` closes the timeline with the interval
        ``[segment_start, end_time]``; shard merging reads this to fold the
        same final interval at a globally resolved end time instead.
        """
        return self._segment_start

    @property
    def last_activity(self) -> float:
        """Time of the last timer-resetting data activity.

        Together with :attr:`segment_start` and :attr:`state` this pins
        down every pending timer demotion (:meth:`finish` applies them),
        letting shard merging replay the close at a globally resolved end
        time with the exact float arithmetic of ``_apply_timers``.
        """
        return self._last_activity

    # -- state transitions ------------------------------------------------------------

    def state_at(self, time: float) -> RadioState:
        """Return the state the radio *would* be in at ``time`` with no new activity.

        Does not mutate the machine; useful for policies peeking ahead.
        """
        self._check_time(time)
        if self._state is RadioState.ACTIVE:
            idle_for = time - self._last_activity
            if self._has_high_idle:
                if idle_for >= self._total_timeout:
                    return RadioState.IDLE
                if idle_for >= self._t1:
                    return RadioState.HIGH_IDLE
                return RadioState.ACTIVE
            return RadioState.IDLE if idle_for >= self._t1 else RadioState.ACTIVE
        if self._state is RadioState.HIGH_IDLE:
            # Demote after the remaining t2 counted from entering FACH,
            # which the timeline records as segment_start.
            if time - self._segment_start >= self._t2:
                return RadioState.IDLE
            return RadioState.HIGH_IDLE
        return self._state

    def advance_to(self, time: float) -> None:
        """Apply all timer-based demotions up to ``time`` (no new activity)."""
        self._check_time(time)
        self._apply_timers(time)
        self._now = time

    def notify_activity(self, time: float) -> bool:
        """Record data activity at ``time`` (trace time of the packet).

        Applies pending timer demotions first, then promotes the radio if it
        was Idle (recording a promotion switch) and finally returns the radio
        to Active, restarting the inactivity timer.  Returns ``True`` when
        the activity caused a promotion.
        """
        # Fast path: an Active radio whose t1 timer has not expired sees
        # no demotion and no promotion — only the clock and the activity
        # mark move.  The guard implies the ordering check (time >= now)
        # and exactly the no-op case of _apply_timers, so behaviour is
        # identical to the general path below.
        if (
            self._state is RadioState.ACTIVE
            and not self._finished
            and self._now <= time < self._last_activity + self._t1
        ):
            self._now = time
            self._last_activity = time
            return False
        self._check_time(time)
        self._apply_timers(time)
        promoted = False
        if self._state is RadioState.IDLE:
            self._record_switch(
                time,
                SwitchKind.PROMOTION,
                RadioState.IDLE,
                RadioState.ACTIVE,
                self._promotion_energy_j,
                self._promotion_delay_s,
            )
            self._transition(time, RadioState.ACTIVE)
            promoted = True
        elif self._state is RadioState.HIGH_IDLE:
            # Returning to the dedicated channel from FACH is cheap and the
            # paper does not count it as a signalling switch.
            self._transition(time, RadioState.ACTIVE)
        self._now = time
        self._last_activity = time
        return promoted

    def request_fast_dormancy(self, time: float) -> bool:
        """Demote the radio to Idle at ``time`` via fast dormancy.

        Returns ``True`` if a demotion actually happened (the radio was not
        already Idle).  The demotion is charged the fast-dormancy energy from
        the profile.
        """
        self._check_time(time)
        self._apply_timers(time)
        self._now = time
        if self._state is RadioState.IDLE:
            return False
        self._record_switch(
            time,
            SwitchKind.FAST_DORMANCY,
            self._state,
            RadioState.IDLE,
            self._demotion_energy_j,
            self._demotion_delay_s,
        )
        self._transition(time, RadioState.IDLE)
        return True

    def folded_state_totals(self) -> tuple[float, float, float, float,
                                           int, int, int]:
        """The folded history totals (``fold_history=True`` machines).

        Returns ``(active_time_s, high_idle_time_s, idle_time_s,
        switch_j, promotions, timer_demotions, fast_demotions)`` — the
        exact running sums that draining the recorded history and folding
        it interval by interval (the pre-overhaul streaming path) would
        have produced: same values, same addition order, bit-equal
        floats.
        """
        if not self._fold:
            raise RuntimeError(
                "folded_state_totals() requires fold_history=True; "
                "history-recording machines expose intervals/switches"
            )
        return (
            self._fold_active_s,
            self._fold_high_idle_s,
            self._fold_idle_s,
            self._fold_switch_j,
            self._fold_promotions,
            self._fold_timer_demotions,
            self._fold_fast_demotions,
        )

    def finish(self, end_time: float) -> None:
        """Close the timeline at ``end_time`` (applying any pending timers)."""
        self._check_time(end_time)
        self._apply_timers(end_time)
        if end_time > self._segment_start:
            if self._fold:
                self._fold_segment(end_time)
            else:
                self._intervals.append(
                    StateInterval(self._segment_start, end_time, self._state)
                )
            self._segment_start = end_time
        self._now = end_time
        self._finished = True

    # -- internals ---------------------------------------------------------------------

    def _check_time(self, time: float) -> None:
        if self._finished:
            raise RuntimeError("state machine already finished")
        if time < self._now:
            raise ValueError(
                f"events must be non-decreasing in time: {time} < {self._now}"
            )

    def _fold_segment(self, end: float) -> None:
        """Fold the completed interval ``[segment_start, end)`` into the totals.

        The duration expression (``end - start``) and the state buckets
        match :class:`StateInterval.duration` and the downstream
        per-state fold exactly, so folding here is bit-equal to recording
        the interval and summing it later.  The machine itself only ever
        occupies Active / High-idle / Idle (``PROMOTING`` is a
        power-model state, not a machine state).
        """
        duration = end - self._segment_start
        state = self._state
        if state is RadioState.ACTIVE or state is RadioState.PROMOTING:
            self._fold_active_s += duration
        elif state is RadioState.HIGH_IDLE:
            self._fold_high_idle_s += duration
        elif state is RadioState.IDLE:
            self._fold_idle_s += duration

    def _transition(self, time: float, new_state: RadioState) -> None:
        if time > self._segment_start:
            if self._fold:
                self._fold_segment(time)
            else:
                self._intervals.append(
                    StateInterval(self._segment_start, time, self._state)
                )
        self._state = new_state
        self._segment_start = time

    def _record_switch(
        self,
        time: float,
        kind: SwitchKind,
        from_state: RadioState,
        to_state: RadioState,
        energy: float,
        delay: float,
    ) -> None:
        if self._fold:
            self._fold_switch_j += energy
            if kind is SwitchKind.PROMOTION:
                self._fold_promotions += 1
            elif kind is SwitchKind.TIMER_DEMOTION:
                self._fold_timer_demotions += 1
            else:
                self._fold_fast_demotions += 1
            return
        self._switches.append(
            SwitchEvent(time, kind, from_state, to_state, energy, delay)
        )

    def _apply_timers(self, time: float) -> None:
        """Insert timer-based demotions that occur strictly before ``time``."""
        if self._state is RadioState.ACTIVE:
            demote_at = self._last_activity + self._t1
            if time >= demote_at:
                if self._has_high_idle:
                    self._record_switch(
                        demote_at, SwitchKind.TIMER_DEMOTION,
                        RadioState.ACTIVE, RadioState.HIGH_IDLE, 0.0, 0.0,
                    )
                    self._transition(demote_at, RadioState.HIGH_IDLE)
                    idle_at = demote_at + self._t2
                    if time >= idle_at:
                        self._record_switch(
                            idle_at, SwitchKind.TIMER_DEMOTION,
                            RadioState.HIGH_IDLE, RadioState.IDLE, 0.0, 0.0,
                        )
                        self._transition(idle_at, RadioState.IDLE)
                else:
                    self._record_switch(
                        demote_at, SwitchKind.TIMER_DEMOTION,
                        RadioState.ACTIVE, RadioState.IDLE, 0.0, 0.0,
                    )
                    self._transition(demote_at, RadioState.IDLE)
        elif self._state is RadioState.HIGH_IDLE:
            idle_at = self._segment_start + self._t2
            if time >= idle_at:
                self._record_switch(
                    idle_at, SwitchKind.TIMER_DEMOTION,
                    RadioState.HIGH_IDLE, RadioState.IDLE, 0.0, 0.0,
                )
                self._transition(idle_at, RadioState.IDLE)
