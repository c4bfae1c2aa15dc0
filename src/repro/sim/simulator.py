"""Trace-driven RRC simulator (single-UE façade over the event kernel).

The simulator replays a packet trace against an
:class:`~repro.rrc.state_machine.RrcStateMachine` under the control of a
:class:`~repro.core.policy.RadioPolicy`, producing the radio timeline,
switch events, effective (possibly MakeActive-delayed) packet times, energy
breakdown, per-gap demotion decisions and per-session delays that the
evaluation metrics consume.  This mirrors the paper's methodology: all
results in Section 6 come from trace-driven simulation over collected
packet traces with the measured carrier constants.

Since the kernel refactor, :class:`TraceSimulator` is a thin façade over
:class:`~repro.sim.engine.SimulationEngine` — the same heap-based event
kernel that powers the multi-device
:class:`~repro.basestation.cell.CellSimulator` — so the replay semantics
below are implemented exactly once.

Semantics
---------

* **Demotion (MakeIdle side).** After every transferred packet the policy is
  asked for a waiting time; if no further packet arrives within that wait, a
  fast-dormancy request is issued at ``packet_time + wait``.  A ``None``
  answer leaves demotion to the carrier's inactivity timers, which the state
  machine applies automatically.
* **Promotion delaying (MakeActive side).** When a packet arrives for an
  Idle radio and it starts a new session (its flow has been quiet for at
  least the carrier's ``t1 + t2``), the policy may return a positive delay.
  The session — and every further session starting within the window — is
  buffered and released together at the end of the window; buffered packets
  are emitted at the release time.  A packet belonging to an *ongoing*
  session (e.g. one whose radio was demoted mid-transfer) is never delayed:
  it forces an immediate release.  Packets of a delayed session that
  originally fall after the release time keep their own timestamps, so a
  delayed session is compressed toward its release rather than shifted as a
  rigid block; the difference only affects intra-burst spacing, which the
  per-second energy model is insensitive to (documented in
  ``docs/DESIGN.md``).
* **Trailing tail.** After the last packet the simulation keeps running for
  ``t1 + t2`` plus one second so that the final tail (which the status quo
  pays and the proposed schemes mostly avoid) is charged fairly.

Tie-breaks and degenerate inputs
--------------------------------

(See ``docs/DESIGN.md`` for the rationale behind each rule.)

* A fast-dormancy demotion scheduled at *exactly* a packet's arrival time
  fires **strictly before** the packet is processed: the demotion was
  scheduled first (the policy's wait elapsed), so the radio demotes to Idle
  at that instant and the packet immediately promotes it again, paying the
  promotion cost.  Only a packet arriving *strictly before* the scheduled
  time cancels the demotion.
* An **empty trace** produces a well-defined zero run: a zero-duration
  timeline, no switches, no energy.  No trailing tail is charged, because a
  radio that never left Idle has no tail to pay.  This is the kernel's
  ordinary end-time rule, not a special case: a run that never emits a
  packet closes at its last processed event, which for an empty trace is
  t=0.
"""

from __future__ import annotations

from ..core.policy import RadioPolicy
from ..rrc.profiles import CarrierProfile
from ..rrc.state_machine import SwitchEvent
from ..rrc.states import RadioState
from ..traces.packet import PacketTrace
from .engine import SimulationEngine
from .results import GapDecision, SimulationResult

__all__ = ["TraceSimulator"]


class TraceSimulator:
    """Replays packet traces against the RRC machine under a control policy.

    Any :class:`CarrierProfile` runs here, including ablated variants of a
    registered carrier and profiles the registry does not know; the plan
    API's runners and cache take registered carriers only, and the figure
    drivers run an ablated variant's grid here, uncached.

    Parameters
    ----------
    profile:
        Carrier profile providing timers, powers and switch costs.
    session_idle_gap:
        Quiet time after which a flow's next packet counts as a *new
        session* (and is therefore eligible for MakeActive delaying).
        Defaults to the carrier's ``t1 + t2``.
    trailing_time:
        Extra simulated time after the last packet so the final tail is
        accounted; defaults to ``t1 + t2 + 1`` seconds.
    """

    def __init__(
        self,
        profile: CarrierProfile,
        session_idle_gap: float | None = None,
        trailing_time: float | None = None,
    ) -> None:
        self._engine = SimulationEngine(
            profile,
            session_idle_gap=session_idle_gap,
            trailing_time=trailing_time,
        )

    @property
    def profile(self) -> CarrierProfile:
        """The carrier profile this simulator uses."""
        return self._engine.profile

    @property
    def engine(self) -> SimulationEngine:
        """The shared event kernel this façade drives."""
        return self._engine

    def run(self, trace: PacketTrace, policy: RadioPolicy) -> SimulationResult:
        """Simulate ``trace`` under ``policy`` and return the run's results."""
        policy.prepare(trace, self._engine.profile)
        policy.reset()
        return self._engine.run_single(trace, policy)


def _gap_decisions(
    effective_trace: PacketTrace, switches: tuple[SwitchEvent, ...] | list[SwitchEvent]
) -> list[GapDecision]:
    """Per inter-packet gap, whether the radio was demoted to Idle inside it."""
    demotion_times = sorted(
        s.time for s in switches if s.is_demotion and s.to_state is RadioState.IDLE
    )
    decisions: list[GapDecision] = []
    timestamps = effective_trace.timestamps
    cursor = 0
    for start, end in zip(timestamps, timestamps[1:]):
        while cursor < len(demotion_times) and demotion_times[cursor] < start:
            cursor += 1
        switched = cursor < len(demotion_times) and demotion_times[cursor] < end
        decisions.append(GapDecision(time=start, gap=end - start, switched=switched))
    return decisions
