"""Radio control policy interface.

A *policy* is the decision-making part of the paper's control module
(Figure 4).  Policies are driven by the event kernel
(:mod:`repro.sim.engine`) — identically whether the policy's device is the
only UE of a :class:`~repro.sim.TraceSimulator` run or one of thousands in
a :class:`~repro.basestation.cell.CellSimulator` cell (where a granted
``dormancy_wait`` additionally passes through the base station's
:class:`~repro.basestation.policies.DormancyPolicy`).  The kernel asks the
policy two questions:

* **After a packet** — should the radio be demoted early via fast dormancy,
  and if so after how long a silent wait?  (:meth:`RadioPolicy.dormancy_wait`)
  Returning ``None`` leaves the demotion to the network's inactivity timers,
  which is what the status quo does.
* **When a new session arrives while the radio is Idle** — should the
  promotion be delayed so further sessions can be batched into it, and by
  how much?  (:meth:`RadioPolicy.activation_delay`)  Returning ``0`` promotes
  immediately.

Policies additionally observe every packet (:meth:`RadioPolicy.observe_packet`)
so online learners can build their models, receive a callback when a batch
of buffered sessions is released (:meth:`RadioPolicy.on_release`), and may
inspect the whole trace before the run starts (:meth:`RadioPolicy.prepare`)
— the Oracle and the trace-trained baselines use this, and the paper
explicitly notes it grants those baselines "significant leeway".
"""

from __future__ import annotations

from typing import Sequence

from ..rrc.profiles import CarrierProfile
from ..traces.packet import Packet, PacketTrace

__all__ = ["RadioPolicy", "StatusQuoPolicy"]


class RadioPolicy:
    """Base class for radio control policies.

    The default implementation is exactly the status quo: never trigger
    fast dormancy, never delay a promotion.  Subclasses override the
    decision hooks they care about.
    """

    #: Human-readable policy name used in result tables.
    name: str = "policy"

    #: Whether :meth:`prepare` reads the *trace* (offline/oracle policies) —
    #: as opposed to only the profile.  A cell device whose policy sets it
    #: has its lazy packet source materialised for that device alone
    #: (:meth:`~repro.basestation.cell.CellSimulator.run_shard`), and its
    #: policy instance counts as per-device state.  May be overridden per
    #: instance (e.g. a policy that only falls back to trace statistics
    #: when no explicit parameter was given).
    requires_trace: bool = False

    def prepare(self, trace: PacketTrace, profile: CarrierProfile) -> None:
        """Inspect the full trace and carrier profile before the run starts.

        The one preparation hook.  Online policies should only read the
        *profile* (power constants, timers): a cell device on a lazy
        packet source is prepared with an empty trace.  Policies that set
        :attr:`requires_trace` may also read the trace, and always get
        their device's whole trace.  The default does nothing.
        """

    def learning_records(self) -> Sequence[object]:
        """Per-iteration learning records accumulated during the run.

        Online learners (e.g. ``LearningMakeActive``) return their history
        so cell results can expose learning-curve columns; stateless
        policies return an empty sequence.
        """
        return ()

    def reset(self) -> None:
        """Clear all per-run state so the policy can be reused on another trace."""

    def observe_packet(self, time: float, packet: Packet) -> None:
        """Record that a packet was transferred at ``time`` (effective trace time)."""

    def dormancy_wait(self, now: float) -> float | None:
        """How long to wait (seconds of silence) before demoting the radio.

        Called immediately after each transferred packet, with ``now`` set to
        that packet's effective time.  Return ``None`` to leave the demotion
        to the network's inactivity timers, or a non-negative number of
        seconds: if no further packet arrives within that wait, the simulator
        issues a fast-dormancy request at ``now + wait``.
        """
        return None

    def activation_delay(self, now: float) -> float:
        """How long to buffer a new session that arrived while the radio is Idle.

        Return ``0`` to promote immediately.  A positive value ``D`` makes
        the simulator hold the session (and any further sessions arriving in
        the window) until ``now + D`` and promote once for all of them.
        """
        return 0.0

    def on_release(self, release_time: float, arrival_times: Sequence[float]) -> None:
        """Callback when buffered sessions are released at ``release_time``.

        ``arrival_times`` holds the original arrival time of each buffered
        session start; learning policies use these to compute their loss.
        """


class StatusQuoPolicy(RadioPolicy):
    """The deployed behaviour: rely purely on the network's inactivity timers.

    This is the baseline every scheme's energy saving and signalling overhead
    is measured against ("status quo" throughout the paper's evaluation).
    """

    name = "status_quo"
