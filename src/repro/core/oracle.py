"""Oracle policy: the offline-optimal demotion rule of Section 4.1.

Given the full packet trace, the optimal (no-delay) decision after each
packet is simple: demote immediately if and only if the gap to the next
packet exceeds ``t_threshold``, the point where the switch round-trip energy
``E_switch`` becomes cheaper than riding the inactivity timers (the paper
proves ``E(t)`` is non-decreasing so the rule is a threshold rule).

The Oracle provides the upper bound on savings achievable *without delaying
any traffic* and also serves as the ground truth against which the false
switch / missed switch rates of the online algorithms are computed
(Figure 12).
"""

from __future__ import annotations

import bisect

from ..energy.model import TailEnergyModel
from ..rrc.profiles import CarrierProfile
from ..traces.packet import PacketTrace
from .policy import RadioPolicy

__all__ = ["OraclePolicy"]


class OraclePolicy(RadioPolicy):
    """Offline-optimal MakeIdle: switch exactly when the coming gap warrants it.

    The policy reads the full trace in :meth:`prepare` (this is what makes
    it an oracle) and, after each packet, demotes immediately when the next
    packet is more than ``t_threshold`` seconds away.  It never delays
    promotions, so its savings are the paper's "maximum achievable energy
    savings without delaying any traffic".
    """

    name = "oracle"

    def __init__(self) -> None:
        self._timestamps: tuple[float, ...] = ()
        self._threshold: float = 0.0

    @property
    def t_threshold(self) -> float:
        """The offline-optimal gap threshold for the prepared profile."""
        return self._threshold

    #: The oracle reads the whole trace ahead of time, by definition.
    requires_trace = True

    def prepare(self, trace: PacketTrace, profile: CarrierProfile) -> None:
        self._timestamps = trace.timestamps
        self._threshold = TailEnergyModel(profile).t_threshold

    def reset(self) -> None:
        # Trace knowledge is (re)installed by prepare(); nothing per-run.
        pass

    def dormancy_wait(self, now: float) -> float | None:
        """Demote immediately iff no packet arrives within ``t_threshold`` of ``now``.

        ``now`` is the effective time of the packet just transferred; the
        oracle looks up the next original timestamp strictly after ``now``.
        If the trace is exhausted the oracle switches (there will never be
        another packet).
        """
        index = bisect.bisect_right(self._timestamps, now)
        if index >= len(self._timestamps):
            return 0.0
        gap = self._timestamps[index] - now
        return 0.0 if gap > self._threshold else None
