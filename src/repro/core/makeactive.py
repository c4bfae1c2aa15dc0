"""MakeActive: delaying promotions to batch sessions (paper Section 5).

MakeIdle saves energy by demoting the radio aggressively, but that raises
the number of Idle→Active promotions — signalling overhead the network
operator cares about.  MakeActive attacks the overhead: when a new session
wants to start while the radio is Idle, it holds the session for a bounded
delay so that other sessions arriving in that window can share a single
promotion.  Only background (delay-tolerant) traffic should be subjected to
this; the evaluation's "MakeIdle only" configuration models the case where
all traffic is delay-sensitive.

Two variants are implemented, as in the paper:

* :class:`FixedDelayMakeActive` — the strawman: always hold the first
  session for ``T_fix_delay = k (t1 + t2)`` seconds, where ``k`` is the
  average number of bursts per radio active period observed in the trace.
* :class:`LearningMakeActive` — a bank-of-experts learner (Fixed-Share under
  a Learn-α top layer).  Expert ``i`` proposes a delay of ``i`` seconds; the
  delay actually used is the weighted average of the experts; after each
  release the experts are scored with the loss
  ``L(i) = γ·Delay(T_i) + 1/b`` and the weights updated.  The learner keeps
  roughly the same number of promotions as the fixed bound while halving
  the per-burst delay (Figure 15), and Figure 16 shows the learned delay
  shrinking as the number of buffered bursts grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..learning.learn_alpha import LearnAlpha, default_alpha_grid
from ..learning.loss import DEFAULT_GAMMA, MakeActiveLoss, check_bound
from ..energy.model import TailEnergyModel
from ..folds import left_fold
from ..rrc.profiles import CarrierProfile
from ..traces.bursts import bursts_per_active_period
from ..traces.packet import PacketTrace
from .policy import RadioPolicy

__all__ = [
    "FixedDelayMakeActive",
    "LearningMakeActive",
    "LearningRecord",
    "compute_fixed_delay_bound",
]

#: Upper bound (seconds) on any MakeActive delay, fixed or learned.  The paper
#: speaks of "delays of a few seconds"; 12 s bounds the expert grid and the
#: fixed rule alike so no background session is ever held longer than this.
MAX_DELAY_BOUND = 12.0


def compute_fixed_delay_bound(
    trace: PacketTrace, profile: CarrierProfile, max_delay: float = MAX_DELAY_BOUND
) -> float:
    """``T_fix_delay = k (t1 + t2)`` with ``k`` estimated from the trace.

    ``k`` is the average number of bursts per radio active period
    (Section 5.1); bursts are segmented at the profile's ``t_threshold`` and
    active periods at ``t1 + t2``.  The result is clamped to
    ``[0.5, max_delay]`` seconds so the delay stays within the "few seconds"
    regime the paper targets for background traffic.
    """
    if len(trace) < 2:
        return min(profile.total_inactivity_timeout, max_delay)
    threshold = TailEnergyModel(profile).t_threshold
    k = bursts_per_active_period(
        trace, burst_gap=threshold, active_window=profile.total_inactivity_timeout
    )
    bound = k * profile.total_inactivity_timeout
    return max(0.5, min(bound, max_delay))


class FixedDelayMakeActive(RadioPolicy):
    """Hold each new idle-time session for a fixed delay bound.

    Parameters
    ----------
    delay_bound:
        Explicit delay bound in seconds.  When ``None`` (the default) the
        bound is computed from the trace in :meth:`prepare` via
        :func:`compute_fixed_delay_bound`.
    """

    name = "makeactive_fixed"

    def __init__(self, delay_bound: float | None = None) -> None:
        if delay_bound is not None:
            check_bound(delay_bound)
        self._explicit_bound = delay_bound
        self._bound = delay_bound if delay_bound is not None else 0.0
        # Without an explicit bound, prepare() derives one from the trace.
        self.requires_trace = delay_bound is None

    @property
    def delay_bound(self) -> float:
        """The delay bound currently in effect."""
        return self._bound

    def prepare(self, trace: PacketTrace, profile: CarrierProfile) -> None:
        if self._explicit_bound is None:
            self._bound = compute_fixed_delay_bound(trace, profile)

    def activation_delay(self, now: float) -> float:
        return self._bound


@dataclass(frozen=True)
class LearningRecord:
    """One MakeActive learning iteration (drives Figure 16)."""

    iteration: int
    time: float
    delay_used: float
    buffered_sessions: int
    mean_session_delay: float


class LearningMakeActive(RadioPolicy):
    """Bank-of-experts MakeActive with Learn-α adaptation.

    Parameters
    ----------
    max_delay:
        Largest delay any expert proposes; experts propose 1, 2, …,
        ``ceil(max_delay)`` seconds as in the paper's appendix.
    gamma:
        Weight of the aggregate-delay term in the loss (paper: 0.008).
    alphas:
        Switching rates of the α-experts; defaults to a log-spaced grid.
    """

    name = "makeactive_learn"

    def __init__(
        self,
        max_delay: float = MAX_DELAY_BOUND,
        gamma: float = DEFAULT_GAMMA,
        alphas: Sequence[float] | None = None,
    ) -> None:
        if not 1.0 <= max_delay < math.inf:  # NaN and inf fail here, not in ceil
            raise ValueError(
                f"max_delay must be finite and at least 1 second, got {max_delay}"
            )
        expert_values = tuple(float(i) for i in range(1, int(math.ceil(max_delay)) + 1))
        self._learner = LearnAlpha(
            expert_values, alphas if alphas is not None else default_alpha_grid()
        )
        self._loss = MakeActiveLoss(gamma=gamma)
        self._history: list[LearningRecord] = []
        # The delay proposed by the most recent activation_delay() call,
        # consumed (set back to None) by the on_release() it paired with.
        # None means "no outstanding decision": a release that never
        # consulted the learner must not record a stale proposal.
        self._pending_delay: float | None = None

    # -- views -------------------------------------------------------------------------

    @property
    def learner(self) -> LearnAlpha:
        """The underlying two-layer learner (exposed for inspection/tests)."""
        return self._learner

    @property
    def history(self) -> tuple[LearningRecord, ...]:
        """Per-iteration records of the learned delay and buffered-session count."""
        return tuple(self._history)

    @property
    def current_delay(self) -> float:
        """The delay the learner would propose right now."""
        return self._learner.predict()

    # -- policy hooks -------------------------------------------------------------------

    def reset(self) -> None:
        self._learner.reset()
        self._history.clear()
        self._pending_delay = None

    def learning_records(self) -> Sequence[LearningRecord]:
        return tuple(self._history)

    def activation_delay(self, now: float) -> float:
        self._pending_delay = self._learner.predict()
        return self._pending_delay

    def on_release(self, release_time: float, arrival_times: Sequence[float]) -> None:
        if not arrival_times:
            return
        # Score and learn before anything else moves: a refused loss row
        # leaves the learner, the history and the pending proposal as they were.
        first = arrival_times[0]
        offsets = [t - first for t in arrival_times]
        self._learner.update(self._loss.row(self._learner.expert_values, offsets))
        # Pair this release with the decision that opened its buffer window;
        # a release the learner was never asked about (no activation_delay
        # since the last release) records the realised delay instead of the
        # stale previous proposal.
        pending = self._pending_delay
        self._pending_delay = None
        delay_used = pending if pending is not None else release_time - first
        delays = [release_time - t for t in arrival_times]
        self._history.append(
            LearningRecord(
                iteration=len(self._history) + 1,
                time=release_time,
                delay_used=delay_used,
                buffered_sessions=len(arrival_times),
                mean_session_delay=left_fold(delays) / len(delays),
            )
        )
