"""MakeIdle: online prediction of when to demote the radio (paper Section 4).

After every packet the algorithm asks: *is this the end of a burst?*  It
cannot know, so it models the time until the next packet with the empirical
distribution of the last ``n`` inter-arrival times (a sliding window,
``n = 100`` by default — Figure 13 sweeps this) and picks the waiting time
``t_wait`` that maximises the expected energy gain of the strategy "wait
``t_wait`` seconds; if still silent, trigger fast dormancy":

* the cost of that strategy, for a next-packet gap ``G`` drawn from the
  window, is ``E(G)`` when the packet arrives during the wait (``G <= t_wait``
  — no switch happens) and ``E(t_wait) + E_switch`` when it does not;
* the cost of doing nothing is the status-quo tail energy ``E(G)`` (which
  already includes the switch cost for gaps longer than ``t1 + t2``);
* ``f(t_wait)`` is the expected difference, and MakeIdle schedules a demotion
  after ``t_wait* = argmax f`` seconds of silence whenever the maximum gain
  is positive.

This is the energy-based formalisation of the paper's two-step description:
the conditional probability ``P(no packet within t_wait + t_threshold | no
packet within t_wait)`` enters through the expectation over the window, and
"high enough" is defined — exactly as in the paper — by comparing expected
energies rather than by a fixed probability cut-off.

The candidate ``t_wait`` values are restricted to ``[0, t_threshold]``: the
paper observes that waiting longer than ``t_threshold`` leaves little room
for saving (the tail has already been mostly paid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..energy.model import TailEnergyModel, WaitEvaluator, wait_evaluator
from ..folds import left_fold
from ..rrc.profiles import CarrierProfile
from ..traces.packet import Packet, PacketTrace
from ..traces.stats import SlidingWindowDistribution
from .policy import RadioPolicy

__all__ = ["MakeIdlePolicy", "WaitDecision"]

#: Default number of recent packets whose inter-arrival times form the window.
DEFAULT_WINDOW_SIZE = 100

#: Default number of candidate waiting times evaluated in [0, t_threshold].
DEFAULT_CANDIDATE_COUNT = 24


@dataclass(frozen=True)
class WaitDecision:
    """One MakeIdle decision: the chosen wait and its expected gain."""

    time: float
    wait: float | None
    expected_gain: float

    @property
    def switched(self) -> bool:
        """Whether the decision schedules a demotion."""
        return self.wait is not None


class MakeIdlePolicy(RadioPolicy):
    """Adaptive fast-dormancy policy driven by recent inter-arrival times.

    Parameters
    ----------
    window_size:
        Number of recent inter-arrival samples kept (the paper's ``n``).
    candidate_count:
        Resolution of the ``t_wait`` grid over ``[0, t_threshold]``.
    min_samples:
        Minimum number of window samples before the policy starts issuing
        demotion decisions; below this it behaves like the status quo.
    """

    name = "makeidle"

    def __init__(
        self,
        window_size: int = DEFAULT_WINDOW_SIZE,
        candidate_count: int = DEFAULT_CANDIDATE_COUNT,
        min_samples: int = 5,
    ) -> None:
        if window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {window_size}")
        if candidate_count < 2:
            raise ValueError(f"candidate_count must be >= 2, got {candidate_count}")
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        self._window_size = window_size
        self._candidate_count = candidate_count
        self._min_samples = min_samples
        self._window = SlidingWindowDistribution(window_size)
        self._model: TailEnergyModel | None = None
        self._evaluator: WaitEvaluator | None = None
        self._history: list[WaitDecision] = []

    # -- configuration / state views -----------------------------------------------------

    @property
    def window_size(self) -> int:
        """The sliding-window length ``n``."""
        return self._window_size

    @property
    def t_threshold(self) -> float:
        """The offline threshold of the prepared profile (0 before prepare)."""
        return self._model.t_threshold if self._model else 0.0

    @property
    def wait_history(self) -> tuple[WaitDecision, ...]:
        """Every decision taken so far (drives Figure 14)."""
        return tuple(self._history)

    @property
    def window(self) -> SlidingWindowDistribution:
        """The sliding inter-arrival window (exposed for inspection/tests)."""
        return self._window

    # -- policy hooks ----------------------------------------------------------------------

    def prepare(self, trace: PacketTrace, profile: CarrierProfile) -> None:
        self._evaluator = wait_evaluator(profile, self._candidate_count)
        self._model = self._evaluator.model

    def reset(self) -> None:
        self._window.reset()
        self._history.clear()

    def observe_packet(self, time: float, packet: Packet) -> None:
        self._window.observe(time)

    def dormancy_wait(self, now: float) -> float | None:
        if self._model is None:
            raise RuntimeError("MakeIdlePolicy.prepare() must be called before use")
        if not self._window.is_warm(self._min_samples):
            self._history.append(WaitDecision(now, None, 0.0))
            return None
        wait, gain = self.best_wait()
        decision = WaitDecision(now, wait if gain > 0 else None, gain)
        self._history.append(decision)
        return decision.wait

    def dormancy_waits(self, times: Sequence[float]) -> list[float | None]:
        """``observe_packet``, then ``dormancy_wait``, at every one of ``times``.

        Returns the waits those calls would return, in order, and leaves
        :attr:`window` and :attr:`wait_history` as they would: the window
        records the same gaps (``t[k] - t[k-1]``), and every packet gets
        its ``WaitDecision(time, wait, gain)``.  The decision at a packet
        sees the window's last ``min(seen, window_size)`` of the ``seen``
        gaps observed by then and is warm iff that count reaches
        ``min_samples``; the warm decisions are scored together by
        :meth:`WaitEvaluator.best_waits`.  The vector cell kernel replays
        a device's wait sequence from here (:mod:`repro.sim.vector_engine`).
        """
        evaluator = self._evaluator
        if evaluator is None:
            raise RuntimeError("MakeIdlePolicy.prepare() must be called before use")
        gaps = list(self._window.samples)
        gaps += self._window.observe_all(times)
        # The decision at times[k] has seen first_seen + k gaps.
        first_seen = len(gaps) - len(times) + 1
        cold = len(times)
        if self._window_size >= self._min_samples:
            cold = min(cold, max(0, self._min_samples - first_seen))
        waits, gains = evaluator.best_waits(
            gaps, first_seen + cold, self._window_size
        )
        history = self._history
        decided: list[float | None] = [None] * cold
        history.extend(WaitDecision(time, None, 0.0) for time in times[:cold])
        for time, wait, gain in zip(times[cold:], waits, gains):
            chosen = wait if gain > 0 else None
            history.append(WaitDecision(time, chosen, gain))
            decided.append(chosen)
        return decided

    # -- the decision computation ------------------------------------------------------------

    def best_wait(self) -> tuple[float, float]:
        """Return ``(t_wait*, f(t_wait*))`` under the current window.

        ``f`` is the expected status-quo cost minus the expected cost of
        waiting then switching; a positive value means switching is expected
        to pay off.  The window's samples are read now, so gaps pushed
        through :attr:`window` count (see
        :class:`~repro.energy.model.WaitEvaluator`).
        """
        evaluator = self._evaluator
        if evaluator is None:
            raise RuntimeError("MakeIdlePolicy.prepare() must be called before use")
        return evaluator.best_wait(self._window.samples)

    def expected_gain(self, wait: float) -> float:
        """``f(wait)`` for an arbitrary waiting time (diagnostic helper)."""
        model = self._model
        if model is None:
            raise RuntimeError("MakeIdlePolicy.prepare() must be called before use")
        gaps = self._window.samples
        if not gaps:
            return 0.0
        status_quo_cost = left_fold(model.tail_energy(g) for g in gaps) / len(gaps)
        switch_cost = model.wait_energy(wait) + model.switch_energy
        # A packet that arrives during the wait pays the tail until it
        # arrives and no switch happens.
        cost = left_fold(
            model.wait_energy(g) if g <= wait else switch_cost for g in gaps
        )
        return status_quo_cost - cost / len(gaps)

    def conditional_no_packet_probability(self, wait: float) -> float:
        """The paper's ``P(t_wait)``: P(no packet in wait + t_threshold | none in wait)."""
        threshold = self.t_threshold
        return self._window.probability_no_packet(wait, threshold)
