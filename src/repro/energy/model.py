"""The paper's simplified power model: tail energy E(t) and t_threshold.

Section 4.1 of the paper models the energy spent between two adjacent
packets separated by ``t`` seconds, under the status-quo RRC timers, as the
piecewise function

.. math::

    E(t) = \\begin{cases}
        t \\, P_{t1}                                   & 0 < t \\le t_1 \\\\
        t_1 P_{t1} + (t - t_1) P_{t2}                  & t_1 < t \\le t_1 + t_2 \\\\
        t_1 P_{t1} + t_2 P_{t2} + E_{switch}           & t > t_1 + t_2
    \\end{cases}

where ``P_t1`` and ``P_t2`` are the Active and High-power-idle tail powers
and ``E_switch`` is the cost of one demotion plus the promotion needed for
the next packet.  Switching to Idle immediately after the first packet
instead costs exactly ``E_switch``; it pays off iff ``E_switch < E(t)``,
and because ``E(t)`` is non-decreasing there is a unique threshold
``t_threshold`` such that switching wins exactly when ``t > t_threshold``.

:class:`TailEnergyModel` implements ``E(t)``, its derivative-free expected
value under an empirical gap distribution, and the closed-form
``t_threshold``; :class:`WaitEvaluator` is the online MakeIdle predictor's
search for the best waiting time under such a distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

try:  # numpy is optional: without it WaitEvaluator runs its reference loop
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional dependency
    _np = None

from ..folds import left_fold
from ..rrc.profiles import CarrierProfile

__all__ = [
    "TailEnergyModel",
    "WaitEvaluator",
    "wait_evaluator",
]

#: :meth:`WaitEvaluator.best_waits` scores at most this many windows per
#: numpy pass, so a device of any length holds a bounded cost matrix.
_WINDOW_CHUNK = 4096


@dataclass(frozen=True)
class TailEnergyModel:
    """Piecewise tail-energy model ``E(t)`` for one carrier profile."""

    profile: CarrierProfile

    # -- the piecewise model -------------------------------------------------------

    def tail_energy(self, gap: float) -> float:
        """``E(t)``: energy spent idling between two packets ``gap`` seconds apart.

        Under the status-quo timers the radio stays in Active for up to
        ``t1`` seconds, then (if the carrier has a FACH-like state) in
        High-power idle for up to ``t2`` seconds, then demotes to Idle; if
        the demotion happened, the next packet additionally pays the
        promotion (the full ``E_switch`` round trip is charged here, as in
        the paper's formulation).
        """
        if gap < 0:
            raise ValueError(f"gap must be non-negative, got {gap}")
        p = self.profile
        if gap <= p.t1:
            return gap * p.power_active_w
        if gap <= p.t1 + p.t2:
            return p.t1 * p.power_active_w + (gap - p.t1) * p.power_high_idle_w
        full_tail = p.t1 * p.power_active_w + p.t2 * p.power_high_idle_w
        return full_tail + p.switch_energy_j

    def wait_energy(self, wait: float) -> float:
        """Energy spent keeping the radio on for ``wait`` seconds after a packet.

        This is the cost MakeIdle pays while it waits to gain confidence
        that the burst has ended; it follows the same Active→High-idle
        power schedule as :meth:`tail_energy` but never includes the switch
        cost (the caller adds ``E_switch`` explicitly when it decides to
        demote).
        """
        if wait < 0:
            raise ValueError(f"wait must be non-negative, got {wait}")
        p = self.profile
        if wait <= p.t1:
            return wait * p.power_active_w
        if wait <= p.t1 + p.t2:
            return p.t1 * p.power_active_w + (wait - p.t1) * p.power_high_idle_w
        return p.t1 * p.power_active_w + p.t2 * p.power_high_idle_w

    @property
    def switch_energy(self) -> float:
        """``E_switch``: demote-then-promote round-trip energy, joules."""
        return self.profile.switch_energy_j

    @property
    def full_tail_energy(self) -> float:
        """Energy of riding out both inactivity timers once (no switch cost)."""
        p = self.profile
        return p.t1 * p.power_active_w + p.t2 * p.power_high_idle_w

    # -- the offline-optimal threshold ------------------------------------------------

    @property
    def t_threshold(self) -> float:
        """The gap above which demoting immediately beats staying on.

        Solves ``E(t) = E_switch`` on the piecewise-linear model.  If the
        switch energy exceeds even the full tail (pathological profile),
        the threshold is the total timeout ``t1 + t2`` — switching then
        only wins when the status quo would have switched anyway.
        """
        p = self.profile
        e_switch = p.switch_energy_j
        if p.power_active_w > 0 and e_switch <= p.t1 * p.power_active_w:
            return e_switch / p.power_active_w
        remaining = e_switch - p.t1 * p.power_active_w
        if p.power_high_idle_w > 0 and remaining <= p.t2 * p.power_high_idle_w:
            return p.t1 + remaining / p.power_high_idle_w
        return p.t1 + p.t2

    def switch_beneficial(self, gap: float) -> bool:
        """Whether demoting immediately saves energy for a gap of ``gap`` seconds."""
        return gap > self.t_threshold

    # -- expectations under an empirical gap distribution -----------------------------

    def expected_no_switch_energy(self, gaps: Iterable[float]) -> float:
        """E[E_no_switch]: expected status-quo tail energy under observed gaps.

        This approximates the integral in the paper's Equation (1) with the
        empirical distribution of the recent inter-arrival times; gaps longer
        than ``t1 + t2`` contribute the full capped tail (the integral's
        upper limit).
        """
        gap_list = [g for g in gaps if g >= 0]
        if not gap_list:
            return 0.0
        cap = self.profile.t1 + self.profile.t2
        total = left_fold(self.wait_energy(min(g, cap)) for g in gap_list)
        return total / len(gap_list)

    def expected_wait_switch_energy(self, wait: float) -> float:
        """E[E_wait_switch]: cost of waiting ``wait`` seconds and then demoting."""
        return self.switch_energy + self.wait_energy(wait)

    def expected_gain(self, wait: float, gaps: Sequence[float]) -> float:
        """``f(t_wait)`` from the paper: expected saving of wait-then-switch.

        Positive values mean that waiting ``wait`` seconds and then issuing
        fast dormancy is expected to beat letting the inactivity timers run.
        """
        return self.expected_no_switch_energy(gaps) - self.expected_wait_switch_energy(wait)


class WaitEvaluator:
    """MakeIdle's ``t_wait`` search: every candidate against a gap window.

    For each candidate wait ``w`` on the grid ``0, step, ..., t_threshold``
    the expected gain is the status-quo cost ``mean E(g)`` minus the
    wait-then-switch cost ``mean(E_wait(g) if g <= w else E_wait(w) +
    E_switch)`` over the window's gaps ``g`` (optionally weighted); the
    search returns the first candidate with the largest gain.

    :meth:`best_wait` scores the whole ``candidates × gaps`` matrix in one
    numpy pass whose decisions are byte-identical to :meth:`best_wait_loop`,
    the candidate-by-candidate reference that runs when numpy is missing
    (DESIGN.md §2.4 lists the rules that keep the two equal).
    :meth:`best_waits` scores every window a sliding window slides through
    in one pass, bit-equal to :meth:`best_wait` on each.  It holds no
    window state: :func:`wait_evaluator` hands one instance per profile to
    every policy.
    """

    __slots__ = (
        "candidates",
        "_model",
        "_switch_costs",
        "_t1",
        "_timeout",
        "_p_active",
        "_p_high_idle",
        "_t1_energy",
        "_full_tail",
        "_full_tail_switch",
        "_wait_column",
        "_switch_column",
    )

    def __init__(self, model: TailEnergyModel, candidate_count: int) -> None:
        if candidate_count < 2:
            raise ValueError(f"candidate_count must be >= 2, got {candidate_count}")
        step = model.t_threshold / (candidate_count - 1)
        self.candidates: tuple[float, ...] = tuple(
            i * step for i in range(candidate_count)
        )
        self._model = model
        # E_wait(w) + E_switch per candidate: the cost of every gap longer
        # than the wait, evaluated once with the model's own expressions.
        self._switch_costs = tuple(
            model.wait_energy(w) + model.switch_energy for w in self.candidates
        )
        # The profile constants of E(t), read through the same properties
        # and combined by the same expressions as tail_energy/wait_energy.
        p = model.profile
        self._t1 = p.t1
        self._timeout = p.t1 + p.t2
        self._p_active = p.power_active_w
        self._p_high_idle = p.power_high_idle_w
        self._t1_energy = p.t1 * p.power_active_w
        self._full_tail = p.t1 * p.power_active_w + p.t2 * p.power_high_idle_w
        self._full_tail_switch = self._full_tail + p.switch_energy_j
        if _np is not None:
            # Read-only: one evaluator serves every policy prepared on
            # its profile (wait_evaluator).
            self._wait_column = _np.array(self.candidates)[:, None]
            self._switch_column = _np.array(self._switch_costs)[:, None]
            self._wait_column.setflags(write=False)
            self._switch_column.setflags(write=False)

    @property
    def model(self) -> TailEnergyModel:
        """The tail-energy model the candidates are scored with."""
        return self._model

    def best_wait(
        self, gaps: Sequence[float], weights: Sequence[float] | None = None
    ) -> tuple[float, float]:
        """``(t_wait*, f(t_wait*))`` under ``gaps`` (uniform unless ``weights``).

        ``f`` is the expected status-quo cost minus the expected cost of
        waiting then switching; a positive value means switching is
        expected to pay off.  An empty window (or zero total weight) gives
        ``(0.0, 0.0)``.
        """
        if _np is None:
            return self.best_wait_loop(gaps, weights)
        count = len(gaps)
        if not count:
            return 0.0, 0.0
        tail_energy, cost = self._gap_costs(
            _np.fromiter(gaps, _np.float64, count)
        )
        total_weight: float
        if weights is None:
            total_weight = count
        else:
            w = _np.fromiter(weights, _np.float64, count)
            total_weight = float(_np.add.accumulate(w)[-1])
            if total_weight <= 0:
                return 0.0, 0.0
            tail_energy = w * tail_energy
            cost = cost * w
        # Strict left folds in window order.  accumulate starts from the
        # first term, not from 0 as left_fold does; that changes a total
        # only when every term is -0.0, i.e. in an all -0.0 window, where
        # both paths give every candidate the gain 0.0 - 0.0 == -0.0 - -0.0.
        status_quo = float(_np.add.accumulate(tail_energy)[-1]) / total_weight
        totals = _np.add.accumulate(cost, axis=1)[:, -1]
        gains = status_quo - totals / total_weight
        best = int(gains.argmax())  # the first maximum, as the strict > scan
        return self.candidates[best], float(gains[best])

    def best_waits(
        self, gaps: Sequence[float], first: int, window_size: int
    ) -> tuple[list[float], list[float]]:
        """:meth:`best_wait` over each window a sliding window passes through.

        Window ``e``, for ``e = first .. len(gaps)``, is the last
        ``min(e, window_size)`` of the first ``e`` gaps: what a window of
        ``window_size`` holds once it has seen ``e`` gaps.  Returns every
        window's ``t_wait*`` and ``f(t_wait*)``, each bit-equal to
        :meth:`best_wait` on that window; ``first`` must be at least 1.
        Without numpy each window goes through :meth:`best_wait_loop`.

        With numpy, windows are scored :data:`_WINDOW_CHUNK` at a time.
        ``window_size`` zero columns ahead of the first gap make every
        window exactly ``window_size`` terms long, and each position of
        the window is added to all of the chunk's totals at once, as one
        contiguous slice: a strict left fold in window order from ``0.0``.
        Leading zeros change nothing (``0.0 + 0.0 == 0.0``), and ``0.0 + x
        == x`` for the first real term, so each total is the one
        ``best_wait``'s accumulate reaches.
        """
        stop = len(gaps) + 1
        if _np is None:
            scored = [
                self.best_wait_loop(gaps[max(0, end - window_size):end])
                for end in range(first, stop)
            ]
            return [wait for wait, _ in scored], [gain for _, gain in scored]
        waits: list[float] = []
        gains: list[float] = []
        candidates = self.candidates
        for start in range(first, stop, _WINDOW_CHUNK):
            count = min(_WINDOW_CHUNK, stop - start)
            # Local column j holds gap start - window_size + j; the
            # window ending at gap e spans columns e - start + [0, size).
            low = max(0, start - window_size)
            high = start + count - 1
            tail_energy, cost = self._gap_costs(
                _np.fromiter(gaps[low:high], _np.float64, high - low)
            )
            # Row 0 folds the status quo, rows 1.. the candidates' costs.
            terms = _np.zeros((cost.shape[0] + 1, window_size + count - 1))
            offset = low - start + window_size
            terms[0, offset:] = tail_energy
            terms[1:, offset:] = cost
            totals = _np.zeros((terms.shape[0], count))
            # Positions whose slice is all padding would add 0.0 to 0.0.
            for position in range(max(0, offset - count + 1), window_size):
                totals += terms[:, position:position + count]
            sizes = _np.minimum(_np.arange(start, start + count), window_size)
            status_quo = totals[0] / sizes
            scored = status_quo - totals[1:] / sizes
            best = scored.argmax(axis=0)  # the first maximum of each window
            waits += [candidates[index] for index in best.tolist()]
            gains += scored[best, _np.arange(count)].tolist()
        return waits, gains

    def _gap_costs(self, g):
        """Per-gap ``(E(g), cost)`` arrays for the gap column ``g``.

        ``cost[c, i]`` is ``E_wait(g_i)`` if a packet ``g_i`` seconds later
        beats candidate ``c``'s wait, else that candidate's
        ``E_wait(w_c) + E_switch``.  The one copy of the per-gap
        expressions :meth:`best_wait` and :meth:`best_waits` score with.
        """
        # E_wait(g) and E(g) share their first two branches (t1 <= t1 + t2).
        ramp = _np.where(
            g <= self._t1,
            g * self._p_active,
            self._t1_energy + (g - self._t1) * self._p_high_idle,
        )
        within = g <= self._timeout
        wait_energy = _np.where(within, ramp, self._full_tail)
        tail_energy = _np.where(within, ramp, self._full_tail_switch)
        cost = _np.where(g <= self._wait_column, wait_energy, self._switch_column)
        return tail_energy, cost

    def best_wait_loop(
        self, gaps: Sequence[float], weights: Sequence[float] | None = None
    ) -> tuple[float, float]:
        """The reference :meth:`best_wait`: one candidate at a time, no numpy.

        Unweighted windows weigh each gap ``1.0``, which changes no float:
        ``1.0 * x == x`` and the folded total weight is exactly ``len(gaps)``.
        """
        model = self._model
        if weights is None:
            weights = (1.0,) * len(gaps)
        total_weight = left_fold(weights)
        if total_weight <= 0:
            return 0.0, 0.0
        status_quo = (
            left_fold(w * model.tail_energy(g) for g, w in zip(gaps, weights))
            / total_weight
        )
        best_wait = self.candidates[0]
        best_gain = float("-inf")
        for wait, switch_cost in zip(self.candidates, self._switch_costs):
            cost = left_fold(
                w * (model.wait_energy(g) if g <= wait else switch_cost)
                for g, w in zip(gaps, weights)
            )
            gain = status_quo - cost / total_weight
            if gain > best_gain:
                best_gain = gain
                best_wait = wait
        return best_wait, best_gain


@lru_cache(maxsize=512)
def wait_evaluator(profile: CarrierProfile,
                   candidate_count: int) -> WaitEvaluator:
    """The :class:`WaitEvaluator` of ``profile`` at ``candidate_count``.

    One instance per ``(profile, candidate_count)``, shared by every
    policy that asks: an evaluator holds no window state, and its
    candidates, costs and numpy columns are read-only.  Profiles are
    frozen, so equal profiles share one evaluator; the cache is bounded,
    as :func:`repro.rrc.tables.transition_table` is.
    """
    return WaitEvaluator(TailEnergyModel(profile), candidate_count)
