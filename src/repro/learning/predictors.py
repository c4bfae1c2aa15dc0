"""Alternative inter-arrival-time predictors (ablation of MakeIdle's window).

The paper's MakeIdle models the next inter-arrival gap with the empirical
distribution of the last ``n`` gaps (a sliding window).  That choice is an
ablation axis: this module defines a small predictor interface plus three
implementations so the design decision can be evaluated head-to-head —

* :class:`SlidingWindowPredictor` — the paper's choice (uniform weight over
  the last ``n`` gaps);
* :class:`DecayedHistogramPredictor` — an exponentially-decayed histogram
  over log-spaced bins, which forgets old behaviour smoothly instead of
  abruptly;
* :class:`ExponentialRatePredictor` — a parametric memoryless model that
  tracks only a smoothed arrival rate (the cheapest possible predictor, and
  a useful null model: for truly Poisson traffic it is optimal, for bursty
  traffic it should lose to the empirical predictors).

:class:`PredictiveMakeIdlePolicy` is a drop-in MakeIdle variant that takes
any of these predictors, so the ablation benchmark can swap them without
touching the simulator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Protocol

from ..core.policy import RadioPolicy
from ..energy.model import WaitEvaluator, wait_evaluator
from ..rrc.profiles import CarrierProfile
from ..traces.packet import Packet, PacketTrace

__all__ = [
    "GapPredictor",
    "SlidingWindowPredictor",
    "DecayedHistogramPredictor",
    "ExponentialRatePredictor",
    "PredictiveMakeIdlePolicy",
]


class GapPredictor(Protocol):
    """Predicts the distribution of the next packet inter-arrival gap.

    A predictor is fed completed gaps through :meth:`observe` and exposes the
    learned distribution as a weighted sample set through
    :meth:`weighted_gaps`; the policy computes expected energies under those
    weights.  ``sample_count`` gates warm-up (a cold predictor must not make
    the policy deviate from the status quo).
    """

    def observe(self, gap: float) -> None:
        """Record one completed inter-arrival gap (seconds, non-negative)."""
        ...

    def reset(self) -> None:
        """Forget everything (start of a new run)."""
        ...

    @property
    def sample_count(self) -> int:
        """How many gaps have been absorbed since the last reset."""
        ...

    def weighted_gaps(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Return ``(gaps, weights)`` describing the predicted distribution.

        Weights are positive and need not be normalised; an empty pair means
        the predictor has nothing to say yet.
        """
        ...


class SlidingWindowPredictor:
    """The paper's predictor: uniform weights over the last ``n`` gaps."""

    def __init__(self, window_size: int = 100) -> None:
        if window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {window_size}")
        self._window_size = window_size
        self._gaps: deque[float] = deque(maxlen=window_size)
        self._seen = 0

    @property
    def window_size(self) -> int:
        """Maximum number of gaps retained."""
        return self._window_size

    @property
    def sample_count(self) -> int:
        return self._seen

    def observe(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be non-negative, got {gap}")
        self._gaps.append(gap)
        self._seen += 1

    def reset(self) -> None:
        self._gaps.clear()
        self._seen = 0

    def weighted_gaps(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        gaps = tuple(self._gaps)
        return gaps, tuple(1.0 for _ in gaps)


class DecayedHistogramPredictor:
    """Exponentially-decayed histogram of gaps over log-spaced bins.

    Every observation multiplies all existing bin masses by ``decay`` and
    adds one unit of mass to the bin containing the new gap, so the
    predictor's memory fades smoothly with a half-life of roughly
    ``log(0.5)/log(decay)`` observations.
    """

    def __init__(
        self,
        decay: float = 0.98,
        min_gap: float = 0.01,
        max_gap: float = 600.0,
        bins_per_decade: int = 8,
    ) -> None:
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        if min_gap <= 0 or max_gap <= min_gap:
            raise ValueError("require 0 < min_gap < max_gap")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self._decay = decay
        self._min_gap = min_gap
        self._max_gap = max_gap
        decades = math.log10(max_gap / min_gap)
        count = max(2, int(math.ceil(decades * bins_per_decade)) + 1)
        ratio = (max_gap / min_gap) ** (1.0 / (count - 1))
        self._edges = tuple(min_gap * ratio**i for i in range(count))
        # underflow bin + one per edge + a true overflow bin, so gaps past
        # max_gap never pollute the last in-range bin's mass.
        self._masses = [0.0] * (count + 2)
        self._seen = 0

    @property
    def decay(self) -> float:
        """Per-observation decay factor applied to old mass."""
        return self._decay

    @property
    def bin_edges(self) -> tuple[float, ...]:
        """Upper edges of the histogram bins (log-spaced)."""
        return self._edges

    @property
    def sample_count(self) -> int:
        return self._seen

    def observe(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be non-negative, got {gap}")
        self._masses = [m * self._decay for m in self._masses]
        self._masses[self._bin_index(gap)] += 1.0
        self._seen += 1

    def reset(self) -> None:
        self._masses = [0.0] * len(self._masses)
        self._seen = 0

    def weighted_gaps(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        gaps: list[float] = []
        weights: list[float] = []
        for index, mass in enumerate(self._masses):
            if mass <= 0.0:
                continue
            gaps.append(self._bin_representative(index))
            weights.append(mass)
        return tuple(gaps), tuple(weights)

    def _bin_index(self, gap: float) -> int:
        if gap < self._min_gap:
            return 0
        if gap > self._edges[-1]:
            return len(self._masses) - 1  # overflow: beyond the last edge
        return bisect_left(self._edges, gap) + 1

    def _bin_representative(self, index: int) -> float:
        if index == 0:
            return self._min_gap / 2.0
        if index > len(self._edges):
            # Overflow bin: extend the log-spaced grid by one geometric step
            # so the representative sits beyond max_gap, mirroring how every
            # in-range bin uses the geometric mean of its edges.
            return self._edges[-1] * math.sqrt(self._edges[-1] / self._edges[-2])
        lower = self._min_gap if index == 1 else self._edges[index - 2]
        upper = self._edges[index - 1]
        return math.sqrt(lower * upper)


class ExponentialRatePredictor:
    """Parametric memoryless predictor tracking a smoothed arrival rate.

    The gap distribution is taken to be exponential with mean equal to an
    exponentially-weighted moving average of the observed gaps; the weighted
    sample set is a deterministic quantile grid of that exponential, so the
    policy's expectation reduces to numerical integration over it.
    """

    def __init__(self, smoothing: float = 0.1, quantile_points: int = 16) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if quantile_points < 4:
            raise ValueError("quantile_points must be >= 4")
        self._smoothing = smoothing
        self._quantile_points = quantile_points
        self._mean_gap: float | None = None
        self._seen = 0

    @property
    def mean_gap(self) -> float | None:
        """Current EWMA of the observed gaps (``None`` before any observation)."""
        return self._mean_gap

    @property
    def sample_count(self) -> int:
        return self._seen

    def observe(self, gap: float) -> None:
        if gap < 0:
            raise ValueError(f"gap must be non-negative, got {gap}")
        if self._mean_gap is None:
            self._mean_gap = gap
        else:
            self._mean_gap += self._smoothing * (gap - self._mean_gap)
        self._seen += 1

    def reset(self) -> None:
        self._mean_gap = None
        self._seen = 0

    def weighted_gaps(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        if self._mean_gap is None or self._mean_gap <= 0:
            return (), ()
        count = self._quantile_points
        gaps = tuple(
            -self._mean_gap * math.log(1.0 - (i + 0.5) / count) for i in range(count)
        )
        return gaps, tuple(1.0 for _ in gaps)


class PredictiveMakeIdlePolicy(RadioPolicy):
    """MakeIdle with a pluggable gap predictor (ablation of the window choice).

    The decision logic is identical to
    :class:`~repro.core.makeidle.MakeIdlePolicy` — pick the waiting time in
    ``[0, t_threshold]`` with the largest expected saving over the status quo
    — but expectations are taken under the predictor's weighted gap samples
    instead of the raw sliding window.
    """

    def __init__(
        self,
        predictor: GapPredictor,
        candidate_count: int = 24,
        min_samples: int = 5,
        name: str | None = None,
    ) -> None:
        if candidate_count < 2:
            raise ValueError(f"candidate_count must be >= 2, got {candidate_count}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self._predictor = predictor
        self._candidate_count = candidate_count
        self._min_samples = min_samples
        self._evaluator: WaitEvaluator | None = None
        self._last_packet_time: float | None = None
        self.name = name or f"makeidle[{type(predictor).__name__}]"

    @property
    def predictor(self) -> GapPredictor:
        """The gap predictor driving the decisions."""
        return self._predictor

    def prepare(self, trace: PacketTrace, profile: CarrierProfile) -> None:
        # Only the profile is read: a streamed device is prepared with an
        # empty trace.
        self._evaluator = wait_evaluator(profile, self._candidate_count)

    def reset(self) -> None:
        self._predictor.reset()
        self._last_packet_time = None

    def observe_packet(self, time: float, packet: Packet) -> None:
        if self._last_packet_time is not None:
            gap = time - self._last_packet_time
            if gap >= 0:
                self._predictor.observe(gap)
        self._last_packet_time = time

    def dormancy_wait(self, now: float) -> float | None:
        evaluator = self._evaluator
        if evaluator is None:
            raise RuntimeError(
                "PredictiveMakeIdlePolicy.prepare() must be called before use"
            )
        if self._predictor.sample_count < self._min_samples:
            return None
        gaps, weights = self._predictor.weighted_gaps()
        if not gaps:
            return None
        wait, gain = evaluator.best_wait(gaps, weights)
        return wait if gain > 0 else None

