"""Inter-arrival-time statistics over packet traces.

The baselines evaluated in the paper rest on simple statistics of the packet
inter-arrival time (IAT) distribution:

* the "4.5-second tail" scheme (Falaki et al.) sets the inactivity timer to a
  fixed 4.5 s because 95 % of IATs in their traces were below that value;
* the "95 % IAT" scheme computes the 95th percentile of the IAT distribution
  of the trace under test and uses that as the inactivity timer.

This module provides an :class:`EmpiricalCdf` built from samples, percentile
helpers, and a :class:`SlidingWindowDistribution` used by the online MakeIdle
predictor (Section 4.2 of the paper): the conditional probability that no
packet arrives within ``t_wait + t_threshold`` given that none arrived within
``t_wait`` is evaluated against the empirical distribution of the last ``n``
inter-arrival times.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..folds import left_fold
from .packet import PacketTrace

__all__ = [
    "EmpiricalCdf",
    "SlidingWindowDistribution",
    "TraceSummary",
    "inter_arrival_percentile",
    "summarize_trace",
]


class EmpiricalCdf:
    """Empirical cumulative distribution function over a set of samples.

    The CDF is right-continuous: ``cdf(x)`` is the fraction of samples that
    are ``<= x``.  Quantiles use the nearest-rank definition, which matches
    the paper's use of "the 95th percentile of packet inter-arrival time".
    """

    def __init__(self, samples: Iterable[float]) -> None:
        self._samples = sorted(float(s) for s in samples)
        if not self._samples:
            raise ValueError("EmpiricalCdf requires at least one sample")

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        """The sorted samples backing the CDF."""
        return tuple(self._samples)

    @property
    def min(self) -> float:
        """Smallest sample."""
        return self._samples[0]

    @property
    def max(self) -> float:
        """Largest sample."""
        return self._samples[-1]

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return left_fold(self._samples) / len(self._samples)

    def cdf(self, x: float) -> float:
        """Fraction of samples less than or equal to ``x``."""
        return bisect.bisect_right(self._samples, x) / len(self._samples)

    def survival(self, x: float) -> float:
        """Fraction of samples strictly greater than ``x`` (``1 - cdf(x)``)."""
        return 1.0 - self.cdf(x)

    def conditional_survival(self, waited: float, extra: float) -> float:
        """P(sample > waited + extra | sample > waited).

        This is the quantity the MakeIdle online predictor evaluates: the
        probability that no packet arrives in the next ``extra`` seconds
        given that none has arrived in the ``waited`` seconds so far.
        Returns 1.0 when no sample exceeds ``waited`` (the conditioning event
        has empirical probability zero, so waiting longer cannot reduce the
        estimate).
        """
        denom = self.survival(waited)
        if denom <= 0.0:
            return 1.0
        return self.survival(waited + extra) / denom

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the samples, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if q == 0.0:  # repro-lint: allow[float-eq] reason=documented percentile edge: q=0.0 maps to the minimum sample by definition
            return self._samples[0]
        rank = max(1, int(-(-q / 100.0 * len(self._samples) // 1)))  # ceil
        return self._samples[min(rank, len(self._samples)) - 1]

    def histogram(self, bin_edges: Sequence[float]) -> list[int]:
        """Counts of samples in the half-open bins defined by ``bin_edges``.

        Bin ``i`` counts samples in ``[bin_edges[i], bin_edges[i + 1])``;
        samples outside the overall range are ignored.
        """
        if len(bin_edges) < 2:
            raise ValueError("histogram requires at least two bin edges")
        counts = [0] * (len(bin_edges) - 1)
        for s in self._samples:
            if s < bin_edges[0] or s >= bin_edges[-1]:
                continue
            idx = bisect.bisect_right(bin_edges, s) - 1
            counts[idx] += 1
        return counts


class SlidingWindowDistribution:
    """Inter-arrival distribution over the most recent ``window_size`` gaps.

    The MakeIdle online predictor (paper Section 4.2) maintains the
    distribution of inter-arrival times of the last ``n`` packets seen by
    the control module and recomputes its conditional probabilities as the
    window slides.  ``n = 100`` is the paper's default (Figure 13 sweeps it).
    """

    def __init__(self, window_size: int = 100) -> None:
        if window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {window_size}")
        self._window_size = window_size
        self._gaps: deque[float] = deque(maxlen=window_size)
        self._last_timestamp: float | None = None

    @property
    def window_size(self) -> int:
        """Maximum number of inter-arrival samples retained."""
        return self._window_size

    @property
    def sample_count(self) -> int:
        """Number of inter-arrival samples currently in the window."""
        return len(self._gaps)

    @property
    def samples(self) -> tuple[float, ...]:
        """Current window contents, oldest first."""
        return tuple(self._gaps)

    def observe(self, timestamp: float) -> None:
        """Record a packet arrival at ``timestamp`` (non-decreasing)."""
        if self._last_timestamp is not None:
            gap = timestamp - self._last_timestamp
            if gap < 0:
                raise ValueError(
                    "packet timestamps must be non-decreasing: "
                    f"{timestamp} < {self._last_timestamp}"
                )
            self._gaps.append(gap)
        self._last_timestamp = timestamp

    def observe_all(self, timestamps: Sequence[float]) -> list[float]:
        """:meth:`observe` each of ``timestamps``, in order, in one call.

        Returns every gap recorded, oldest first, including any the window
        has already dropped again.  A decreasing timestamp raises
        :meth:`observe`'s error and records nothing.
        """
        gaps: list[float] = []
        last = self._last_timestamp
        for timestamp in timestamps:
            if last is not None:
                gap = timestamp - last
                if gap < 0:
                    raise ValueError(
                        "packet timestamps must be non-decreasing: "
                        f"{timestamp} < {last}"
                    )
                gaps.append(gap)
            last = timestamp
        self._gaps.extend(gaps)
        self._last_timestamp = last
        return gaps

    def observe_gap(self, gap: float) -> None:
        """Record an inter-arrival gap directly (used when replaying gaps)."""
        if gap < 0:
            raise ValueError(f"inter-arrival gap must be non-negative, got {gap}")
        self._gaps.append(gap)

    def reset(self) -> None:
        """Discard all state, including the last-seen timestamp."""
        self._gaps.clear()
        self._last_timestamp = None

    def is_warm(self, minimum_samples: int = 2) -> bool:
        """Whether enough samples have been seen to make predictions."""
        return len(self._gaps) >= minimum_samples

    def cdf(self) -> EmpiricalCdf | None:
        """Empirical CDF of the window, or ``None`` if the window is empty."""
        if not self._gaps:
            return None
        return EmpiricalCdf(self._gaps)

    def probability_no_packet(self, waited: float, extra: float) -> float:
        """P(no packet within ``waited + extra`` s | none within ``waited`` s).

        Falls back to 0.0 (pessimistic: a packet is assumed imminent) when
        the window has no samples yet, so a cold-start MakeIdle never
        switches the radio based on no evidence.
        """
        cdf = self.cdf()
        if cdf is None:
            return 0.0
        return cdf.conditional_survival(waited, extra)

    def probability_gap_exceeds(self, threshold: float) -> float:
        """P(inter-arrival gap > threshold) under the current window."""
        cdf = self.cdf()
        if cdf is None:
            return 0.0
        return cdf.survival(threshold)


@dataclass(frozen=True)
class TraceSummary:
    """Headline statistics of a packet trace."""

    name: str
    packet_count: int
    duration: float
    total_bytes: int
    uplink_bytes: int
    downlink_bytes: int
    mean_inter_arrival: float
    median_inter_arrival: float
    p95_inter_arrival: float
    max_inter_arrival: float

    @property
    def mean_throughput_bps(self) -> float:
        """Mean throughput in bits per second over the trace duration."""
        if self.duration <= 0:
            return 0.0
        return self.total_bytes * 8 / self.duration


def inter_arrival_percentile(trace: PacketTrace, q: float = 95.0) -> float:
    """Return the ``q``-th percentile of the trace's inter-arrival times.

    This is the statistic used by the "95 % IAT" baseline.  Raises
    ``ValueError`` for traces with fewer than two packets, where no
    inter-arrival time exists.
    """
    gaps = trace.inter_arrival_times
    if not gaps:
        raise ValueError("trace has fewer than two packets; no inter-arrival times")
    return EmpiricalCdf(gaps).percentile(q)


def summarize_trace(trace: PacketTrace) -> TraceSummary:
    """Compute a :class:`TraceSummary` for ``trace``.

    Traces with fewer than two packets report zero for all inter-arrival
    statistics.
    """
    gaps = trace.inter_arrival_times
    if gaps:
        cdf = EmpiricalCdf(gaps)
        mean_gap = cdf.mean
        median_gap = cdf.percentile(50.0)
        p95_gap = cdf.percentile(95.0)
        max_gap = cdf.max
    else:
        mean_gap = median_gap = p95_gap = max_gap = 0.0
    return TraceSummary(
        name=trace.name,
        packet_count=len(trace),
        duration=trace.duration,
        total_bytes=trace.total_bytes,
        uplink_bytes=trace.uplink_bytes,
        downlink_bytes=trace.downlink_bytes,
        mean_inter_arrival=mean_gap,
        median_inter_arrival=median_gap,
        p95_inter_arrival=p95_gap,
        max_inter_arrival=max_gap,
    )
