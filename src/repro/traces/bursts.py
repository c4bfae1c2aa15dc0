"""Burst and session segmentation of packet traces.

The paper reasons about traffic at two granularities above packets:

* a **burst** is a maximal run of packets whose consecutive inter-arrival
  gaps are all below a gap threshold; the MakeIdle algorithm tries to detect
  the end of a burst, and Figure 7 illustrates "shifting" bursts to batch
  them;
* a **session** is a burst attributed to a flow (a new connection or request
  initiated while the radio is idle); MakeActive delays the start of
  sessions to batch several of them into a single radio promotion.

This module segments traces into bursts and provides the helper
used by the fixed-delay MakeActive variant to compute ``k``, the average
number of bursts per radio active period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .packet import Packet, PacketTrace

__all__ = ["Burst", "segment_bursts", "bursts_per_active_period"]


@dataclass(frozen=True)
class Burst:
    """A maximal run of closely spaced packets.

    Attributes
    ----------
    start:
        Timestamp of the first packet in the burst.
    end:
        Timestamp of the last packet in the burst.
    packet_count:
        Number of packets in the burst.
    total_bytes:
        Sum of packet sizes in the burst.
    flow_ids:
        Distinct flow identifiers contributing packets to the burst.
    """

    start: float
    end: float
    packet_count: int
    total_bytes: int
    flow_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"burst end ({self.end}) must be >= start ({self.start})"
            )
        if self.packet_count < 1:
            raise ValueError("a burst contains at least one packet")

    @property
    def duration(self) -> float:
        """Time from first to last packet of the burst, in seconds."""
        return self.end - self.start

    def gap_to(self, other: "Burst") -> float:
        """Idle time between the end of this burst and the start of ``other``."""
        return other.start - self.end


def segment_bursts(trace: PacketTrace, gap_threshold: float) -> list[Burst]:
    """Split ``trace`` into bursts separated by gaps longer than ``gap_threshold``.

    Two consecutive packets belong to the same burst when their inter-arrival
    time is less than or equal to ``gap_threshold`` seconds.  An empty trace
    yields an empty list.

    Parameters
    ----------
    trace:
        The packet trace to segment.
    gap_threshold:
        Maximum intra-burst gap in seconds; must be non-negative.  A natural
        choice is the carrier's total inactivity timeout ``t1 + t2`` (gaps
        longer than that force a demotion in the status quo) or the
        offline-optimal ``t_threshold``.
    """
    if gap_threshold < 0:
        raise ValueError(f"gap_threshold must be non-negative, got {gap_threshold}")
    if not trace:
        return []

    bursts: list[Burst] = []
    current: list[Packet] = [trace[0]]
    for previous, packet in zip(trace, trace[1:]):
        if packet.timestamp - previous.timestamp <= gap_threshold:
            current.append(packet)
        else:
            bursts.append(_finalize(current))
            current = [packet]
    bursts.append(_finalize(current))
    return bursts


def _finalize(packets: Sequence[Packet]) -> Burst:
    """Build a :class:`Burst` from a non-empty run of packets."""
    return Burst(
        start=packets[0].timestamp,
        end=packets[-1].timestamp,
        packet_count=len(packets),
        total_bytes=sum(p.size for p in packets),
        flow_ids=tuple(sorted({p.flow_id for p in packets})),
    )


def bursts_per_active_period(
    trace: PacketTrace, burst_gap: float, active_window: float
) -> float:
    """Average number of bursts falling inside one radio active period.

    The fixed-delay MakeActive variant sets ``T_fix_delay = k * (t1 + t2)``
    where ``k`` is "the average number of bursts during each of the radio's
    active period" (paper Section 5.1).  An *active period* here is a maximal
    run of bursts whose inter-burst gaps are all at most ``active_window``
    (the status-quo inactivity timeout): under the default timers the radio
    stays Active across those gaps.

    Parameters
    ----------
    trace:
        The packet trace to analyse.
    burst_gap:
        Gap threshold used to segment packets into bursts (seconds).
    active_window:
        Maximum inter-burst gap for which the radio would have remained
        Active under the status quo, i.e. ``t1 + t2``.

    Returns
    -------
    float
        The mean number of bursts per active period; at least 1.0 for any
        non-empty trace, 0.0 for an empty trace.
    """
    bursts = segment_bursts(trace, burst_gap)
    if not bursts:
        return 0.0
    periods: list[int] = []
    count = 1
    for previous, current in zip(bursts, bursts[1:]):
        if previous.gap_to(current) <= active_window:
            count += 1
        else:
            periods.append(count)
            count = 1
    periods.append(count)
    return sum(periods) / len(periods)
