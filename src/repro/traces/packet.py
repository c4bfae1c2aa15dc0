"""Packet and packet-trace containers.

Everything in this library is driven by *packet traces*: ordered sequences
of packets described by an arrival timestamp, a size in bytes, a direction
(uplink or downlink) and an optional flow identifier.  The paper's control
module observes exactly this information at the socket layer, so the trace
container is the narrow waist between the workload generators / pcap readers
on one side and the RRC simulator and policies on the other.

The classes here are deliberately simple value types: a :class:`Packet` is a
frozen dataclass and a :class:`PacketTrace` is an immutable, time-sorted
sequence of packets with convenience accessors for the quantities the
algorithms need (inter-arrival times, duration, byte counts, per-flow and
per-direction views).

The synthetic generators produce packets as columns first
(:func:`packets_from_columns` builds the packets), and the vector kernel
reads ``(times, sizes, uplink)`` column blocks (:func:`packet_columns`
makes them from packets); see :mod:`repro.traces.streaming`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Columns",
    "Direction",
    "Packet",
    "PacketTrace",
    "merge_traces",
    "Records",
    "packet_columns",
    "packet_records",
    "packets_from_columns",
    "packets_from_records",
]


class Direction(Enum):
    """Direction of a packet relative to the mobile device."""

    UPLINK = "uplink"
    DOWNLINK = "downlink"

    @property
    def is_uplink(self) -> bool:
        """Return ``True`` for packets sent by the device."""
        return self is Direction.UPLINK

    @property
    def is_downlink(self) -> bool:
        """Return ``True`` for packets received by the device."""
        return self is Direction.DOWNLINK

    def opposite(self) -> "Direction":
        """Return the opposite direction."""
        return Direction.DOWNLINK if self is Direction.UPLINK else Direction.UPLINK


@dataclass(frozen=True, order=True, slots=True)
class Packet:
    """A single packet observation.

    Slotted: packets are the single most-allocated object in the library
    (every generated chunk, every kernel arrival), and ``__slots__`` both
    shrinks them and makes the kernel's per-event ``timestamp`` /
    ``direction`` / ``size`` reads a fixed-offset load instead of a dict
    lookup.

    Attributes
    ----------
    timestamp:
        Arrival (or transmission) time in seconds.  Timestamps are relative
        to an arbitrary epoch; only differences matter to the algorithms.
    size:
        Packet size in bytes (IP length).  Must be non-negative.
    direction:
        Whether the device sent (:attr:`Direction.UPLINK`) or received
        (:attr:`Direction.DOWNLINK`) the packet.
    flow_id:
        Optional identifier of the flow or application session the packet
        belongs to.  Used by MakeActive to group packets into sessions and
        by the workload generators to label application components.
    app:
        Optional human-readable application label (e.g. ``"email"``).
    """

    timestamp: float
    size: int = 0
    direction: Direction = field(default=Direction.DOWNLINK, compare=False)
    flow_id: int = field(default=0, compare=False)
    app: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"packet size must be non-negative, got {self.size}")
        if self.timestamp < 0:
            raise ValueError(
                f"packet timestamp must be non-negative, got {self.timestamp}"
            )

    # The copies below construct the packet directly: ``dataclasses.replace``
    # runs the same __post_init__ checks at more than twice the cost.

    def shifted(self, offset: float) -> "Packet":
        """Return a copy of this packet with ``offset`` added to its timestamp."""
        return Packet(
            self.timestamp + offset, self.size, self.direction, self.flow_id,
            self.app,
        )

    def with_flow(self, flow_id: int) -> "Packet":
        """Return a copy of this packet tagged with ``flow_id``."""
        return Packet(self.timestamp, self.size, self.direction, flow_id, self.app)

    def with_app(self, app: str) -> "Packet":
        """Return a copy of this packet tagged with application label ``app``."""
        return Packet(self.timestamp, self.size, self.direction, self.flow_id, app)


#: A column block: ``(times, sizes, uplink)``, one row per packet, in time
#: order (``uplink`` holds ``direction is Direction.UPLINK``).
Columns = tuple[Sequence[float], Sequence[int], Sequence[bool]]

#: Packet direction by uplink flag: ``_DIRECTIONS[True]`` is uplink.
_DIRECTIONS = (Direction.DOWNLINK, Direction.UPLINK)


#: A record block: ``(times, sizes, uplink, flow_ids, apps)``, every field
#: of each packet in time order (``apps`` holds each packet's label).
Records = tuple[Sequence[float], Sequence[int], Sequence[bool], Sequence[int],
                Sequence[str]]


def packets_from_records(
    times: Iterable[float],
    sizes: Iterable[int],
    uplink: Iterable[bool],
    flow_ids: Iterable[int],
    apps: Iterable[str],
) -> list[Packet]:
    """One :class:`Packet` per row of the columns, labelled by ``apps``."""
    return list(map(Packet, times, sizes, map(_DIRECTIONS.__getitem__, uplink),
                    flow_ids, apps))


def packets_from_columns(
    times: Iterable[float],
    sizes: Iterable[int],
    uplink: Iterable[bool],
    flow_ids: Iterable[int],
    app: str,
) -> list[Packet]:
    """One :class:`Packet` per row of the columns, all labelled ``app``."""
    return packets_from_records(times, sizes, uplink, flow_ids, repeat(app))


def packet_columns(packets: Sequence[Packet]) -> Columns:
    """The ``(times, sizes, uplink)`` column block of a packet sequence."""
    return (
        [p.timestamp for p in packets],
        [p.size for p in packets],
        [p.direction is Direction.UPLINK for p in packets],
    )


def packet_records(packets: Sequence[Packet]) -> Records:
    """The record block of a packet sequence: :func:`packet_columns` plus
    flow ids and app labels."""
    return (
        *packet_columns(packets),
        [p.flow_id for p in packets],
        [p.app for p in packets],
    )


class PacketTrace(Sequence[Packet]):
    """An immutable, time-ordered sequence of packets.

    The constructor accepts packets in any order and sorts them by timestamp.
    All derived quantities (inter-arrival times, durations, byte counts) are
    computed lazily and cached.
    """

    def __init__(self, packets: Iterable[Packet] = (), name: str = "") -> None:
        self._packets: tuple[Packet, ...] = tuple(
            sorted(packets, key=lambda p: p.timestamp)
        )
        self._name = name
        self._timestamps: tuple[float, ...] | None = None
        self._inter_arrivals: tuple[float, ...] | None = None

    # -- basic sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def packet_blocks(self) -> Iterator[Sequence[Packet]]:
        """The kernel block protocol: a materialised trace is one block.

        Lets the simulation kernel walk the packet tuple by index instead
        of driving an iterator per packet (see
        :mod:`repro.traces.streaming` for the chunked counterpart).
        """
        yield self._packets

    def column_blocks(self) -> Iterator[Columns]:
        """The vector kernel's column protocol: the trace is one block."""
        yield packet_columns(self._packets)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return PacketTrace(self._packets[index], name=self._name)
        return self._packets[index]

    def __bool__(self) -> bool:
        return bool(self._packets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PacketTrace):
            return NotImplemented
        return self._packets == other._packets

    def __hash__(self) -> int:
        return hash(self._packets)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<PacketTrace{label} packets={len(self)} "
            f"duration={self.duration:.1f}s bytes={self.total_bytes}>"
        )

    # -- metadata ----------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable name of the trace (application or user label)."""
        return self._name

    def renamed(self, name: str) -> "PacketTrace":
        """Return the same trace under a different name."""
        return PacketTrace(self._packets, name=name)

    # -- derived quantities --------------------------------------------------------

    @property
    def timestamps(self) -> tuple[float, ...]:
        """Packet timestamps in seconds, non-decreasing."""
        if self._timestamps is None:
            self._timestamps = tuple(p.timestamp for p in self._packets)
        return self._timestamps

    @property
    def inter_arrival_times(self) -> tuple[float, ...]:
        """Gaps between consecutive packets, in seconds (length ``len(trace) - 1``)."""
        if self._inter_arrivals is None:
            ts = self.timestamps
            self._inter_arrivals = tuple(
                ts[i + 1] - ts[i] for i in range(len(ts) - 1)
            )
        return self._inter_arrivals

    @property
    def start_time(self) -> float:
        """Timestamp of the first packet (0.0 for an empty trace)."""
        return self._packets[0].timestamp if self._packets else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last packet (0.0 for an empty trace)."""
        return self._packets[-1].timestamp if self._packets else 0.0

    @property
    def duration(self) -> float:
        """Time between the first and the last packet, in seconds."""
        return self.end_time - self.start_time

    @property
    def total_bytes(self) -> int:
        """Sum of all packet sizes in bytes."""
        return sum(p.size for p in self._packets)

    @property
    def uplink_bytes(self) -> int:
        """Bytes sent by the device."""
        return sum(p.size for p in self._packets if p.direction.is_uplink)

    @property
    def downlink_bytes(self) -> int:
        """Bytes received by the device."""
        return sum(p.size for p in self._packets if p.direction.is_downlink)

    @property
    def flow_ids(self) -> tuple[int, ...]:
        """Sorted tuple of distinct flow identifiers present in the trace."""
        return tuple(sorted({p.flow_id for p in self._packets}))

    @property
    def apps(self) -> tuple[str, ...]:
        """Sorted tuple of distinct application labels present in the trace."""
        return tuple(sorted({p.app for p in self._packets if p.app}))

    # -- transformations -----------------------------------------------------------

    def shifted(self, offset: float) -> "PacketTrace":
        """Return a copy with ``offset`` seconds added to every timestamp."""
        return PacketTrace((p.shifted(offset) for p in self._packets), name=self._name)

    def normalized(self) -> "PacketTrace":
        """Return a copy whose first packet is at time 0."""
        if not self._packets:
            return self
        return self.shifted(-self.start_time)

    def filter(self, predicate: Callable[[Packet], bool]) -> "PacketTrace":
        """Return the sub-trace of packets for which ``predicate`` is true."""
        return PacketTrace(
            (p for p in self._packets if predicate(p)), name=self._name
        )

    def only_direction(self, direction: Direction) -> "PacketTrace":
        """Return the sub-trace of packets travelling in ``direction``."""
        return self.filter(lambda p: p.direction is direction)

    def only_flow(self, flow_id: int) -> "PacketTrace":
        """Return the sub-trace belonging to flow ``flow_id``."""
        return self.filter(lambda p: p.flow_id == flow_id)

    def only_app(self, app: str) -> "PacketTrace":
        """Return the sub-trace of packets labelled with application ``app``."""
        return self.filter(lambda p: p.app == app)

    def between(self, start: float, end: float) -> "PacketTrace":
        """Return packets with ``start <= timestamp < end``."""
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        ts = self.timestamps
        lo = bisect.bisect_left(ts, start)
        hi = bisect.bisect_left(ts, end)
        return PacketTrace(self._packets[lo:hi], name=self._name)

    def count_between(self, start: float, end: float) -> int:
        """Number of packets with ``start <= timestamp < end`` (O(log n))."""
        if end < start:
            return 0
        ts = self.timestamps
        return bisect.bisect_left(ts, end) - bisect.bisect_left(ts, start)

    def next_packet_after(self, time: float) -> Packet | None:
        """Return the first packet strictly after ``time``, or ``None``."""
        ts = self.timestamps
        idx = bisect.bisect_right(ts, time)
        if idx >= len(self._packets):
            return None
        return self._packets[idx]

    def concatenate(self, other: "PacketTrace") -> "PacketTrace":
        """Return a trace containing the packets of both traces, re-sorted."""
        return PacketTrace(
            list(self._packets) + list(other._packets),
            name=self._name or other._name,
        )


def merge_traces(traces: Iterable[PacketTrace], name: str = "merged") -> PacketTrace:
    """Merge several traces into one time-sorted trace.

    Flow identifiers are re-mapped so flows from different input traces do
    not collide: each input trace's flows are offset by a multiple of a large
    stride.  Application labels are preserved.
    """
    merged: list[Packet] = []
    stride = 1_000_000
    for index, trace in enumerate(traces):
        offset = index * stride
        for packet in trace:
            merged.append(packet.with_flow(packet.flow_id + offset))
    return PacketTrace(merged, name=name)
