"""Lazy, bounded-memory packet sources for cell-scale simulation.

The simulation kernel (:mod:`repro.sim.engine`) consumes packet
*iterators*: it holds one pending packet per UE, so a cell's memory is
bounded by the number of attached devices — provided the workloads
themselves are generated lazily.  This module supplies those lazy sources.

A streamed workload is produced **chunk by chunk**: each chunk of
``chunk_s`` seconds is synthesised as columns by the (deterministic)
generator, handed out, and discarded before the next chunk is built.  Peak memory is therefore one chunk per *currently generating*
device rather than one full trace per device, and a 10k-device cell over
hours of traffic streams in a few megabytes.

Chunked generation is deterministic given ``(name, duration, seed,
chunk_s)`` but is a *different* sample of the application's traffic model
than the equivalent single-shot :func:`generate_application_trace` call —
bursts do not straddle chunk boundaries.  It is not statistically
equivalent either: every chunk restarts the session process at its own
start, with a fresh seed, so its first session waits a whole
inter-session gap.  An application whose gaps approach ``chunk_s`` is
thinned, and one whose gaps exceed it is silent.  Over 50 seeds of a
3,600 s ``email`` stream (sessions every 280-320 s) the packet counts
are 0 at ``chunk_s`` 60 s and 120 s, 5,361 at the 300 s default, 7,955
at 600 s and 10,311 at 3,600 s, against 9,863 from the single-shot
generator.  Burst shapes are unchanged.  This is a known defect, kept
for now because fixing it changes every multi-chunk stream and with it
the golden files.  See ``docs/DESIGN.md`` ("substitution rule") for the
statistically equivalent regeneration this library aims at.

Block protocols (the kernel fast paths)
---------------------------------------

Every generated stream hands out its packets in **column blocks**.  The
one synthesis loop, :func:`~repro.traces.synthetic.application_columns`,
emits each chunk as ``(times, sizes, uplink, flow_ids)`` lists, and a
stream offers three views of them that share one cursor:

* ``column_blocks()`` yields ``(times, sizes, uplink)`` per chunk.  The
  vector kernel (:func:`repro.sim.vector_engine._drain`) reads these and
  builds no :class:`~repro.traces.packet.Packet`.
* ``packet_blocks()`` (and ``next()``) build a chunk's packets on demand,
  for the scalar kernel, which walks chunk-local lists by index.
* ``record_blocks()`` yields ``(times, sizes, uplink, flow_ids, apps)``
  per chunk: every field those packets would carry, as columns.  The
  population store (:mod:`repro.api.populations`) drains streams
  through it.

A packet buffer that ``next()`` left partly consumed comes out first, as
columns or as packets, so mixing the views never drops or repeats a
packet.  A later chunk's times are ``t + offset`` (the addition
``Packet.shifted`` makes), so every stream is time-ordered across chunks:
a chunk's local times are below its length, and
``fl(off + local) <= fl(off + length)``, the next chunk's offset.

A user-day stream (:func:`stream_user_day_packets`) merges its
applications' chunked streams.  Its packet view is ``heapq.merge`` over
them, after each application's flow column has been offset.  Its one
column block is every application's columns concatenated in application
order and stable-sorted by time: for time-ordered inputs that is
``heapq.merge``'s documented equivalent, ``sorted(chain(...))``, earlier
application first on ties.  A materialised
:class:`~repro.traces.packet.PacketTrace` is one block of either kind.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Callable, Iterable, Iterator, Sequence

from .packet import (
    Columns,
    Packet,
    Records,
    packet_columns,
    packet_records,
    packets_from_columns,
)
from .synthetic import (
    ApplicationProfile,
    _resolve_application_profile,
    application_columns,
    check_chunk,
    check_duration,
)

#: A traffic-rate envelope: absolute stream time (seconds) -> positive
#: session-rate multiplier.  Scenario diurnal shapes
#: (:class:`repro.scenarios.shapes.DiurnalShape`) are one implementation.
RateEnvelope = Callable[[float], float]

__all__ = [
    "ChunkedPacketStream",
    "RateEnvelope",
    "UserDayStream",
    "merge_packet_streams",
    "stream_application_packets",
    "stream_user_day_packets",
]


def _chunk_seed(seed: int, index: int) -> int:
    """Derive chunk ``index``'s generator seed from the stream seed.

    Hashed rather than strided: cell populations hand out *consecutive*
    per-device seeds, so any linear ``seed + K * index`` rule would make
    device ``i``'s chunk ``k`` collide with device ``i + K*k``'s chunk 0,
    replaying identical traffic across devices at scale.
    """
    return zlib.crc32(f"{seed}/{index}".encode("ascii"))


def _app_stream_seed(seed: int, index: int) -> int:
    """Derive the per-application stream seed of a user-day workload.

    Hashed for the same reason as :func:`_chunk_seed` — a linear
    ``seed + 13 * index`` rule made device ``i``'s application at index
    ``k`` replay device ``i + 13k``'s index-0 application traffic under
    the consecutive per-device seeds cell populations hand out.  The
    ``app/`` prefix keeps this derivation chain disjoint from the chunk
    chain, so an application stream never shares a generator seed with
    some other stream's chunk.
    """
    return zlib.crc32(f"app/{seed}/{index}".encode("ascii"))


class ChunkedPacketStream:
    """One application's packets, lazily generated ``chunk_s`` at a time.

    Behaves as a plain packet iterator (``next()`` / ``for``) *and*
    exposes the block views of the module docstring:
    :meth:`column_blocks`, :meth:`packet_blocks` and
    :meth:`record_blocks`.  All of them share one cursor over the same
    chunk sequence, so mixing them never duplicates or drops packets.
    ``flow_offset`` is added to every flow id (a user-day stream's
    per-application flow range).
    """

    __slots__ = ("_app", "_flow_offset", "_chunks", "_buf", "_idx")

    def __init__(
        self,
        name: str,
        duration: float,
        seed: int,
        chunk_s: float,
        envelope: RateEnvelope | None,
        flow_offset: int = 0,
    ) -> None:
        check_duration(duration, "duration")
        check_chunk(chunk_s)
        profile = _resolve_application_profile(name)
        self._app = profile.name
        self._flow_offset = flow_offset
        self._chunks = self._generate_chunks(profile, duration, seed, chunk_s,
                                             envelope)
        self._buf: Sequence[Packet] = ()
        self._idx = 0

    @staticmethod
    def _generate_chunks(
        profile: ApplicationProfile,
        duration: float,
        seed: int,
        chunk_s: float,
        envelope: RateEnvelope | None,
    ) -> Iterator[tuple[list[float], list[int], list[bool], list[int]]]:
        """Yield one absolute-time ``(times, sizes, uplink, flow_ids)`` chunk.

        Chunk 0's times are the generator's; a later chunk adds its offset
        to each time (``t + offset``, the addition ``Packet.shifted``
        makes).
        """
        offset = 0.0
        index = 0
        while offset < duration:
            length = min(chunk_s, duration - offset)
            rate = None
            if envelope is not None:
                def rate(local: float, _offset: float = offset) -> float:
                    return envelope(_offset + local)
            times, sizes, uplink, flows = application_columns(
                profile, duration=length, seed=_chunk_seed(seed, index),
                rate=rate,
            )
            if offset:
                times = [t + offset for t in times]
            yield times, sizes, uplink, flows
            offset += length
            index += 1

    def _packets(self, chunk) -> list[Packet]:
        """Build one chunk's packets."""
        times, sizes, uplink, flows = chunk
        offset = self._flow_offset
        if offset:
            flows = [flow + offset for flow in flows]
        return packets_from_columns(times, sizes, uplink, flows, self._app)

    def _take_buffer(self) -> Sequence[Packet]:
        """The unread rest of the packet buffer, leaving the buffer empty."""
        rest = self._buf[self._idx:]
        self._buf = ()
        self._idx = 0
        return rest

    def __iter__(self) -> "ChunkedPacketStream":
        return self

    def __next__(self) -> Packet:
        idx = self._idx
        if idx < len(self._buf):
            self._idx = idx + 1
            return self._buf[idx]
        for chunk in self._chunks:
            if chunk[0]:
                self._buf = self._packets(chunk)
                self._idx = 1
                return self._buf[0]
        raise StopIteration

    def packet_blocks(self) -> Iterator[Sequence[Packet]]:
        """Iterate the remaining packets as chunk-local lists.

        Starts from the current cursor position (packets already consumed
        via ``next()`` are not repeated) and leaves the per-packet view
        exhausted as blocks are taken.
        """
        if self._idx < len(self._buf):
            yield self._take_buffer()
        for chunk in self._chunks:
            yield self._packets(chunk)

    def column_blocks(self) -> Iterator[Columns]:
        """Iterate the remaining packets as ``(times, sizes, uplink)`` chunks.

        The same cursor as :meth:`packet_blocks`, with no packet built:
        only a buffer ``next()`` left partly read is read back from its
        packets.
        """
        if self._idx < len(self._buf):
            yield packet_columns(self._take_buffer())
        for times, sizes, uplink, _ in self._chunks:
            yield times, sizes, uplink

    def record_blocks(self) -> Iterator[Records]:
        """Iterate the remaining packets as ``(times, sizes, uplink,
        flow_ids, apps)`` chunks.

        The same cursor as :meth:`column_blocks`, with every field
        :meth:`packet_blocks` would give each packet: flow ids offset and
        the application's label.
        """
        if self._idx < len(self._buf):
            yield packet_records(self._take_buffer())
        offset = self._flow_offset
        for times, sizes, uplink, flows in self._chunks:
            if offset:
                flows = [flow + offset for flow in flows]
            yield times, sizes, uplink, flows, [self._app] * len(times)


def stream_application_packets(
    name: str,
    duration: float = 3600.0,
    seed: int = 0,
    chunk_s: float = 600.0,
    envelope: RateEnvelope | None = None,
) -> ChunkedPacketStream:
    """One application's packets as a lazy, chunked stream.

    Equivalent in distribution to
    :func:`~repro.traces.synthetic.generate_application_trace` but with
    peak memory of one chunk instead of the whole trace.  Packets are
    yielded in non-decreasing timestamp order, as the kernel requires;
    the returned :class:`ChunkedPacketStream` also exposes the
    block-walking fast path (see the module docstring).

    ``envelope`` applies diurnal traffic shaping: a callable from
    *absolute* stream time to a positive session-rate multiplier, handed
    to the per-chunk generator shifted by the chunk's offset so a chunk
    generated for the 9am-10am window sees the 9am-10am rates.  ``None``
    is the unshaped stream, byte-identical to earlier releases.
    """
    return ChunkedPacketStream(name, duration, seed, chunk_s, envelope)


def stream_user_day_packets(
    apps: Iterable[str],
    duration: float = 3600.0,
    seed: int = 0,
    chunk_s: float = 600.0,
    envelope: RateEnvelope | None = None,
) -> "UserDayStream":
    """A multi-application device workload, merged lazily.

    One stream per application (application ``index``'s flow ids offset
    by ``index * 1_000_000`` so applications never collide), merged in
    time order — the streaming analogue of building a user trace with
    :func:`~repro.traces.packet.merge_traces`.  The optional ``envelope``
    shapes every constituent application stream with the same
    time-of-day rate multipliers (see :func:`stream_application_packets`).
    """
    check_duration(duration, "duration")
    check_chunk(chunk_s)
    return UserDayStream([
        ChunkedPacketStream(
            app, duration, _app_stream_seed(seed, index), chunk_s, envelope,
            flow_offset=index * 1_000_000,
        )
        for index, app in enumerate(apps)
    ])


class UserDayStream:
    """Several applications' chunked streams, merged in time order.

    A packet iterator (``heapq.merge`` over the streams, started on the
    first ``next()``) that also offers :meth:`column_blocks` and
    :meth:`record_blocks`.  It has no
    ``packet_blocks()``, so the scalar kernel and a visit window read it
    packet by packet.
    """

    __slots__ = ("_streams", "_merged")

    def __init__(self, streams: Sequence[ChunkedPacketStream]) -> None:
        self._streams = streams
        self._merged: Iterator[Packet] | None = None

    def __iter__(self) -> "UserDayStream":
        return self

    def __next__(self) -> Packet:
        if self._merged is None:
            self._merged = merge_packet_streams(*self._streams)
        return next(self._merged)

    def column_blocks(self) -> Iterator[Columns]:
        """The remaining packets as one ``(times, sizes, uplink)`` block.

        Every application's columns concatenated in application order,
        then stable-sorted by time: the merge's own order (module
        docstring).  Once ``next()`` has started the merge, the block is
        the rest of the merge.
        """
        if self._merged is not None:
            yield packet_columns(list(self._merged))
            return
        yield self._sorted("column_blocks", 3)

    def record_blocks(self) -> Iterator[Records]:
        """The remaining packets as one ``(times, sizes, uplink, flow_ids,
        apps)`` block, in the order of :meth:`column_blocks`."""
        if self._merged is not None:
            yield packet_records(list(self._merged))
            return
        yield self._sorted("record_blocks", 5)

    def _sorted(self, view: str, width: int) -> tuple[list, ...]:
        """Every stream's ``view`` blocks concatenated in application
        order, each of the ``width`` columns stable-sorted by time."""
        columns: tuple[list, ...] = tuple([] for _ in range(width))
        for stream in self._streams:
            for block in getattr(stream, view)():
                for column, part in zip(columns, block):
                    column += part
        times = columns[0]
        order = sorted(range(len(times)), key=times.__getitem__)
        return tuple([column[i] for i in order] for column in columns)


def merge_packet_streams(*streams: Iterable[Packet]) -> Iterator[Packet]:
    """Merge time-ordered packet streams into one, lazily.

    Holds one pending packet per input stream (``heapq.merge``), so merging
    many lazy sources stays bounded-memory.  Inputs must each be in
    non-decreasing timestamp order.
    """
    return heapq.merge(*streams, key=lambda p: p.timestamp)
