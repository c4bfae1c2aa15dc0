"""Windowed packet streams: one cell visit's slice of a device workload.

A metro UE owns a single full-horizon workload (a pure function of its
global index and the metro seed); a *visit* to a cell sees only the
packets whose timestamps fall inside the visit window ``[start, stop)``.
:func:`windowed_stream` produces that slice without materialising the
whole workload, and — crucially for kernel throughput — preserves the
block protocols when the underlying stream offers them: a window over a
``packet_blocks()`` source walks blocks on the scalar kernel, and one
over a source that also has ``column_blocks()`` hands the vector kernel
column blocks, so no ``Packet`` is built for it
(:mod:`repro.traces.streaming`).

Regenerating the full stream for every visit and slicing it (rather
than generating per-visit streams) is deliberate: the packet sequence a
UE emits must not depend on its mobility timeline, so the same device
under different metros — or under none — produces the same traffic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from ..traces.packet import Columns, Packet, packet_columns

__all__ = ["windowed_stream"]


def windowed_stream(source: Iterable[Packet], start: float,
                    stop: float = math.inf) -> Iterable[Packet]:
    """Restrict ``source`` to packets with ``start <= timestamp < stop``.

    Returns a block-capable stream (with ``packet_blocks()``, and with
    ``column_blocks()`` too when ``source`` has both) when ``source`` has
    ``packet_blocks()``, else a plain filtering iterator.  ``source``
    must be time-ordered, which every generator in :mod:`repro.traces`
    guarantees.
    """
    if start < 0:
        raise ValueError(f"window start must be >= 0, got {start}")
    if stop <= start:
        raise ValueError(f"window stop ({stop}) must be > start ({start})")
    if getattr(source, "packet_blocks", None) is not None:
        if getattr(source, "column_blocks", None) is not None:
            return _WindowedColumnStream(source, start, stop)
        return _WindowedBlockStream(source, start, stop)
    return _windowed_iter(source, start, stop)


def _windowed_iter(source: Iterable[Packet], start: float,
                   stop: float) -> Iterator[Packet]:
    for packet in source:
        ts = packet.timestamp
        if ts < start:
            continue
        if ts >= stop:
            break
        yield packet


class _WindowedBlockStream:
    """Block-protocol window over a block-capable source stream."""

    __slots__ = ("_source", "_start", "_stop", "_buffer", "_index", "_cursor")

    def __init__(self, source, start: float, stop: float) -> None:
        self._source = source
        self._start = start
        self._stop = stop
        self._buffer: Sequence[Packet] = ()
        self._index = 0
        self._cursor: Iterator[Sequence[Packet]] | None = None

    def packet_blocks(self) -> Iterator[Sequence[Packet]]:
        start, stop = self._start, self._stop
        for block in self._source.packet_blocks():
            if not block:
                continue
            if block[-1].timestamp < start:
                continue
            lo = 0
            if block[0].timestamp < start:
                lo = bisect_left(block, start, key=_timestamp)
            hi = len(block)
            past_stop = block[-1].timestamp >= stop
            if past_stop:
                hi = bisect_left(block, stop, lo, key=_timestamp)
            if lo < hi:
                yield block if lo == 0 and hi == len(block) else block[lo:hi]
            if past_stop:
                # Blocks are time-ordered: everything after is >= stop.
                return

    def __iter__(self) -> "_WindowedBlockStream":
        return self

    def __next__(self) -> Packet:
        if self._cursor is None:
            self._cursor = self.packet_blocks()
        while self._index >= len(self._buffer):
            self._buffer = next(self._cursor)  # StopIteration ends us too
            self._index = 0
        packet = self._buffer[self._index]
        self._index += 1
        return packet


class _WindowedColumnStream(_WindowedBlockStream):
    """A block window that also cuts its source's column blocks."""

    __slots__ = ()

    def column_blocks(self) -> Iterator[Columns]:
        """The window's packets as ``(times, sizes, uplink)`` blocks.

        Cuts each source block with ``bisect_left`` on its time column,
        as :meth:`packet_blocks` cuts packets.  A buffer the packet view
        left partly read comes out first; the source's views share one
        cursor, so the rest follows from its column blocks.
        """
        if self._index < len(self._buffer):
            rest = self._buffer[self._index:]
            self._buffer = ()
            self._index = 0
            yield packet_columns(rest)
        start, stop = self._start, self._stop
        for times, sizes, uplink in self._source.column_blocks():
            if not times:
                continue
            if times[-1] < start:
                continue
            lo = 0
            if times[0] < start:
                lo = bisect_left(times, start)
            hi = len(times)
            past_stop = times[-1] >= stop
            if past_stop:
                hi = bisect_left(times, stop, lo)
            if lo < hi:
                if lo == 0 and hi == len(times):
                    yield times, sizes, uplink
                else:
                    yield times[lo:hi], sizes[lo:hi], uplink[lo:hi]
            if past_stop:
                return


def _timestamp(packet: Packet) -> float:
    return packet.timestamp
