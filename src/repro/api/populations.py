"""The population store: a shared population slice is synthesised once per run.

A plan replays one population under every carrier, device policy and
station it sweeps, and each :class:`~repro.api.cells.CellRunSpec` used to
synthesise it again.  The store keeps one device slice ``[start, stop)``
of a :class:`~repro.api.cells.CellSpec` (a shard's devices) as one file,
drawn once and read by every spec that replays those devices.

**The file** uses the result cache's header-first framing
(:func:`repro.api.resultfile.write_file` / :func:`~repro.api.resultfile.read_file`)
under its own :data:`MAGIC`:

1. :data:`MAGIC`, eight bytes, and the header's length;
2. a JSON header holding the format, the key repr, the device and packet
   counts and the application labels;
3. little-endian 8-byte columns: the ``devices + 1`` per-device row
   offsets, then ``times`` (float64), ``sizes``, ``uplink`` (0 or 1),
   ``flow_ids`` and app codes (indices into the header's labels), one row
   per packet, device after device.

The key is ``(CellSpec.fingerprint, start, stop, GENERATOR_VERSION)``
and the file name the SHA-256 of its ``repr``.  A read checks the magic,
the format, the key, the exact length and the offsets, then maps the
file read-only; each device comes back as a :class:`StoredSource`, which
offers the views of a generated stream (``column_blocks()``,
``packet_blocks()``, iteration) and hands out Python floats, ints and
bools.  Writes and reads follow the result cache's on-disk rules
(:func:`~repro.api.resultfile.store_file`,
:func:`~repro.api.resultfile.load_file`): any bad file is a miss that
heals, as it is unlinked and the slice is drawn again or streamed
lazily.

**Byte identity.**  A slice is drawn by draining each device's lazy
stream once (:meth:`CellSpec.device_streams`), with the generator calls
and order of a lazy run, through the streams' ``record_blocks()``; a
user-day device keeps the application-order stable sort its
``column_blocks()`` applies, its flow-id offsets and its app labels.
Float64 round-trips every Python float, so a device built from the file
replays exactly the packets its lazy stream would, and every result is
byte-identical with or without the store.

**Who draws.**  :class:`RunPopulations` serves one ``run()`` of a runner:
every slice that two or more pending specs read is drawn once into the
disk tier's :data:`SUBDIRECTORY`, or into a temporary directory made
only then and removed when the run ends.  The slice's first reader draws
it while it builds its devices (:class:`PopulationSlot`), in process or
in a pool worker.  A slice with one reader streams lazily unless its
file is already on the disk tier.
"""

from __future__ import annotations

import shutil
import tempfile
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Hashable, Iterator

from ..traces.packet import Columns, Packet, packet_columns, packets_from_records
from .cells import CellRunSpec, shard_sizes
from .resultfile import (
    keyed_path,
    load_file,
    read_file,
    store_file,
    write_file,
)

if TYPE_CHECKING:
    from .cells import CellSpec

__all__ = [
    "FORMAT",
    "GENERATOR_VERSION",
    "MAGIC",
    "SUBDIRECTORY",
    "PopulationSlot",
    "PopulationStore",
    "RunPopulations",
    "StoredPopulation",
    "StoredSource",
    "draw_population",
    "population_key",
]

#: The first eight bytes of every population file.
MAGIC = b"RRCPOP\r\n"
#: The population file layout's version, stored in the header.
FORMAT = 1
#: The synthesis this store caches.  Move it whenever a change to the
#: generators, chunking, user-day merging, device seeding or envelopes
#: changes what a spec draws, so no stored population of the old
#: generator is read again; ``tests/api/test_populations.py`` pins it next
#: to the digests of two small populations.
GENERATOR_VERSION = 1
#: The disk tier's subdirectory that holds population files.
SUBDIRECTORY = "populations"


def population_key(cell: CellSpec, start: int, stop: int) -> tuple:
    """The store key of devices ``[start, stop)`` of ``cell``."""
    return (cell.fingerprint, start, stop, GENERATOR_VERSION)


def draw_population(
    cell: CellSpec, start: int, stop: int
) -> tuple[list[str], list[array]]:
    """Synthesise devices ``[start, stop)`` of ``cell`` as stored columns.

    Returns the application labels and the six columns of the file body
    (module docstring), as 8-byte ``array.array`` columns, so a drawn
    slice holds 48 bytes per packet, not Python objects.  Each device's
    lazy stream is drained once, through ``record_blocks()``, in device
    order.
    """
    offsets = array("q", [0])
    times = array("d")
    sizes, uplink, flows, codes = (array("q") for _ in range(4))
    labels: dict[str, int] = {}
    code = labels.setdefault
    for stream in cell.device_streams(start, stop):
        for block in stream.record_blocks():
            times.extend(block[0])
            sizes.extend(block[1])
            uplink.extend(block[2])
            flows.extend(block[3])
            codes.extend([code(app, len(labels)) for app in block[4]])
        offsets.append(len(times))
    return list(labels), [offsets, times, sizes, uplink, flows, codes]


def _layout(header: dict[str, Any]) -> list[tuple[str, int]]:
    """The body's ``(typecode, length)`` columns (module docstring)."""
    devices, packets = header["devices"], header["packets"]
    for count in (devices, packets):
        if type(count) is not int or count < 0:
            raise ValueError(f"bad population count {count!r}")
    return [("q", devices + 1), ("d", packets), ("q", packets),
            ("q", packets), ("q", packets), ("q", packets)]


class StoredPopulation:
    """One mapped population slice: each device's packets as a source.

    Built by :meth:`PopulationStore.load` from a file's header and
    columns.  With numpy the columns are read-only views on the file's
    mapping, which lives as long as they do (replacing or unlinking the
    file leaves it intact); without numpy they are ``array.array`` copies.
    """

    __slots__ = ("_apps", "_offsets", "_times", "_sizes", "_uplink",
                 "_flows", "_codes")

    def __init__(self, header: dict[str, Any], columns: list) -> None:
        offsets = columns[0].tolist()
        if offsets[0] != 0 or offsets[-1] != header["packets"] or any(
                low > high for low, high in zip(offsets, offsets[1:])):
            raise ValueError("population offsets do not tile its packets")
        self._apps = tuple(header["apps"])
        self._offsets = offsets
        (self._times, self._sizes, self._uplink, self._flows,
         self._codes) = columns[1:]

    def sources(self) -> list[StoredSource]:
        """One fresh :class:`StoredSource` per device, in device order."""
        offsets = self._offsets
        return [StoredSource(self, low, high)
                for low, high in zip(offsets, offsets[1:])]

    def columns(self, low: int, high: int) -> Columns:
        """Rows ``[low, high)`` as a ``(times, sizes, uplink)`` block."""
        return (self._times[low:high].tolist(),
                self._sizes[low:high].tolist(),
                list(map(bool, self._uplink[low:high].tolist())))

    def packets(self, low: int, high: int) -> list[Packet]:
        """Rows ``[low, high)`` as packets, flow ids and app labels included."""
        return packets_from_records(
            self._times[low:high].tolist(),
            self._sizes[low:high].tolist(),
            self._uplink[low:high].tolist(),
            self._flows[low:high].tolist(),
            map(self._apps.__getitem__, self._codes[low:high].tolist()),
        )


class StoredSource:
    """One stored device's packets, with the views of a generated stream.

    ``column_blocks()``, ``packet_blocks()`` and iteration share one
    cursor, as a :class:`~repro.traces.streaming.ChunkedPacketStream`'s
    do: the device's rows come out once, as one block, and a packet
    buffer ``next()`` left partly read comes out first.
    """

    __slots__ = ("_population", "_low", "_high", "_buf", "_idx")

    def __init__(self, population: StoredPopulation, low: int,
                 high: int) -> None:
        self._population = population
        self._low = low
        self._high = high
        self._buf: list[Packet] = []
        self._idx = 0

    def _rows(self) -> tuple[int, int]:
        """The unread rows, marked read."""
        low, high = self._low, self._high
        self._low = high
        return low, high

    def _take_buffer(self) -> list[Packet]:
        rest = self._buf[self._idx:]
        self._buf = []
        self._idx = 0
        return rest

    def __iter__(self) -> StoredSource:
        return self

    def __next__(self) -> Packet:
        if self._idx >= len(self._buf):
            low, high = self._rows()
            if low == high:
                raise StopIteration
            self._buf = self._population.packets(low, high)
            self._idx = 0
        self._idx += 1
        return self._buf[self._idx - 1]

    def packet_blocks(self) -> Iterator[list[Packet]]:
        """The remaining packets as one block."""
        if self._idx < len(self._buf):
            yield self._take_buffer()
        low, high = self._rows()
        if low < high:
            yield self._population.packets(low, high)

    def column_blocks(self) -> Iterator[Columns]:
        """The remaining packets as one ``(times, sizes, uplink)`` block."""
        if self._idx < len(self._buf):
            yield packet_columns(self._take_buffer())
        low, high = self._rows()
        if low < high:
            yield self._population.columns(low, high)


class PopulationStore:
    """Population slice files under one directory, named by key digest.

    Writes are atomic and best effort, and :meth:`load` treats any bad
    file as a miss and unlinks it, so the slot heals on the next store:
    the result cache's rules (:func:`~repro.api.resultfile.store_file`,
    :func:`~repro.api.resultfile.load_file`).
    """

    def __init__(self, directory: str | Path) -> None:
        self._dir = Path(directory)

    def path_for(self, key_repr: str) -> Path:
        """The file of the key whose ``repr`` is ``key_repr``."""
        return keyed_path(self._dir, key_repr, ".pop")

    def load(self, cell: CellSpec, start: int,
             stop: int) -> StoredPopulation | None:
        """The stored slice, or ``None`` on any miss.

        A file that fails validation is removed (best effort); one that
        cannot be opened or mapped is a miss that stays.
        """
        key_repr = repr(population_key(cell, start, stop))

        def read(path: Path) -> StoredPopulation:
            return StoredPopulation(
                *read_file(path, MAGIC, FORMAT, key_repr, _layout))

        return load_file(self.path_for(key_repr), read)

    def store(self, cell: CellSpec, start: int, stop: int) -> bool:
        """Draw devices ``[start, stop)`` of ``cell`` and write their file.

        Returns whether the file was written: a filesystem that refuses
        the write fails quietly, and readers then stream lazily.  The draw
        runs once the temp file exists, so a store that cannot be written
        to costs no draw.
        """
        key_repr = repr(population_key(cell, start, stop))

        def write(handle: BinaryIO) -> None:
            apps, columns = draw_population(cell, start, stop)
            header = {"format": FORMAT, "key": key_repr,
                      "devices": stop - start, "packets": len(columns[1]),
                      "apps": apps}
            write_file(handle, MAGIC, header,
                       zip(("q", "d", "q", "q", "q", "q"), columns))

        return store_file(self.path_for(key_repr), write)


class PopulationSlot:
    """A reader's handle on one slice's file in a store.

    :meth:`CellSpec.build_devices` opens it, and every open loads the
    file afresh: each reader maps it and drops the mapping with its
    devices, so a run holds no population longer than one spec's shard
    does.  With ``draw`` (a slice several specs read) the first open that
    finds no good file draws the slice and stores it; later opens only
    read, so a slot draws at most once, and a store that refuses the write
    leaves the other readers streaming lazily.  Without ``draw`` (a single
    reader's slice) only a file already in the store is read.  A pool
    task gets its own copy of the slot: a worker that opens a slice
    before any file of it exists draws it as well, and the atomic
    ``os.replace`` keeps those racing writes safe.
    """

    __slots__ = ("_directory", "_draw")

    def __init__(self, directory: Path, draw: bool) -> None:
        self._directory = directory
        self._draw = draw

    def open(self, cell: CellSpec, start: int,
             stop: int) -> StoredPopulation | None:
        """Devices ``[start, stop)`` of ``cell`` from the store, or ``None``."""
        store = PopulationStore(self._directory)
        draw, self._draw = self._draw, False
        population = store.load(cell, start, stop)
        if population is None and draw and store.store(cell, start, stop):
            population = store.load(cell, start, stop)
        return population


class RunPopulations:
    """The population slots of one run's pending specs.

    A context manager around one ``run()``'s phase 2.  Every slice that
    two or more pending specs read gets one drawing
    :class:`PopulationSlot`, shared by its readers.  The store is the
    disk tier's :data:`SUBDIRECTORY` when ``disk_directory`` is given,
    where a single reader's slice also gets a slot that only reads;
    without a disk tier it is a temporary directory, made on entry only
    if some slice is shared and removed on exit.  If no temporary
    directory can be made, every spec streams lazily.  Runners ask
    :meth:`of` for each pending spec's per-shard slots.
    """

    def __init__(self, pending: dict[Hashable, Any],
                 disk_directory: Path | None) -> None:
        self._disk_directory = disk_directory
        # Per pending cell spec, the slices its shards read; per slice, how
        # many shards of pending specs read it.
        self._slices: dict[Hashable, list[tuple]] = {}
        self._readers: dict[tuple, int] = {}
        for key, spec in pending.items():
            if not isinstance(spec, CellRunSpec):
                continue
            fingerprint = spec.cell.fingerprint
            shards = self._slices[key] = []
            stop = 0
            for size in shard_sizes(spec.cell.devices, spec.effective_shards):
                start, stop = stop, stop + size
                where = (fingerprint, start, stop)
                self._readers[where] = self._readers.get(where, 0) + 1
                shards.append(where)
        self._slots: dict[tuple, PopulationSlot] = {}
        self._temporary: str | None = None

    def __enter__(self) -> RunPopulations:
        if not self._readers:
            return self
        if self._disk_directory is not None:
            directory = Path(self._disk_directory, SUBDIRECTORY)
        elif any(count > 1 for count in self._readers.values()):
            try:
                self._temporary = tempfile.mkdtemp(prefix="repro-populations-")
            except OSError:  # no writable temp directory: stream lazily
                return self
            directory = Path(self._temporary)
        else:
            return self
        for where, count in self._readers.items():
            if count > 1 or self._disk_directory is not None:
                self._slots[where] = PopulationSlot(directory, count > 1)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._slots = {}
        if self._temporary is not None:
            shutil.rmtree(self._temporary, ignore_errors=True)
            self._temporary = None

    def of(self, key: Hashable) -> tuple[PopulationSlot | None, ...] | None:
        """Pending spec ``key``'s slot per shard, or ``None`` for none."""
        if not self._slots:
            return None
        slots = tuple(map(self._slots.get, self._slices.get(key, ())))
        return slots if any(slots) else None
