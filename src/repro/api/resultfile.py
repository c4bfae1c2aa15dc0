"""The disk cache's file format: a JSON header ahead of raw columns.

One file holds one finished result: a
:class:`~repro.basestation.cell.CellResult`, a
:class:`~repro.metro.execution.MetroResult` or a single-UE
:class:`~repro.sim.results.SimulationResult`.  Four parts, in order:

1. :data:`MAGIC`, eight bytes;
2. the header's length in bytes, a little-endian uint64;
3. the header: UTF-8 JSON, space-padded so the body starts on an 8-byte
   boundary.  It holds the format version, the full key repr, the column
   lengths and every scalar a records query reads (a cell's
   ``CellSummary``, signalling load, duration, peaks, load samples and
   label categories; a metro's name, population, duration and cell
   entries);
4. the body: little-endian 8-byte columns (float64 or int64), back to
   back.  Their order and dtypes are fixed by the code for each result
   kind (a cell's table columns by ``DeviceTable.stored_layout``), never
   read from the file.

:func:`read_result` checks the magic, the format, the key and the exact
file length the header implies, then maps the file read-only.  With
numpy a cell's columns are views on that mapping, so a records query
touches only the header's pages; without numpy they are ``array.array``
copies.  It builds a ``CellResult`` without running its
``__post_init__`` (the stored summary is the folded one), and a
single-UE result's record tuples from their columns.  Nothing is
unpickled.  :func:`write_result` streams each column from its own buffer.

The framing (magic, header length, padded header, 8-byte columns) is
:func:`write_file` and :func:`read_file`, and the on-disk rules around
them are :func:`keyed_path` (a file is named by the SHA-256 of its key's
``repr``), :func:`store_file` (atomic, best-effort writes) and
:func:`load_file` (a bad file is a miss that heals).  The result cache
(:class:`~repro.api.cache.DiskCacheTier`) and the population store
(:mod:`repro.api.populations`, under its own magic) both go through
them.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
import tempfile
from array import array
from dataclasses import fields
from enum import Enum
from itertools import groupby
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

from ..basestation.cell import CellResult, CellSummary, CohortBreakdown
from ..basestation.table import DeviceTable, FloatArray, _np
from ..energy.accounting import EnergyBreakdown
from ..metro.execution import MetroCellResult, MetroResult
from ..rrc.signaling import SignalingLoad
from ..rrc.state_machine import StateInterval, SwitchEvent, SwitchKind
from ..rrc.states import RadioState
from ..sim.engine import LoadSample
from ..sim.results import GapDecision, SessionDelay, SimulationResult
from ..traces.packet import Direction, Packet, PacketTrace

__all__ = [
    "FORMAT", "MAGIC", "keyed_path", "load_file", "read_file", "read_result",
    "store_file", "write_file", "write_result",
]

#: The first eight bytes of every result file.
MAGIC = b"RRCRES\r\n"
#: The file layout's version, stored in the header.  Format 2 was a
#: pickle; format 1 a pickle without the stored summaries.
FORMAT = 3

_T = TypeVar("_T")
_LENGTH = struct.Struct("<Q")
_BODY_ALIGN = 8
_BIG_ENDIAN = sys.byteorder == "big"
_DTYPES = (
    {"d": _np.dtype("<f8"), "q": _np.dtype("<i8")} if _np is not None else {}
)

#: A single-UE result's record tuples, in body order: the result field,
#: the record type and its fields with their kinds.  A kind is ``float``
#: (stored as float64), ``int``, ``bool``, an ``Enum`` (its member
#: index) or ``str`` (an index into the header's string table), all
#: four stored as int64.  Fields are listed in constructor order.
_UE_RECORDS: tuple[tuple[str, type, tuple[tuple[str, Any], ...]], ...] = (
    ("intervals", StateInterval,
     (("start", float), ("end", float), ("state", RadioState))),
    ("switches", SwitchEvent,
     (("time", float), ("kind", SwitchKind), ("from_state", RadioState),
      ("to_state", RadioState), ("energy_j", float), ("delay_s", float))),
    ("gap_decisions", GapDecision,
     (("time", float), ("gap", float), ("switched", bool))),
    ("session_delays", SessionDelay,
     (("arrival_time", float), ("release_time", float), ("flow_id", int))),
    ("packets", Packet,
     (("timestamp", float), ("size", int), ("direction", Direction),
      ("flow_id", int), ("app", str))),
)


def _typecode(kind: Any) -> str:
    return "d" if kind is float else "q"


def _count(value: Any) -> int:
    """A column length read from a header: a non-negative int."""
    if type(value) is not int or value < 0:
        raise ValueError(f"bad column length {value!r}")
    return value


def _scalars(record: Any) -> dict[str, Any]:
    """A dataclass instance's fields as a JSON object."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


# -- record tuples <-> columns ---------------------------------------------------------


def _record_columns(
    records: Sequence[Any],
    layout: tuple[tuple[str, Any], ...],
    strings: dict[str, int],
) -> list[list]:
    """One column of plain numbers per ``(field, kind)`` of ``layout``.

    Strings get codes in first-seen order through ``strings``, which
    becomes the header's string table.
    """
    columns = []
    for name, kind in layout:
        values = [getattr(record, name) for record in records]
        if kind is str:
            values = [strings.setdefault(v, len(strings)) for v in values]
        elif isinstance(kind, type) and issubclass(kind, Enum):
            codes = {member: code for code, member in enumerate(kind)}
            values = [codes[v] for v in values]
        elif kind is bool:
            values = [int(v) for v in values]
        columns.append(values)
    return columns


def _records_from(
    record_type: type,
    layout: tuple[tuple[str, Any], ...],
    columns: Iterator[Any],
    strings: Sequence[str],
) -> tuple:
    """The records whose :func:`_record_columns` the next columns are."""
    values = []
    for _, kind in layout:
        column = next(columns).tolist()
        if kind is str:
            column = map(strings.__getitem__, column)
        elif isinstance(kind, type) and issubclass(kind, Enum):
            column = map(tuple(kind).__getitem__, column)
        elif kind is bool:
            column = map(bool, column)
        values.append(column)
    return tuple(map(record_type, *values))


# -- per-kind headers, columns and layouts -----------------------------------------------


def _cell_header(result: CellResult) -> tuple[dict[str, Any], list]:
    table = result.devices
    policy_cats, cohort_cats = table.labels
    columns = table.stored_columns()
    delays = len(columns[-1])
    summary = result.summary
    header = {
        "dormancy_policy_name": result.dormancy_policy_name,
        "signaling": _scalars(result.signaling),
        "duration_s": result.duration_s,
        "peak_active_devices": result.peak_active_devices,
        "vector_devices": result.vector_devices,
        "load_samples": [
            [s.time, s.active_devices, s.switches_last_minute]
            for s in result.load_samples
        ],
        "summary": {
            **_scalars(summary),
            "learning": dict(summary.learning),
            "cohorts": {label: _scalars(cohort)
                        for label, cohort in summary.cohorts.items()},
        },
        "policies": list(policy_cats),
        "cohorts": list(cohort_cats),
        "lengths": {
            "devices": len(table),
            "session_delays": delays,
            "switch_times": len(result.switch_times),
        },
    }
    typed = [(typecode, column) for (typecode, _), column
             in zip(table.stored_layout(len(table), delays), columns)]
    typed.append(("d", result.switch_times.column))
    return header, typed


def _cell_layout(header: dict[str, Any]) -> list[tuple[str, int]]:
    lengths = header["lengths"]
    n, m, s = (_count(lengths[k])
               for k in ("devices", "session_delays", "switch_times"))
    return [*DeviceTable.stored_layout(n, m), ("d", s)]


def _cell_from(header: dict[str, Any], columns: Iterator[Any]) -> CellResult:
    devices = DeviceTable.from_stored(
        columns, tuple(header["policies"]), tuple(header["cohorts"])
    )
    summary = dict(header["summary"])
    summary["cohorts"] = {label: CohortBreakdown(**cohort)
                          for label, cohort in summary["cohorts"].items()}
    # The stored summary is the folded one: build the result without
    # its __post_init__, setting the fields in declaration order as
    # __init__ does.
    result = object.__new__(CellResult)
    vars(result).update(
        dormancy_policy_name=header["dormancy_policy_name"],
        devices=devices,
        signaling=SignalingLoad(**header["signaling"]),
        duration_s=header["duration_s"],
        peak_active_devices=header["peak_active_devices"],
        switch_times=FloatArray(next(columns)),
        load_samples=tuple(LoadSample(*row) for row in header["load_samples"]),
        vector_devices=header["vector_devices"],
        summary=CellSummary(**summary),
    )
    return result


def _metro_header(result: MetroResult) -> tuple[dict[str, Any], list]:
    cells = []
    typed: list = []
    for entry in result.cells:
        cell_header, cell_columns = _cell_header(entry.result)
        cells.append({
            "name": entry.name,
            "capacity": entry.capacity,
            "dormancy": entry.dormancy,
            "departures": entry.departures,
            "arrivals": entry.arrivals,
            "result": cell_header,
        })
        typed.extend(cell_columns)
    header = {"name": result.name, "devices": result.devices,
              "duration_s": result.duration_s, "cells": cells}
    return header, typed


def _metro_layout(header: dict[str, Any]) -> list[tuple[str, int]]:
    return [column for entry in header["cells"]
            for column in _cell_layout(entry["result"])]


def _metro_from(header: dict[str, Any], columns: Iterator[Any]) -> MetroResult:
    cells = tuple(
        MetroCellResult(
            name=entry["name"], capacity=entry["capacity"],
            dormancy=entry["dormancy"], departures=entry["departures"],
            arrivals=entry["arrivals"],
            result=_cell_from(entry["result"], columns),
        )
        for entry in header["cells"]
    )
    return MetroResult(name=header["name"], devices=header["devices"],
                       duration_s=header["duration_s"], cells=cells)


def _ue_header(result: SimulationResult) -> tuple[dict[str, Any], list]:
    strings: dict[str, int] = {}
    typed: list = []
    lengths = {}
    for name, _, layout in _UE_RECORDS:
        records = (result.effective_trace if name == "packets"
                   else getattr(result, name))
        lengths[name] = len(records)
        columns = _record_columns(records, layout, strings)
        typed.extend((_typecode(kind), column)
                     for (_, kind), column in zip(layout, columns))
    header = {
        "policy_name": result.policy_name,
        "profile_key": result.profile_key,
        "trace_name": result.trace_name,
        "breakdown": _scalars(result.breakdown),
        "effective_trace": result.effective_trace.name,
        "strings": list(strings),
        "lengths": lengths,
    }
    return header, typed


def _ue_layout(header: dict[str, Any]) -> list[tuple[str, int]]:
    lengths = header["lengths"]
    return [(_typecode(kind), _count(lengths[name]))
            for name, _, layout in _UE_RECORDS for _, kind in layout]


def _ue_from(header: dict[str, Any],
             columns: Iterator[Any]) -> SimulationResult:
    strings = header["strings"]
    records = {name: _records_from(record_type, layout, columns, strings)
               for name, record_type, layout in _UE_RECORDS}
    return SimulationResult(
        policy_name=header["policy_name"],
        profile_key=header["profile_key"],
        trace_name=header["trace_name"],
        breakdown=EnergyBreakdown(**header["breakdown"]),
        intervals=records["intervals"],
        switches=records["switches"],
        effective_trace=PacketTrace(records["packets"],
                                    name=header["effective_trace"]),
        gap_decisions=records["gap_decisions"],
        session_delays=records["session_delays"],
    )


#: kind -> (result type, header and columns, body layout, rebuild).
_KINDS = {
    "metro": (MetroResult, _metro_header, _metro_layout, _metro_from),
    "cell": (CellResult, _cell_header, _cell_layout, _cell_from),
    "ue": (SimulationResult, _ue_header, _ue_layout, _ue_from),
}


# -- reading and writing --------------------------------------------------------------


def _column_buffer(typecode: str, column: Any):
    """``column`` as a little-endian buffer of its typecode, unchanged if it is one."""
    if _np is not None:
        return _np.ascontiguousarray(column, dtype=_DTYPES[typecode])
    if _BIG_ENDIAN or not (isinstance(column, array)
                           and column.typecode == typecode):
        column = array(typecode, column)  # a copy: never swap the caller's
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def write_file(handle: BinaryIO, magic: bytes, header: dict[str, Any],
               columns: Iterable[tuple[str, Any]]) -> None:
    """Write one header-first file to ``handle``: ``magic``, ``header``, ``columns``.

    The header is compact JSON, space-padded so the body starts on an
    8-byte boundary; each ``(typecode, values)`` column is then written
    from its own little-endian buffer, so the body is never assembled in
    memory.
    """
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    encoded += b" " * (-(len(magic) + _LENGTH.size + len(encoded)) % _BODY_ALIGN)
    handle.write(magic + _LENGTH.pack(len(encoded)) + encoded)
    for typecode, column in columns:
        handle.write(_column_buffer(typecode, column))


def write_result(handle: BinaryIO, key_repr: str, result: Any) -> None:
    """Write ``result``'s file, stored under ``key_repr``, to ``handle``.

    Raises ``TypeError`` for anything but the three result kinds, before
    writing a byte.
    """
    for kind, (result_type, encode, _, _) in _KINDS.items():
        if isinstance(result, result_type):
            break
    else:
        raise TypeError(
            "the disk cache stores CellResult, MetroResult and "
            f"SimulationResult, not {type(result).__name__}"
        )
    body_header, columns = encode(result)
    write_file(handle, MAGIC,
               {"format": FORMAT, "key": key_repr, "kind": kind, **body_header},
               columns)


def _read_columns(mapped: mmap.mmap, offset: int, typecode: str,
                  length: int, count: int) -> list:
    """``count`` adjacent columns of one typecode and length at ``offset``.

    With numpy they are the rows of one 2-D view on the mapping.
    """
    if _np is not None:
        block = _np.frombuffer(mapped, dtype=_DTYPES[typecode],
                               count=count * length, offset=offset)
        return list(block.reshape(count, length))
    size = 8 * length
    columns = []
    for i in range(count):
        start = offset + i * size
        column = array(typecode)
        column.frombytes(mapped[start:start + size])
        if _BIG_ENDIAN:
            column.byteswap()
        columns.append(column)
    return columns


def read_file(
    path: Path,
    magic: bytes,
    version: int,
    key_repr: str,
    layout: Callable[[dict[str, Any]], list[tuple[str, int]]],
) -> tuple[dict[str, Any], list]:
    """The header and the columns of the header-first file at ``path``.

    The file must start with ``magic``, its header must hold ``version``
    as its ``format`` and ``key_repr`` as its ``key``, and its length must
    be exactly what the ``(typecode, length)`` columns of
    ``layout(header)`` imply; else ``ValueError`` (or another
    non-``OSError`` exception) is raised.  ``OSError`` means the file
    cannot be opened or mapped.  With numpy the columns are read-only
    views on the file's mapping, which lives as long as they do; without
    numpy they are ``array.array`` copies.
    """
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    start = len(magic) + _LENGTH.size
    if mapped[:len(magic)] != magic:
        raise ValueError("not a file of this kind")
    (header_length,) = _LENGTH.unpack_from(mapped, len(magic))
    body = start + header_length
    header = json.loads(mapped[start:body])
    if header["format"] != version or header["key"] != key_repr:
        raise ValueError("file of another format or key")
    columns = layout(header)
    if len(mapped) != body + 8 * sum(length for _, length in columns):
        raise ValueError("file length does not match its header")
    views = []
    offset = body
    for (typecode, length), run in groupby(columns):
        count = len(list(run))
        views.extend(_read_columns(mapped, offset, typecode, length, count))
        offset += 8 * count * length
    return header, views


def read_result(path: Path, key_repr: str) -> Any:
    """The result stored at ``path`` under ``key_repr``.

    Raises as :func:`read_file` does for a file that is not a complete
    format-3 result file of that key.  With numpy a cell's or a metro's
    columns stay views on the read-only mapping.
    """
    header, views = read_file(
        path, MAGIC, FORMAT, key_repr,
        lambda header: _KINDS[header["kind"]][2](header),
    )
    return _KINDS[header["kind"]][3](header, iter(views))


def keyed_path(directory: Path, key_repr: str, suffix: str) -> Path:
    """The file under ``directory`` of the key whose ``repr`` is ``key_repr``.

    Its name is the SHA-256 of the repr, then ``suffix``, so cooperating
    processes (and later sessions) address the same file for the same key
    without coordination.
    """
    digest = hashlib.sha256(key_repr.encode("utf-8")).hexdigest()
    return directory / f"{digest}{suffix}"


def load_file(path: Path, read: Callable[[Path], _T]) -> _T | None:
    """``read(path)``, or ``None`` on any miss.

    A file ``read`` refuses (any exception but ``OSError``: wrong magic,
    format or key, a length the header does not imply) is removed, best
    effort, so its slot heals on the next store.  A file that cannot be
    opened or mapped (``OSError``: permissions, descriptors exhausted) is a
    miss that leaves the file alone.
    """
    try:
        return read(path)
    except OSError:
        return None
    except Exception:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def store_file(path: Path, write: Callable[[BinaryIO], None]) -> bool:
    """Write ``path`` atomically through ``write(handle)``; whether it was.

    ``write`` fills a temp file in ``path``'s directory (made if missing),
    which then replaces ``path``, so concurrent writers are safe and
    readers only ever see a complete file.  A filesystem that refuses the
    write (read-only, full, ...) fails quietly with ``False``; any other
    exception removes the temp file and propagates.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                   suffix=path.suffix)
        try:
            with os.fdopen(fd, "wb") as handle:
                write(handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True
