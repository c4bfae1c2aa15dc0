"""Minimal libpcap (``.pcap``) reader and writer.

The paper's traces were collected with ``tcpdump`` on Android phones.  To
let users of this library run the algorithms on their own captures without
pulling in heavyweight dependencies, this module implements the classic
libpcap file format (magic ``0xa1b2c3d4``, including the swapped-byte-order
and nanosecond-resolution variants) from scratch using :mod:`struct`.

Packets are converted to :class:`~repro.traces.packet.Packet` records.  The
direction of each packet is inferred by comparing the IP source address with
a caller-supplied device address (or the most common source address when no
address is given, which is a reasonable heuristic for single-device
captures).  Only IPv4 over Ethernet, Linux cooked capture (SLL) and raw IP
link types are parsed; anything else falls back to a direction-less record
with the captured length.

The writer produces standard microsecond-resolution pcap files containing
synthetic raw-IP packets, which is useful for exporting generated workloads
so they can be inspected with standard tools.
"""

from __future__ import annotations

import socket
import struct
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from .packet import Direction, Packet, PacketTrace

__all__ = [
    "PcapError",
    "PcapRecord",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
]

_MAGIC_MICRO = 0xA1B2C3D4
_MAGIC_NANO = 0xA1B23C4D

_LINKTYPE_ETHERNET = 1
_LINKTYPE_RAW_IP = 101
_LINKTYPE_LINUX_SLL = 113

_GLOBAL_HEADER = struct.Struct("IHHiIII")
_RECORD_HEADER = struct.Struct("IIII")


class PcapError(ValueError):
    """Raised when a pcap file is malformed or uses an unsupported format."""


@dataclass(frozen=True)
class PcapRecord:
    """One raw record from a pcap file, before conversion to :class:`Packet`."""

    timestamp: float
    captured_length: int
    original_length: int
    data: bytes


class PcapReader:
    """Iterates over the records of a classic pcap capture file."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        header = stream.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (_MAGIC_MICRO, _MAGIC_NANO):
            self._endian = "<"
        else:
            magic_be = struct.unpack(">I", header[:4])[0]
            if magic_be in (_MAGIC_MICRO, _MAGIC_NANO):
                self._endian = ">"
                magic = magic_be
            else:
                raise PcapError(f"not a pcap file (magic 0x{magic:08x})")
        self._nanosecond = magic == _MAGIC_NANO
        fields = struct.unpack(self._endian + "IHHiIII", header)
        self.version = (fields[1], fields[2])
        self.snaplen = fields[5]
        self.link_type = fields[6]

    @property
    def nanosecond_resolution(self) -> bool:
        """Whether timestamps use nanosecond (rather than microsecond) fractions."""
        return self._nanosecond

    def __iter__(self) -> Iterator[PcapRecord]:
        return self

    def __next__(self) -> PcapRecord:
        header = self._stream.read(_RECORD_HEADER.size)
        if not header:
            raise StopIteration
        if len(header) < _RECORD_HEADER.size:
            raise PcapError("truncated pcap record header")
        ts_sec, ts_frac, captured, original = struct.unpack(
            self._endian + "IIII", header
        )
        data = self._stream.read(captured)
        if len(data) < captured:
            raise PcapError("truncated pcap record payload")
        divisor = 1e9 if self._nanosecond else 1e6
        return PcapRecord(
            timestamp=ts_sec + ts_frac / divisor,
            captured_length=captured,
            original_length=original,
            data=data,
        )

    def records(self) -> list[PcapRecord]:
        """Read and return all remaining records."""
        return list(self)


class PcapWriter:
    """Writes microsecond-resolution pcap files with raw-IP link type."""

    def __init__(self, stream: BinaryIO, snaplen: int = 65535) -> None:
        self._stream = stream
        header = struct.pack(
            "<IHHiIII", _MAGIC_MICRO, 2, 4, 0, 0, snaplen, _LINKTYPE_RAW_IP
        )
        self._stream.write(header)

    def write_record(self, timestamp: float, data: bytes) -> None:
        """Append one record with the given timestamp and payload bytes."""
        if timestamp < 0:
            raise ValueError("pcap timestamps must be non-negative")
        ts_sec = int(timestamp)
        ts_usec = int(round((timestamp - ts_sec) * 1e6))
        if ts_usec >= 1_000_000:
            ts_sec += 1
            ts_usec -= 1_000_000
        header = struct.pack("<IIII", ts_sec, ts_usec, len(data), len(data))
        self._stream.write(header)
        self._stream.write(data)

    def write_packet(self, packet: Packet, device_address: str = "10.0.0.2") -> None:
        """Serialise ``packet`` as a minimal synthetic IPv4/UDP datagram.

        The uplink/downlink direction is encoded by placing ``device_address``
        as the source (uplink) or destination (downlink), so a round trip
        through :func:`read_pcap` recovers the direction.
        """
        remote = "192.0.2.1"
        if packet.direction.is_uplink:
            src, dst = device_address, remote
        else:
            src, dst = remote, device_address
        payload_length = max(0, packet.size - 28)  # IP (20) + UDP (8) headers
        total_length = 28 + payload_length
        ip_header = struct.pack(
            ">BBHHHBBH4s4s",
            0x45,  # version 4, IHL 5
            0,
            total_length,
            0,
            0,
            64,
            socket.IPPROTO_UDP,
            0,
            socket.inet_aton(src),
            socket.inet_aton(dst),
        )
        udp_header = struct.pack(">HHHH", 5000 + packet.flow_id % 1000, 443,
                                 8 + payload_length, 0)
        data = ip_header + udp_header + bytes(payload_length)
        self.write_record(packet.timestamp, data)


def _extract_ipv4(data: bytes, link_type: int) -> bytes | None:
    """Return the IPv4 header+payload from a link-layer frame, or ``None``."""
    if link_type == _LINKTYPE_RAW_IP:
        payload = data
    elif link_type == _LINKTYPE_ETHERNET:
        if len(data) < 14:
            return None
        ethertype = struct.unpack(">H", data[12:14])[0]
        if ethertype != 0x0800:
            return None
        payload = data[14:]
    elif link_type == _LINKTYPE_LINUX_SLL:
        if len(data) < 16:
            return None
        protocol = struct.unpack(">H", data[14:16])[0]
        if protocol != 0x0800:
            return None
        payload = data[16:]
    else:
        return None
    if len(payload) < 20 or payload[0] >> 4 != 4:
        return None
    return payload


def _parse_ipv4(payload: bytes) -> tuple[str, str, int, int] | None:
    """Parse an IPv4 header, returning (src, dst, total_length, flow_hash)."""
    ihl = (payload[0] & 0x0F) * 4
    if len(payload) < ihl:
        return None
    total_length = struct.unpack(">H", payload[2:4])[0]
    protocol = payload[9]
    src = socket.inet_ntoa(payload[12:16])
    dst = socket.inet_ntoa(payload[16:20])
    src_port = dst_port = 0
    if protocol in (socket.IPPROTO_TCP, socket.IPPROTO_UDP) and len(payload) >= ihl + 4:
        src_port, dst_port = struct.unpack(">HH", payload[ihl : ihl + 4])
    # Use a stable hash (not the per-process-salted built-in) so the same
    # capture always yields the same flow identifiers.
    flow_key = (f"{min(src, dst)}|{max(src, dst)}|{protocol}|"
                f"{min(src_port, dst_port)}|{max(src_port, dst_port)}")
    flow_hash = zlib.crc32(flow_key.encode("ascii")) & 0x7FFFFFFF
    return src, dst, total_length, flow_hash


def read_pcap(
    source: str | Path | BinaryIO,
    device_address: str | None = None,
    name: str = "",
) -> PacketTrace:
    """Read a pcap capture into a :class:`PacketTrace`.

    Parameters
    ----------
    source:
        Path to a ``.pcap`` file or an open binary stream.
    device_address:
        IPv4 address of the mobile device; packets sourced from it are
        uplink, everything else downlink.  When omitted, the most frequent
        source address in the capture is assumed to be the device.
    name:
        Optional trace name; defaults to the file stem when reading a path.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("rb") as stream:
            return read_pcap(stream, device_address=device_address,
                             name=name or path.stem)

    reader = PcapReader(source)
    parsed: list[tuple[float, str, str, int, int]] = []
    for record in reader:
        ip_payload = _extract_ipv4(record.data, reader.link_type)
        if ip_payload is None:
            continue
        fields = _parse_ipv4(ip_payload)
        if fields is None:
            continue
        src, dst, total_length, flow_hash = fields
        length = total_length or record.original_length
        parsed.append((record.timestamp, src, dst, length, flow_hash))

    if not parsed:
        return PacketTrace([], name=name)

    if device_address is None:
        address_counts = Counter(src for _, src, _, _, _ in parsed)
        address_counts.update(dst for _, _, dst, _, _ in parsed)
        # Prefer RFC1918-style client addresses when counts tie.
        device_address = address_counts.most_common(1)[0][0]

    packets = [
        Packet(
            timestamp=ts,
            size=length,
            direction=Direction.UPLINK if src == device_address else Direction.DOWNLINK,
            flow_id=flow_hash,
        )
        for ts, src, dst, length, flow_hash in parsed
    ]
    first = min(p.timestamp for p in packets)
    return PacketTrace([p.shifted(-first) for p in packets], name=name)


def write_pcap(
    destination: str | Path | BinaryIO,
    trace: PacketTrace,
    device_address: str = "10.0.0.2",
) -> None:
    """Write ``trace`` as a pcap file of synthetic IPv4/UDP datagrams."""
    if isinstance(destination, (str, Path)):
        with Path(destination).open("wb") as stream:
            write_pcap(stream, trace, device_address=device_address)
        return
    writer = PcapWriter(destination)
    for packet in trace:
        writer.write_packet(packet, device_address=device_address)
