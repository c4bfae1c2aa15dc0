"""Tests for the pcap reader/writer round trip."""

from __future__ import annotations

import io
import struct

import pytest

from repro.traces import Direction, Packet, PacketTrace, PcapError, read_pcap, write_pcap
from repro.traces.pcap import PcapReader


def pcap_bytes(trace):
    """``trace`` written as a pcap file in memory."""
    buffer = io.BytesIO()
    write_pcap(buffer, trace)
    return buffer.getvalue()


@pytest.fixture
def round_trip_trace():
    return PacketTrace(
        [
            Packet(0.0, 200, Direction.UPLINK, flow_id=1),
            Packet(0.5, 1400, Direction.DOWNLINK, flow_id=1),
            Packet(10.0, 100, Direction.UPLINK, flow_id=2),
            Packet(10.2, 900, Direction.DOWNLINK, flow_id=2),
        ],
        name="roundtrip",
    )


class TestRoundTrip:
    def test_packet_count_preserved(self, round_trip_trace):
        data = pcap_bytes(round_trip_trace)
        restored = read_pcap(io.BytesIO(data), device_address="10.0.0.2")
        assert len(restored) == len(round_trip_trace)

    def test_timestamps_preserved(self, round_trip_trace):
        data = pcap_bytes(round_trip_trace)
        restored = read_pcap(io.BytesIO(data), device_address="10.0.0.2")
        for original, recovered in zip(round_trip_trace, restored):
            assert recovered.timestamp == pytest.approx(original.timestamp, abs=1e-5)

    def test_directions_preserved(self, round_trip_trace):
        data = pcap_bytes(round_trip_trace)
        restored = read_pcap(io.BytesIO(data), device_address="10.0.0.2")
        for original, recovered in zip(round_trip_trace, restored):
            assert recovered.direction is original.direction

    def test_sizes_roughly_preserved(self, round_trip_trace):
        # The writer synthesises IP/UDP headers, so sizes are preserved for
        # packets at least as large as the 28-byte header overhead.
        data = pcap_bytes(round_trip_trace)
        restored = read_pcap(io.BytesIO(data), device_address="10.0.0.2")
        for original, recovered in zip(round_trip_trace, restored):
            assert recovered.size == max(original.size, 28)

    def test_file_round_trip(self, round_trip_trace, tmp_path):
        path = tmp_path / "capture.pcap"
        write_pcap(path, round_trip_trace)
        restored = read_pcap(path)
        assert len(restored) == len(round_trip_trace)
        assert restored.name == "capture"

    def test_device_address_heuristic(self, round_trip_trace):
        # Without an explicit device address, the most common address is
        # taken to be the device; directions must still be self-consistent.
        data = pcap_bytes(round_trip_trace)
        restored = read_pcap(io.BytesIO(data))
        uplink = sum(1 for p in restored if p.direction.is_uplink)
        assert uplink in (2, len(restored) - 2)


class TestPcapReader:
    def test_rejects_non_pcap(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_rejects_truncated_header(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_truncated_record_payload(self, round_trip_trace):
        data = pcap_bytes(round_trip_trace)
        reader = PcapReader(io.BytesIO(data[:-4]))
        with pytest.raises(PcapError):
            list(reader)

    def test_reader_metadata(self, round_trip_trace):
        data = pcap_bytes(round_trip_trace)
        reader = PcapReader(io.BytesIO(data))
        assert reader.version == (2, 4)
        assert reader.link_type == 101
        assert not reader.nanosecond_resolution

    def test_big_endian_header_accepted(self):
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        reader = PcapReader(io.BytesIO(header))
        assert reader.records() == []

    def test_empty_capture_gives_empty_trace(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        trace = read_pcap(io.BytesIO(header), name="empty")
        assert len(trace) == 0
        assert trace.name == "empty"

    def test_non_ip_records_skipped(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        junk = b"\x60" + b"\x00" * 39  # IPv6-looking payload: skipped
        record = struct.pack("<IIII", 0, 0, len(junk), len(junk)) + junk
        trace = read_pcap(io.BytesIO(header + record))
        assert len(trace) == 0


class TestWriter:
    def test_negative_timestamp_rejected(self, round_trip_trace):
        from repro.traces.pcap import PcapWriter

        writer = PcapWriter(io.BytesIO())
        with pytest.raises(ValueError):
            writer.write_record(-1.0, b"abc")

    def test_microsecond_rollover(self):
        from repro.traces.pcap import PcapWriter

        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write_record(1.9999999, b"x")
        buffer.seek(24)
        ts_sec, ts_usec, _, _ = struct.unpack("<IIII", buffer.read(16))
        assert ts_usec < 1_000_000
        assert ts_sec == 2
