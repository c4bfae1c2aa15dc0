"""Packet traces: containers, statistics, segmentation, pcap I/O, generators.

This subpackage is the workload substrate of the library.  Everything the
energy-saving algorithms consume is a :class:`~repro.traces.packet.PacketTrace`,
whether it came from a real ``tcpdump`` capture (:mod:`repro.traces.pcap`),
a synthetic application model (:mod:`repro.traces.synthetic`) or a synthetic
user workload (:mod:`repro.traces.users`).
"""

from .bursts import Burst, bursts_per_active_period, segment_bursts
from .packet import Direction, Packet, PacketTrace, merge_traces
from .tcpdump import (
    TcpdumpParseResult,
    parse_tcpdump_lines,
    read_tcpdump,
    write_tcpdump,
)
from .pcap import PcapError, PcapReader, PcapWriter, read_pcap, write_pcap
from .streaming import (
    ChunkedPacketStream,
    RateEnvelope,
    UserDayStream,
    merge_packet_streams,
    stream_application_packets,
    stream_user_day_packets,
)
from .stats import (
    EmpiricalCdf,
    SlidingWindowDistribution,
    TraceSummary,
    inter_arrival_percentile,
    summarize_trace,
)
from .synthetic import (
    APPLICATION_NAMES,
    APPLICATION_PROFILES,
    ApplicationProfile,
    PacketTrainSpec,
    application_columns,
    check_chunk,
    check_duration,
    generate_application_packets,
    generate_application_trace,
    generate_mixed_trace,
)
from .users import (
    USER_POPULATIONS,
    UserProfile,
    user_ids,
    user_profile,
    user_trace,
)

__all__ = [
    "APPLICATION_NAMES",
    "TcpdumpParseResult",
    "parse_tcpdump_lines",
    "read_tcpdump",
    "ChunkedPacketStream",
    "RateEnvelope",
    "UserDayStream",
    "stream_application_packets",
    "stream_user_day_packets",
    "write_tcpdump",
    "APPLICATION_PROFILES",
    "ApplicationProfile",
    "Burst",
    "Direction",
    "EmpiricalCdf",
    "Packet",
    "PacketTrace",
    "PacketTrainSpec",
    "PcapError",
    "PcapReader",
    "PcapWriter",
    "SlidingWindowDistribution",
    "TraceSummary",
    "USER_POPULATIONS",
    "UserProfile",
    "application_columns",
    "bursts_per_active_period",
    "check_chunk",
    "check_duration",
    "generate_application_packets",
    "generate_application_trace",
    "generate_mixed_trace",
    "inter_arrival_percentile",
    "merge_packet_streams",
    "merge_traces",
    "read_pcap",
    "segment_bursts",
    "summarize_trace",
    "user_ids",
    "user_profile",
    "user_trace",
    "write_pcap",
]
