"""Tests for the synthetic workload generators."""

from __future__ import annotations

import hashlib

import pytest

from repro.traces import (
    APPLICATION_NAMES,
    APPLICATION_PROFILES,
    ApplicationProfile,
    PacketTrainSpec,
    application_columns,
    generate_application_packets,
    generate_application_trace,
    generate_mixed_trace,
    summarize_trace,
)

from ..tracegen import generate_periodic_trace, generate_poisson_trace


class TestPacketTrainSpec:
    def test_requires_at_least_one_packet(self):
        with pytest.raises(ValueError):
            PacketTrainSpec(uplink_packets=0, downlink_packets=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PacketTrainSpec(uplink_packets=-1, downlink_packets=1)

    def test_invalid_gaps_rejected(self):
        with pytest.raises(ValueError):
            PacketTrainSpec(1, 1, intra_gap_mean=0.0)

    def test_negative_sizes_rejected(self):
        # The vector kernel reads generated sizes without building a
        # Packet, so the train refuses what Packet would refuse.
        with pytest.raises(ValueError, match="sizes"):
            PacketTrainSpec(1, 1, uplink_size=-1)
        with pytest.raises(ValueError, match="sizes"):
            PacketTrainSpec(1, 1, downlink_size=-1)

    def test_emit_counts_and_order(self):
        # One train per session, ten seconds apart: the fifth session
        # starts at 50.0 on flow 4 and ends before the 53 s cut.
        spec = PacketTrainSpec(uplink_packets=2, downlink_packets=3)
        profile = ApplicationProfile(name="x", description="",
                                     session_gap=lambda rng: 10.0,
                                     trains=(spec,), flows=5)
        times, sizes, uplink, flows = application_columns(
            profile, duration=53.0, seed=0)
        burst = [i for i, flow in enumerate(flows) if flow == 4]
        assert len(burst) == 5
        assert burst == list(range(burst[0], burst[0] + 5))
        assert times[burst[0]] == 50.0
        assert [sizes[i] for i in burst] == [120, 120, 1200, 1200, 1200]
        packets = generate_application_packets(profile, duration=53.0,
                                               seed=0)[burst[0]:]
        assert len(packets) == 5
        assert all(p.flow_id == 4 and p.app == "x" for p in packets)
        times = [p.timestamp for p in packets]
        assert times == sorted(times)
        assert packets[0].direction.is_uplink
        assert packets[-1].direction.is_downlink


def _ramp(time_s: float) -> float:
    """A positive rate envelope built from exact IEEE operations only."""
    return 0.5 + (time_s % 300.0) / 200.0


def _packet_digest(packets) -> str:
    digest = hashlib.sha256()
    for p in packets:
        digest.update(f"{p.timestamp.hex()} {p.size} {p.direction.value} "
                      f"{p.flow_id}\n".encode())
    return digest.hexdigest()


#: ``generate_application_packets`` output pinned per case:
#: ``(app, duration, seed, envelope, packets, SHA-256)`` over float.hex
#: times, sizes, directions and flow ids.  Every app runs unshaped and
#: under ``_ramp``; then, per app, a run whose last burst crosses the
#: duration (the cut); then two cuts under the envelope, and a social run
#: with overlapping bursts (the stable sort path).
_PINNED = (
    ("news", 900.0, 1, None, 86,
     "be8fd2bb3640f7e62e179b298d2a42d73dad2fdedcabd88414c60ef1462be626"),
    ("im", 900.0, 1, None, 172,
     "926ec76b662093f0b6239c5bb044d6b14fe88947a7127cf241792b831ed86e8c"),
    ("microblog", 900.0, 1, None, 70,
     "937b44158e3733607e2a43a5984c351d702ea07dad42e83e6726c52a4c32e55f"),
    ("game", 900.0, 1, None, 75,
     "b2ee7ce9635de3de72e8521b2da621e898c79048a99745bdbba1747d5884881f"),
    ("email", 900.0, 1, None, 97,
     "2e4b9ddfa4e79fcee6548613ac1c13f643d7c12a582e3e0d1f527914f35a0581"),
    ("social", 900.0, 1, None, 460,
     "c712bf43db69335952a6e2241fbc96e9ee5801b2d8c4c3bb1b465feeda557e4d"),
    ("finance", 900.0, 1, None, 1705,
     "3592059f7c6b1d72e54bc4beca6a6e3a5fd050a3c476c06e58370a25468cb658"),
    ("news", 1200.0, 5, "ramp", 142,
     "7992fd3b8c78bf9fbbced9beba75bc5194ba4835d235e39c96615ef62cf74a3e"),
    ("im", 1200.0, 5, "ramp", 257,
     "3417e42656089e157aee402cef5d79837f0bf9d39853db16037a7290e99a4e17"),
    ("microblog", 1200.0, 5, "ramp", 124,
     "979ae18ee0f012e498f2ccd141d85275179700be90216197b87570e762f54210"),
    ("game", 1200.0, 5, "ramp", 115,
     "6137699f4f1a0f381ea1bbd029e7b8b674e62edc116182116a0a3a6bee445ae0"),
    ("email", 1200.0, 5, "ramp", 18,
     "18218fa8309ee2c3f12c44e8f5704b53f6179cf57951b12a34f64da61fad5bb4"),
    ("social", 1200.0, 5, "ramp", 704,
     "c6a0fc47df490319e9a64e4f6bbb6b95fc55b21510c31026f83f88e162a6fd51"),
    ("finance", 1200.0, 5, "ramp", 2852,
     "831e2d3343e52c53e6858acd0c0e312b3a1cabd1024521f5e98a0499e9b57657"),
    ("news", 300.0, 92, None, 27,
     "d5d64456ba55a57db5589b258a09496e6ec4111cd2e6b0d669e1e8cd973b8f1f"),
    ("im", 300.0, 3, None, 48,
     "e03dd0015dbbe3b7b1821af96835caaa42a7382588fbd721b7339513db5493ae"),
    ("microblog", 300.0, 134, None, 45,
     "3c0521cf0012daee6b2e5bffce50be04aeccd70c50490610d6f445b001022055"),
    ("game", 63.0, 27, None, 1,
     "40175dc959340c7e7273a06ff5f2260686e678f762831a9b7c988985523b01cb"),
    ("email", 300.0, 40, None, 33,
     "8e6cb7af953cf35669a65b2a3b912403418316ce3ce6ec43fae2a25b587d994b"),
    ("social", 300.0, 2, None, 173,
     "66e9cc47ea7ff8973dcd4f576669130372019647749ff0250da14ba8bcdf7110"),
    ("finance", 300.0, 3, None, 575,
     "03dd121f6d07f37cf01b8c4a4c9b71c8dfc1200b899113c65784205b2c31e1e0"),
    ("im", 450.0, 19, "ramp", 96,
     "05e8c8ea583fd14d093d09e93871d6532a4ee17cfdcccb6ec99770cd3bf2d185"),
    ("social", 450.0, 38, "ramp", 272,
     "3b096c5bde7a7dfa8cace4b985b192e703cbd048c04556dd01c57e2c5868abc7"),
    ("social", 600.0, 167, None, 286,
     "50cd672005ab1500101c8e52df8f876a50f9c8da8a9e07bb0b60b66635f358de"),
)


class TestPinnedGenerator:
    """The generator draws the sample it always drew, app by app."""

    @pytest.mark.parametrize("app,duration,seed,envelope,count,digest",
                             _PINNED)
    def test_packets_match_digest(self, app, duration, seed, envelope, count,
                                  digest):
        rate = _ramp if envelope else None
        packets = generate_application_packets(app, duration=duration,
                                               seed=seed, rate=rate)
        assert len(packets) == count
        assert all(p.app == app for p in packets)
        assert _packet_digest(packets) == digest

    @pytest.mark.parametrize("app,duration,seed,envelope,count,digest",
                             _PINNED)
    def test_columns_equal_packets(self, app, duration, seed, envelope, count,
                                   digest):
        rate = _ramp if envelope else None
        times, sizes, uplink, flows = application_columns(
            app, duration=duration, seed=seed, rate=rate)
        packets = generate_application_packets(app, duration=duration,
                                               seed=seed, rate=rate)
        assert [t.hex() for t in times] == [p.timestamp.hex()
                                            for p in packets]
        assert sizes == [p.size for p in packets]
        assert uplink == [p.direction.is_uplink for p in packets]
        assert flows == [p.flow_id for p in packets]
        assert all(type(flag) is bool for flag in uplink)

    def test_every_app_is_pinned(self):
        assert {case[0] for case in _PINNED} == set(APPLICATION_NAMES)

    def test_mismatched_weights_rejected(self):
        # random.choices refused these at the first draw; the bisect the
        # generator inlines refuses them when the profile is made.
        spec = PacketTrainSpec(1, 1)
        with pytest.raises(ValueError, match="weights"):
            ApplicationProfile(name="x", description="",
                               session_gap=lambda rng: 1.0,
                               trains=(spec, spec), train_weights=(1.0,))
        with pytest.raises(ValueError, match="weights"):
            ApplicationProfile(name="x", description="",
                               session_gap=lambda rng: 1.0,
                               trains=(spec,), train_weights=(0.0,))


class TestApplicationProfiles:
    def test_all_seven_categories_present(self):
        assert set(APPLICATION_NAMES) == set(APPLICATION_PROFILES)
        assert len(APPLICATION_NAMES) == 7

    @pytest.mark.parametrize("app", APPLICATION_NAMES)
    def test_each_profile_generates_packets(self, app):
        trace = generate_application_trace(app, duration=600.0, seed=1)
        assert len(trace) > 0
        assert trace.name == app
        assert trace.end_time < 600.0

    def test_unknown_application_rejected(self):
        with pytest.raises(KeyError):
            generate_application_trace("does-not-exist", duration=100.0)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            generate_application_trace("im", duration=0.0)

    def test_determinism(self):
        a = generate_application_trace("news", duration=1200.0, seed=42)
        b = generate_application_trace("news", duration=1200.0, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_application_trace("news", duration=1200.0, seed=1)
        b = generate_application_trace("news", duration=1200.0, seed=2)
        assert a != b

    def test_im_heartbeat_cadence(self):
        # IM heartbeats are described as every 5-20 seconds; the median
        # inter-burst gap of the generated trace must fall in that band.
        trace = generate_application_trace("im", duration=1800.0, seed=5)
        gaps = [g for g in trace.inter_arrival_times if g > 2.0]
        assert gaps, "IM trace should contain inter-heartbeat gaps"
        gaps.sort()
        median = gaps[len(gaps) // 2]
        assert 4.0 <= median <= 21.0

    def test_email_sync_cadence(self):
        trace = generate_application_trace("email", duration=3600.0, seed=5)
        gaps = [g for g in trace.inter_arrival_times if g > 60.0]
        assert gaps
        mean = sum(gaps) / len(gaps)
        assert 240.0 <= mean <= 330.0

    def test_finance_is_dense(self):
        trace = generate_application_trace("finance", duration=300.0, seed=5)
        summary = summarize_trace(trace)
        assert summary.packet_count > 300
        assert summary.p95_inter_arrival < 2.0


class TestGenericGenerators:
    def test_poisson_rate(self):
        trace = generate_poisson_trace(rate=1.0, duration=2000.0, seed=3)
        assert 1700 < len(trace) < 2300

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            generate_poisson_trace(rate=0.0, duration=10.0)
        with pytest.raises(ValueError):
            generate_poisson_trace(rate=1.0, duration=-1.0)

    def test_periodic_burst_structure(self):
        trace = generate_periodic_trace(period=10.0, duration=100.0, burst_packets=3)
        assert len(trace) == 9 * 3
        bursts = [g for g in trace.inter_arrival_times if g > 1.0]
        assert all(abs(g - 10.0) < 0.2 for g in bursts)

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            generate_periodic_trace(period=0.0, duration=10.0)
        with pytest.raises(ValueError):
            generate_periodic_trace(period=1.0, duration=10.0, burst_packets=0)

    def test_mixed_trace_merges_apps(self):
        trace = generate_mixed_trace(["im", "email"], duration=1200.0, seed=0)
        assert trace.apps == ("email", "im")
        assert len(trace) > 0
        assert trace.timestamps == tuple(sorted(trace.timestamps))
