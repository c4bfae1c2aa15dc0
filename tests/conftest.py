"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.rrc import CARRIER_PROFILES, get_profile
from repro.traces import (
    Direction,
    Packet,
    PacketTrace,
    generate_application_trace,
)

from .tracegen import generate_periodic_trace, generate_poisson_trace


@pytest.fixture(params=sorted(CARRIER_PROFILES))
def any_profile(request):
    """Each carrier profile in turn."""
    return get_profile(request.param)


@pytest.fixture
def att_profile():
    """The AT&T HSPA+ profile (the paper's 3G anchor for t_threshold)."""
    return get_profile("att_hspa")


@pytest.fixture
def lte_profile():
    """The Verizon LTE profile (two-state RRC machine)."""
    return get_profile("verizon_lte")


@pytest.fixture
def tmobile_profile():
    """The T-Mobile 3G profile (long t2 timer)."""
    return get_profile("tmobile_3g")


@pytest.fixture
def verizon3g_profile():
    """The Verizon 3G profile (no FACH-like state)."""
    return get_profile("verizon_3g")


@pytest.fixture
def simple_trace():
    """A tiny hand-built trace: one 3-packet burst, a long gap, a 2-packet burst."""
    return PacketTrace(
        [
            Packet(0.0, 200, Direction.UPLINK, flow_id=1),
            Packet(0.1, 1200, Direction.DOWNLINK, flow_id=1),
            Packet(0.2, 1200, Direction.DOWNLINK, flow_id=1),
            Packet(60.0, 200, Direction.UPLINK, flow_id=2),
            Packet(60.1, 800, Direction.DOWNLINK, flow_id=2),
        ],
        name="simple",
    )


@pytest.fixture
def heartbeat_trace():
    """A periodic heartbeat trace (the regime where fixed timers waste the most)."""
    return generate_periodic_trace(period=15.0, duration=1800.0, burst_packets=2,
                                   size=120, seed=3, name="heartbeat")


@pytest.fixture
def poisson_trace():
    """A memoryless arrival trace."""
    return generate_poisson_trace(rate=0.2, duration=1200.0, seed=7)


@pytest.fixture
def email_trace():
    """A short synthetic email-application trace."""
    return generate_application_trace("email", duration=1800.0, seed=1)


@pytest.fixture
def im_trace():
    """A short synthetic instant-messaging trace (heartbeats every 5-20 s)."""
    return generate_application_trace("im", duration=900.0, seed=2)
