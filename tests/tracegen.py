"""Hand-shaped packet traces for tests: Poisson arrivals and periodic bursts.

The library's generators model the paper's applications
(:mod:`repro.traces.synthetic`).  These two build the simpler shapes
that unit tests reason about analytically: a memoryless arrival process
and a strictly periodic heartbeat.  They back the ``poisson_trace`` and
``heartbeat_trace`` fixtures in ``tests/conftest.py``.
"""

from __future__ import annotations

import random

from repro.traces import Direction, Packet, PacketTrace


def generate_poisson_trace(
    rate: float,
    duration: float,
    seed: int = 0,
    size: int = 500,
    name: str = "poisson",
) -> PacketTrace:
    """Generate a memoryless (Poisson) packet arrival trace.

    A null model: for exponential inter-arrivals the conditional
    probability used by MakeIdle is constant in the waiting time, so the
    predictor's behaviour is easy to verify analytically.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    rng = random.Random(seed)
    packets: list[Packet] = []
    time = rng.expovariate(rate)
    while time < duration:
        direction = Direction.UPLINK if rng.random() < 0.4 else Direction.DOWNLINK
        packets.append(Packet(time, size, direction, 0, name))
        time += rng.expovariate(rate)
    return PacketTrace(packets, name=name)


def generate_periodic_trace(
    period: float,
    duration: float,
    burst_packets: int = 1,
    size: int = 500,
    jitter: float = 0.0,
    seed: int = 0,
    name: str = "periodic",
) -> PacketTrace:
    """Generate a strictly periodic trace (optionally jittered).

    Periodic heartbeats are the regime where fixed inactivity timers
    waste the most energy.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if burst_packets < 1:
        raise ValueError("burst_packets must be at least 1")
    rng = random.Random(seed)
    packets: list[Packet] = []
    time = period
    while time < duration:
        start = time + (rng.uniform(-jitter, jitter) if jitter else 0.0)
        start = max(0.0, start)
        for i in range(burst_packets):
            direction = Direction.UPLINK if i == 0 else Direction.DOWNLINK
            packets.append(Packet(start + i * 0.05, size, direction, 0, name))
        time += period
    return PacketTrace(packets, name=name)
