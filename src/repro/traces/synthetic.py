"""Synthetic workload generators for the paper's application classes.

The paper evaluates its algorithms on two kinds of traces, neither of which
is publicly available:

* two-hour ``tcpdump`` traces of seven popular Android applications run in
  the background (Section 6.1), and
* 28 days of traces from nine real users on T-Mobile and Verizon phones.

Following the substitution rule documented in ``docs/DESIGN.md``, this module
regenerates statistically equivalent traces from the paper's own description
of each application's traffic pattern:

========  =====================================================================
News      background process fetching breaking news; occasional medium bursts
IM        heartbeat packets every 5–20 seconds, tiny payloads, rare messages
MicroBlog automatic tweet fetches every few minutes, medium download bursts
Game      offline game with an advertisement bar refreshing roughly once/minute
Email     background sync with the mail server every five minutes
Social    interactive foreground use: reading feeds, viewing pictures, posting
Finance   stock ticker updating roughly once per second in the foreground
========  =====================================================================

All generators are deterministic given a seed (they use
:class:`random.Random`), so experiments and tests are reproducible.  The
generators emit bursts as short packet trains with realistic per-packet
spacing so that MakeIdle's intra-burst/inter-burst distinction is exercised.

One loop synthesises every application run: :func:`application_columns`
returns the run as plain ``(times, sizes, uplink, flow_ids)`` lists.  The
vector kernel reads those columns without building a :class:`Packet`
(:mod:`repro.traces.streaming`); :func:`generate_application_packets` and
:func:`generate_application_trace` build their packets from the same
columns.  Its ``random.Random`` calls are fixed, in order: per session,
``session_gap`` and the jitter, then the train — one ``random()``
bisected into the cumulative weights (the body of ``random.choices`` for
``k=1``), or ``rng.choice`` for an unweighted profile — and one inlined
``expovariate`` per packet.  Per-application digests in the test suite
hold every seed to the sample earlier releases drew.
"""

from __future__ import annotations

import math
import random
from bisect import bisect, bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .packet import (
    Packet,
    PacketTrace,
    merge_traces,
    packets_from_columns,
)

__all__ = [
    "ApplicationProfile",
    "APPLICATION_PROFILES",
    "APPLICATION_NAMES",
    "application_columns",
    "check_chunk",
    "check_duration",
    "generate_application_packets",
    "generate_application_trace",
    "PacketTrainSpec",
]


def check_duration(duration: float, name: str = "duration_s") -> None:
    """Refuse a horizon that is not positive and finite (NaN included).

    The one rule of every workload: the generators here and in
    :mod:`repro.traces.streaming`, and the trace, cell and metro specs of
    :mod:`repro.api`.  ``name`` is the caller's parameter name.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {duration}")


def check_chunk(chunk_s: float) -> None:
    """Refuse a generation chunk length that is not positive (NaN included)."""
    if not chunk_s > 0:
        raise ValueError(f"chunk_s must be positive, got {chunk_s}")


@dataclass(frozen=True)
class PacketTrainSpec:
    """Shape of one traffic burst emitted by a generator.

    A burst is modelled as a request/response exchange: ``uplink_packets``
    small uplink packets followed by ``downlink_packets`` larger downlink
    packets, with consecutive packets spaced by an exponential gap of mean
    ``intra_gap_mean`` seconds (capped at ``intra_gap_max``).
    """

    uplink_packets: int
    downlink_packets: int
    uplink_size: int = 120
    downlink_size: int = 1200
    intra_gap_mean: float = 0.05
    intra_gap_max: float = 0.5

    def __post_init__(self) -> None:
        if self.uplink_packets < 0 or self.downlink_packets < 0:
            raise ValueError("packet counts must be non-negative")
        if self.uplink_packets + self.downlink_packets == 0:
            raise ValueError("a packet train must contain at least one packet")
        # The column generator builds no Packet, so the size check a
        # Packet makes is made here, once per train shape.
        if self.uplink_size < 0 or self.downlink_size < 0:
            raise ValueError("packet sizes must be non-negative")
        if self.intra_gap_mean <= 0 or self.intra_gap_max <= 0:
            raise ValueError("intra-burst gaps must be positive")
        # Hot-path constants: the generator draws one exponential gap of
        # rate ``1.0 / intra_gap_mean`` per packet, and every burst of
        # this shape has the same size and direction columns.
        object.__setattr__(self, "_intra_rate", 1.0 / self.intra_gap_mean)
        object.__setattr__(
            self, "_sizes",
            (self.uplink_size,) * self.uplink_packets
            + (self.downlink_size,) * self.downlink_packets)
        object.__setattr__(
            self, "_uplink",
            (True,) * self.uplink_packets + (False,) * self.downlink_packets)


@dataclass(frozen=True)
class ApplicationProfile:
    """Statistical description of one background application's traffic.

    Sessions (bursts) arrive with inter-session gaps drawn from
    ``session_gap`` (a callable taking the RNG and returning seconds).  Each
    session's packet train shape is drawn from ``trains`` with the paired
    weights.  ``jitter`` adds a uniform offset to each session start so
    periodic applications do not align perfectly across runs.
    """

    name: str
    description: str
    session_gap: Callable[[random.Random], float]
    trains: Sequence[PacketTrainSpec]
    train_weights: Sequence[float] = ()
    jitter: float = 0.0
    flows: int = 1

    def __post_init__(self) -> None:
        # The generator draws a train once per session for every device of
        # a cell: snapshot the train list and the cumulative weights once.
        # ``random.choices`` computes exactly these cumulative sums and
        # this total, and bisects one ``random()`` into them.
        trains = list(self.trains)
        object.__setattr__(self, "_train_list", trains)
        cum_weights = None
        if self.train_weights:
            if len(self.train_weights) != len(trains):
                raise ValueError("the number of weights does not match the "
                                 "number of trains")
            total = 0.0
            cum_weights = []
            for weight in self.train_weights:
                total += weight
                cum_weights.append(total)
            if not 0.0 < cum_weights[-1] + 0.0 < math.inf:
                raise ValueError("train weights must have a positive, "
                                 "finite total")
        object.__setattr__(self, "_cum_weights", cum_weights)

    def draw_gap(self, rng: random.Random) -> float:
        """Draw one inter-session gap in seconds (always positive)."""
        gap = self.session_gap(rng)
        if self.jitter > 0:
            gap += rng.uniform(-self.jitter, self.jitter)
        return max(0.05, gap)


def _uniform(low: float, high: float) -> Callable[[random.Random], float]:
    return lambda rng: rng.uniform(low, high)


def _lognormal(median: float, sigma: float) -> Callable[[random.Random], float]:
    mu = math.log(median)
    return lambda rng: rng.lognormvariate(mu, sigma)


#: The seven application classes of Section 6.1, in the order of Figure 9.
APPLICATION_PROFILES: dict[str, ApplicationProfile] = {
    "news": ApplicationProfile(
        name="news",
        description="News reader with a background breaking-news fetcher",
        session_gap=_lognormal(median=90.0, sigma=0.8),
        trains=(
            PacketTrainSpec(uplink_packets=2, downlink_packets=8),
            PacketTrainSpec(uplink_packets=3, downlink_packets=25,
                            downlink_size=1400),
        ),
        train_weights=(0.7, 0.3),
        jitter=10.0,
        flows=2,
    ),
    "im": ApplicationProfile(
        name="im",
        description="Instant messenger sending heartbeats every 5-20 seconds",
        session_gap=_uniform(5.0, 20.0),
        trains=(
            PacketTrainSpec(uplink_packets=1, downlink_packets=1,
                            uplink_size=90, downlink_size=90,
                            intra_gap_mean=0.15, intra_gap_max=0.6),
            PacketTrainSpec(uplink_packets=2, downlink_packets=3,
                            uplink_size=200, downlink_size=400),
        ),
        train_weights=(0.92, 0.08),
        flows=1,
    ),
    "microblog": ApplicationProfile(
        name="microblog",
        description="Micro-blog client automatically fetching new tweets",
        session_gap=_lognormal(median=150.0, sigma=0.5),
        trains=(
            PacketTrainSpec(uplink_packets=2, downlink_packets=12),
            PacketTrainSpec(uplink_packets=2, downlink_packets=30,
                            downlink_size=1400),
        ),
        train_weights=(0.8, 0.2),
        jitter=20.0,
        flows=2,
    ),
    "game": ApplicationProfile(
        name="game",
        description="Offline game whose advertisement bar refreshes ~once/minute",
        session_gap=_uniform(50.0, 70.0),
        trains=(
            PacketTrainSpec(uplink_packets=1, downlink_packets=4,
                            downlink_size=800),
        ),
        flows=1,
    ),
    "email": ApplicationProfile(
        name="email",
        description="Email client synchronising with the server every five minutes",
        session_gap=_uniform(280.0, 320.0),
        trains=(
            PacketTrainSpec(uplink_packets=3, downlink_packets=6),
            PacketTrainSpec(uplink_packets=4, downlink_packets=40,
                            downlink_size=1400),
        ),
        train_weights=(0.75, 0.25),
        flows=1,
    ),
    "social": ApplicationProfile(
        name="social",
        description="Interactive social-network use: feeds, pictures, comments",
        session_gap=_lognormal(median=25.0, sigma=1.0),
        trains=(
            PacketTrainSpec(uplink_packets=2, downlink_packets=10),
            PacketTrainSpec(uplink_packets=3, downlink_packets=60,
                            downlink_size=1400, intra_gap_mean=0.03),
            PacketTrainSpec(uplink_packets=5, downlink_packets=2,
                            uplink_size=600),
        ),
        train_weights=(0.5, 0.3, 0.2),
        flows=3,
    ),
    "finance": ApplicationProfile(
        name="finance",
        description="Stock ticker updating roughly once per second in the foreground",
        session_gap=_uniform(0.8, 1.3),
        trains=(
            PacketTrainSpec(uplink_packets=1, downlink_packets=1,
                            uplink_size=150, downlink_size=300,
                            intra_gap_mean=0.08, intra_gap_max=0.3),
        ),
        flows=1,
    ),
}

#: Application names in the display order used by Figure 9.
APPLICATION_NAMES: tuple[str, ...] = (
    "news", "im", "microblog", "game", "email", "social", "finance",
)


def _resolve_application_profile(
    app: str | ApplicationProfile,
) -> ApplicationProfile:
    """Look up an application profile by name (or pass one through)."""
    if isinstance(app, str):
        key = app.lower()
        if key not in APPLICATION_PROFILES:
            raise KeyError(
                f"unknown application {app!r}; known: {sorted(APPLICATION_PROFILES)}"
            )
        return APPLICATION_PROFILES[key]
    return app


def application_columns(
    app: str | ApplicationProfile,
    duration: float = 7200.0,
    seed: int = 0,
    rate: Callable[[float], float] | None = None,
) -> tuple[list[float], list[int], list[bool], list[int]]:
    """One application run as ``(times, sizes, uplink, flow_ids)`` columns.

    The library's only synthesis loop (see the module docstring): row
    ``i`` of the four lists is the ``i``-th packet of
    :func:`generate_application_packets`, which builds its packets from
    these columns.  Sessions start after gaps from
    :meth:`ApplicationProfile.draw_gap`, divided by ``rate`` at the
    previous session's start (see :func:`generate_application_trace`);
    each session emits one train: its uplink packets, then its downlink
    packets, one capped exponential gap after every packet, cut at
    ``duration``.  The rows are in time order, as a stable sort by time
    leaves them: overlapping bursts interleave as the sort interleaves
    them, and the sort is skipped when no burst starts before the
    previous burst's last kept packet.
    """
    profile = _resolve_application_profile(app)
    check_duration(duration, "duration")

    rng = random.Random(seed)
    draw_gap = profile.draw_gap

    def next_gap(at: float) -> float:
        gap = draw_gap(rng)
        if rate is None:
            return gap
        multiplier = rate(at)
        if not multiplier > 0:
            raise ValueError(
                f"rate envelope must be positive, got {multiplier} at t={at}"
            )
        return gap / multiplier

    random_ = rng.random
    log = math.log
    trains = profile._train_list
    cum_weights = profile._cum_weights
    if cum_weights is not None:
        total = cum_weights[-1] + 0.0
        last_train = len(trains) - 1
    times: list[float] = []
    sizes: list[int] = []
    uplink: list[bool] = []
    flows: list[int] = []
    append = times.append
    flow_counter = 0
    flow_cycle = max(1, profile.flows)
    overlap = False
    last_kept = -math.inf
    at = next_gap(0.0)
    while at < duration:
        if cum_weights is None:
            train = rng.choice(trains)
        else:
            train = trains[bisect(cum_weights, random_() * total, 0,
                                  last_train)]
        if at < last_kept:
            overlap = True
        first = len(times)
        intra_rate = train._intra_rate
        intra_max = train.intra_gap_max
        time = at
        for _ in train._sizes:
            append(time)
            gap = -log(1.0 - random_()) / intra_rate
            time += gap if gap < intra_max else intra_max
        # Burst times never decrease, so the packets before ``duration``
        # are a prefix; the common all-inside case costs one comparison.
        if times[-1] < duration:
            sizes += train._sizes
            uplink += train._uplink
        else:
            del times[bisect_left(times, duration, first):]
            sizes += train._sizes[:len(times) - first]
            uplink += train._uplink[:len(times) - first]
        last_kept = times[-1]
        flows += [flow_counter % flow_cycle] * (len(times) - first)
        flow_counter += 1
        at += next_gap(at)
    if overlap:
        order = sorted(range(len(times)), key=times.__getitem__)
        times = [times[i] for i in order]
        sizes = [sizes[i] for i in order]
        uplink = [uplink[i] for i in order]
        flows = [flows[i] for i in order]
    return times, sizes, uplink, flows


def generate_application_packets(
    app: str | ApplicationProfile,
    duration: float = 7200.0,
    seed: int = 0,
    rate: Callable[[float], float] | None = None,
) -> list[Packet]:
    """The time-sorted packet list of one application run.

    This is :func:`generate_application_trace` without the
    :class:`~repro.traces.packet.PacketTrace` wrapper: one packet per row
    of :func:`application_columns`, labelled with the profile's name,
    already in the trace's order (a stable sort by timestamp —
    overlapping bursts interleave identically).
    """
    profile = _resolve_application_profile(app)
    return packets_from_columns(
        *application_columns(profile, duration=duration, seed=seed,
                             rate=rate),
        profile.name,
    )


def generate_application_trace(
    app: str | ApplicationProfile,
    duration: float = 7200.0,
    seed: int = 0,
    rate: Callable[[float], float] | None = None,
) -> PacketTrace:
    """Generate a trace for one application class.

    Parameters
    ----------
    app:
        Either the name of a profile from :data:`APPLICATION_PROFILES`
        (case-insensitive) or an :class:`ApplicationProfile` instance.
    duration:
        Length of the generated trace in seconds.  The paper's application
        traces were two hours long, which is the default.
    seed:
        Seed for the deterministic random generator.
    rate:
        Optional traffic-rate envelope: a callable mapping a timestamp
        (seconds from trace start) to a positive session-rate multiplier.
        Each drawn inter-session gap is divided by the envelope evaluated
        at the *previous* session's start, so a multiplier of 2 doubles
        the session arrival rate around that time while leaving burst
        shapes and intra-burst spacing untouched (the inversion-by-local-
        rate construction used for diurnal shaping; see
        :mod:`repro.scenarios.shapes`).  ``None`` (the default) is the
        unshaped generator, byte-identical to earlier releases.
    """
    profile = _resolve_application_profile(app)
    return PacketTrace(
        generate_application_packets(profile, duration=duration, seed=seed,
                                     rate=rate),
        name=profile.name,
    )


def generate_mixed_trace(
    apps: Iterable[str],
    duration: float = 7200.0,
    seed: int = 0,
    name: str = "mixed",
) -> PacketTrace:
    """Generate a trace with several applications running concurrently.

    Each application is generated independently (with a distinct derived
    seed) and the traces are merged; this models a phone with several
    background applications installed, the situation MakeActive targets.
    """
    traces = [
        generate_application_trace(app, duration=duration, seed=seed + 101 * index)
        for index, app in enumerate(apps)
    ]
    return merge_traces(traces, name=name)
