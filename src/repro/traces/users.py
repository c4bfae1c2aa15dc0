"""Synthetic reconstructions of the paper's per-user trace data sets.

The paper's evaluation uses traces from nine real users collected over 28
device-days: six users on Nexus S phones in T-Mobile's 3G network and four
users on Galaxy Nexus phones in Verizon's 3G/LTE network (Section 6.1).
Figures 10–12 and 15 report per-user results for six Verizon-3G users and
three Verizon-LTE users.

Those traces are not public, so this module builds *user workload models*:
each user is a weighted mixture of the application profiles from
:mod:`repro.traces.synthetic`, plus a diurnal activity pattern (periods of
interactive use separated by long idle stretches) so the traces contain both
dense interactive bursts and sparse background chatter — the regime in which
the relative ordering of the schemes in the paper emerges.

Users are deterministic: ``user_trace("verizon_3g", 2)`` always returns the
same trace.  The mixtures are chosen so that users differ meaningfully (some
are IM-heavy, some email-heavy, some run many apps), mirroring the paper's
observation that per-user results vary.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from .packet import PacketTrace, merge_traces
from .synthetic import generate_application_trace

__all__ = [
    "UserProfile",
    "USER_POPULATIONS",
    "user_ids",
    "user_profile",
    "user_trace",
]


@dataclass(frozen=True)
class UserProfile:
    """Description of one synthetic user's workload.

    Attributes
    ----------
    user_id:
        1-based identifier within the population (matches the x-axis of
        Figures 10–12).
    population:
        Which data set the user belongs to (``"verizon_3g"``, ``"verizon_lte"``
        or ``"tmobile_3g"``).
    apps:
        Application profile names the user runs in the background.
    activity_factor:
        Scales the density of interactive (social/finance) sessions; higher
        means a heavier user.
    days:
        Number of simulated days of data for this user (the paper collected
        two to five days per user).
    """

    user_id: int
    population: str
    apps: tuple[str, ...]
    activity_factor: float
    days: int

    @property
    def label(self) -> str:
        """Stable label, e.g. ``"verizon_3g/user2"``."""
        return f"{self.population}/user{self.user_id}"


#: Per-population user rosters.  Six Verizon 3G users and three Verizon LTE
#: users (as plotted in Figures 10-12), six T-Mobile users (Section 6.1).
USER_POPULATIONS: dict[str, tuple[UserProfile, ...]] = {
    "verizon_3g": (
        UserProfile(1, "verizon_3g", ("im", "email", "news"), 0.8, 3),
        UserProfile(2, "verizon_3g", ("im", "social", "microblog"), 1.4, 2),
        UserProfile(3, "verizon_3g", ("email", "news", "game"), 0.6, 4),
        UserProfile(4, "verizon_3g", ("im", "finance", "email"), 1.1, 2),
        UserProfile(5, "verizon_3g", ("social", "microblog", "news", "im"), 1.6, 3),
        UserProfile(6, "verizon_3g", ("email", "game"), 0.5, 5),
    ),
    "verizon_lte": (
        UserProfile(1, "verizon_lte", ("im", "social", "email"), 1.2, 3),
        UserProfile(2, "verizon_lte", ("news", "microblog", "game"), 0.7, 2),
        UserProfile(3, "verizon_lte", ("im", "email", "finance", "social"), 1.5, 3),
    ),
    "tmobile_3g": (
        UserProfile(1, "tmobile_3g", ("im", "email"), 0.7, 5),
        UserProfile(2, "tmobile_3g", ("news", "social"), 1.3, 4),
        UserProfile(3, "tmobile_3g", ("im", "microblog", "game"), 0.9, 5),
        UserProfile(4, "tmobile_3g", ("email", "finance"), 0.8, 5),
        UserProfile(5, "tmobile_3g", ("social", "im", "news"), 1.5, 5),
        UserProfile(6, "tmobile_3g", ("email", "game", "im"), 0.6, 4),
    ),
}


def user_ids(population: str) -> tuple[int, ...]:
    """Return the user identifiers available in ``population``."""
    return tuple(profile.user_id for profile in _population(population))


def user_profile(population: str, user_id: int) -> UserProfile:
    """Return the :class:`UserProfile` for a user, raising ``KeyError`` if unknown."""
    for profile in _population(population):
        if profile.user_id == user_id:
            return profile
    raise KeyError(f"no user {user_id} in population {population!r}")


def _population(population: str) -> tuple[UserProfile, ...]:
    try:
        return USER_POPULATIONS[population]
    except KeyError:
        raise KeyError(
            f"unknown population {population!r}; known: {sorted(USER_POPULATIONS)}"
        ) from None


def user_trace(
    population: str,
    user_id: int,
    hours_per_day: float = 4.0,
    seed: int = 0,
) -> PacketTrace:
    """Generate the packet trace for one user.

    The trace concatenates ``days`` sessions of ``hours_per_day`` hours of
    phone activity; within each day the user's background applications run
    continuously while interactive applications (social, finance) appear
    only inside a few "active windows" whose number scales with the user's
    ``activity_factor``.  Idle night-time gaps between days are omitted
    (they contribute nothing to tail energy and would only slow simulation).

    Parameters
    ----------
    population:
        ``"verizon_3g"``, ``"verizon_lte"`` or ``"tmobile_3g"``.
    user_id:
        1-based user identifier within the population.
    hours_per_day:
        Hours of captured activity per simulated day.
    seed:
        Base random seed; combined with the population and user id so every
        user is distinct but reproducible.
    """
    profile = user_profile(population, user_id)
    if hours_per_day <= 0:
        raise ValueError(f"hours_per_day must be positive, got {hours_per_day}")

    # Derive a per-user seed with a stable (process-independent) hash so the
    # same user always yields the same trace; Python's built-in hash() is
    # salted per process and must not be used here.
    label_hash = zlib.crc32(f"{population}/{user_id}".encode("utf-8"))
    base_seed = seed * 7919 + label_hash % 100_000
    rng = random.Random(base_seed)
    day_length = hours_per_day * 3600.0
    background_apps = [a for a in profile.apps if a not in ("social", "finance")]
    interactive_apps = [a for a in profile.apps if a in ("social", "finance")]

    day_traces: list[PacketTrace] = []
    for day in range(profile.days):
        day_seed = base_seed + 977 * day
        components: list[PacketTrace] = []
        for index, app in enumerate(background_apps):
            components.append(
                generate_application_trace(
                    app, duration=day_length, seed=day_seed + 13 * index
                )
            )
        # Interactive apps appear in a handful of foreground windows.
        window_count = max(1, round(2 * profile.activity_factor))
        for index, app in enumerate(interactive_apps):
            for window in range(window_count):
                window_length = rng.uniform(300.0, 900.0)
                window_start = rng.uniform(0.0, max(1.0, day_length - window_length))
                segment = generate_application_trace(
                    app,
                    duration=window_length,
                    seed=day_seed + 131 * index + 17 * window,
                ).shifted(window_start)
                components.append(segment)
        day_trace = merge_traces(components, name=f"{profile.label}/day{day}")
        day_traces.append(day_trace.shifted(day * day_length))

    merged = merge_traces(day_traces, name=profile.label)
    return merged.normalized().renamed(profile.label)
