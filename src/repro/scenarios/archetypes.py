"""Device archetypes: the "who" of a scenario population.

An archetype bundles what one kind of subscriber's phone does on the
network: which application mix it runs (merged into one multi-flow
workload, like the user-day traces of Section 6.2) and how intense its
traffic is relative to the paper's per-application profiles.  Scenario
cohorts (:mod:`repro.scenarios.scenario`) weight archetypes into
heterogeneous populations and may additionally override the device-side
RRC policy per cohort.

Intensity is a session-rate multiplier applied on top of any diurnal
shape: an ``idle_messenger`` at intensity 0.35 starts about a third as
many IM sessions as the paper's IM profile, with identical burst shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..dictform import strict_fields

__all__ = [
    "ARCHETYPES",
    "DeviceArchetype",
    "get_archetype",
]


@dataclass(frozen=True)
class DeviceArchetype:
    """One kind of device: an application mix at a traffic intensity."""

    name: str
    apps: tuple[str, ...]
    intensity: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an archetype requires a name")
        if not self.apps:
            raise ValueError(f"archetype {self.name!r} requires at least one app")
        if not self.intensity > 0:
            raise ValueError(
                f"archetype {self.name!r} intensity must be positive, "
                f"got {self.intensity}"
            )
        from ..traces.synthetic import APPLICATION_PROFILES

        for app in self.apps:
            if app.lower() not in APPLICATION_PROFILES:
                raise ValueError(
                    f"archetype {self.name!r}: unknown application {app!r}; "
                    f"known: {sorted(APPLICATION_PROFILES)}"
                )
        object.__setattr__(self, "apps", tuple(self.apps))

    @property
    def fingerprint(self) -> tuple:
        """Stable cache-key component identifying the workload this builds.

        The name stays out: two archetypes generating identical traffic
        may share cached results whatever they are called.
        """
        return ("archetype", self.apps, self.intensity)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (self-contained — no registry reference)."""
        return {
            "name": self.name,
            "apps": list(self.apps),
            "intensity": self.intensity,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeviceArchetype":
        """Re-create an archetype from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        payload = strict_fields(
            data,
            {"name": "string", "apps": "list[string]", "intensity": "number",
             "description": "string"},
            "archetype",
        )
        payload["apps"] = tuple(payload.get("apps", ()))
        return cls(**payload)


#: Built-in archetype library, spanning the chatty-to-quiet spectrum the
#: paper's user traces exhibit.
ARCHETYPES: dict[str, DeviceArchetype] = {
    archetype.name: archetype
    for archetype in (
        DeviceArchetype(
            name="heavy_streamer",
            apps=("social", "news", "microblog"),
            intensity=1.5,
            description="foreground-heavy user: feeds, pictures, tweets",
        ),
        DeviceArchetype(
            name="background_chatter",
            apps=("im", "email"),
            intensity=1.0,
            description="phone in the pocket: IM heartbeats + mail sync",
        ),
        DeviceArchetype(
            name="idle_messenger",
            apps=("im",),
            intensity=0.35,
            description="mostly-quiet device with sparse IM keepalives",
        ),
        DeviceArchetype(
            name="office_worker",
            apps=("email", "im", "news"),
            intensity=1.0,
            description="work phone: mail, chat, occasional headlines",
        ),
        DeviceArchetype(
            name="casual_gamer",
            apps=("game", "im"),
            intensity=0.8,
            description="offline game ad refreshes plus light chat",
        ),
    )
}


def get_archetype(name: str) -> DeviceArchetype:
    """Look up a built-in archetype by name, with a helpful error."""
    try:
        return ARCHETYPES[name]
    except KeyError:
        raise KeyError(
            f"unknown device archetype {name!r}; known: {sorted(ARCHETYPES)}"
        ) from None
