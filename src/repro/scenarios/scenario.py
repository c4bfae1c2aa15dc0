"""Scenarios: declarative heterogeneous cell populations.

A :class:`Scenario` composes weighted :class:`Cohort`\\ s of device
archetypes — each an application mix at a traffic intensity, optionally
running its *own* device-side RRC policy — under an optional diurnal
traffic shape.  It is the workload half of a cell sweep:
:class:`~repro.api.cells.CellSpec` carries one, and everything downstream
(plan expansion, caching, sharded execution, per-cohort reporting) keys
off the scenario's stable :attr:`Scenario.fingerprint`.

Determinism and sharding
------------------------

Everything a scenario decides is a pure function of ``(scenario, total
devices, population seed, global device index)``:

* cohort membership — contiguous index blocks sized by largest-remainder
  apportionment of the cohort weights (:meth:`Scenario.cohort_sizes`);
* per-device workload seeds — hashed, ``crc32("scenario/<seed>/<index>")``,
  per the substitution rule established in ``docs/DESIGN.md`` (linear
  seed strides collide across devices at scale);
* the traffic envelope — ``intensity × shape(t)``, evaluated at absolute
  stream time.

Because no decision depends on which devices happen to share a process, a
scenario population built shard by shard is identical to the
whole-population build, and sharded cell runs stay byte-identical to the
single-process reference (asserted by the property tests).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..api.spec import PolicySpec
from ..dictform import strict_fields
from ..folds import left_fold
from ..traces.streaming import UserDayStream, stream_user_day_packets
from .archetypes import DeviceArchetype
from .shapes import DiurnalShape

__all__ = [
    "Cohort",
    "Scenario",
]


def _device_seed(seed: int, index: int) -> int:
    """Hashed per-device workload seed (see module docstring)."""
    return zlib.crc32(f"scenario/{seed}/{index}".encode("ascii"))


@dataclass(frozen=True)
class Cohort:
    """A weighted slice of a scenario population.

    ``weight`` is relative — cohort device counts are apportioned from the
    normalised weights.  ``policy`` optionally overrides the sweep's
    device-side scheme for this cohort only (a *mixed-policy* cell: e.g.
    legacy handsets on the status quo sharing the cell with MakeIdle
    adopters); ``None`` inherits the policy axis value of the run.

    An override cannot inherit a plan-level window size — the scenario is
    serialised and fingerprinted independently of any plan, so a
    late-resolved window would desynchronise the built policy from the
    cache key.  An override that leaves ``window_size`` unset is
    therefore pinned to the library default (100) at construction; set
    it explicitly per cohort for anything else.
    """

    archetype: DeviceArchetype
    weight: float = 1.0
    policy: PolicySpec | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ValueError(
                f"cohort weight must be positive, got {self.weight}"
            )
        if self.policy is not None:
            object.__setattr__(self, "policy", self.policy.resolved(100))

    @property
    def label(self) -> str:
        """The cohort's reporting label (defaults to the archetype name)."""
        return self.name or self.archetype.name

    @property
    def fingerprint(self) -> tuple:
        """Stable cache-key component: what this cohort's devices do."""
        return (
            "cohort",
            self.label,
            self.archetype.fingerprint,
            self.weight,
            self.policy.key if self.policy is not None else None,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "archetype": self.archetype.to_dict(),
            "weight": self.weight,
            "policy": self.policy.to_dict() if self.policy is not None else None,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Cohort":
        """Re-create a cohort from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        data = strict_fields(
            data,
            {"archetype": "object", "weight": "number", "policy": "object?",
             "name": "string"},
            "cohort",
        )
        policy = data.get("policy")
        return cls(
            archetype=DeviceArchetype.from_dict(data["archetype"]),
            weight=float(data.get("weight", 1.0)),
            policy=PolicySpec.from_dict(policy) if policy is not None else None,
            name=str(data.get("name", "")),
        )


@dataclass(frozen=True)
class Scenario:
    """A named, serialisable description of a heterogeneous population.

    ``shape`` applies diurnal traffic shaping to every cohort (each
    archetype's intensity multiplies it); ``None`` leaves the archetypes'
    stationary profiles unshaped.
    """

    name: str
    cohorts: tuple[Cohort, ...]
    shape: DiurnalShape | None = None
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario requires a name")
        if not self.cohorts:
            raise ValueError(
                f"scenario {self.name!r} requires at least one cohort"
            )
        object.__setattr__(self, "cohorts", tuple(self.cohorts))
        labels = [cohort.label for cohort in self.cohorts]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"scenario {self.name!r} has duplicate cohort labels "
                f"{sorted(labels)}; name the cohorts apart"
            )

    @property
    def has_policy_overrides(self) -> bool:
        """Whether any cohort runs its own device-side policy.

        Mixed-policy populations issue fast-dormancy requests even when
        the sweep's policy axis says ``status_quo``, so the cell cache
        must *not* collapse their runs across base-station dormancy
        policies (see :attr:`repro.api.cells.CellRunSpec.cache_key`).
        """
        return any(cohort.policy is not None for cohort in self.cohorts)

    @property
    def fingerprint(self) -> tuple:
        """Stable cache-key component identifying the population behaviour.

        The scenario *name* stays out — two identically composed scenarios
        build identical populations and may share cached results — but
        cohort labels are in (via the cohort fingerprints) because they
        partition the reported per-cohort records.
        """
        return (
            "scenario",
            tuple(cohort.fingerprint for cohort in self.cohorts),
            self.shape.fingerprint if self.shape is not None else None,
        )

    # -- deterministic population layout ---------------------------------------------

    def cohort_sizes(self, devices: int) -> list[int]:
        """Device counts per cohort: largest-remainder apportionment.

        Deterministic — fractional remainders are broken by largest
        remainder, then by cohort order — and sums to ``devices`` exactly.
        A low-weight cohort may receive zero devices in a small cell.
        """
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        total_weight = left_fold(cohort.weight for cohort in self.cohorts)
        quotas = [devices * cohort.weight / total_weight for cohort in self.cohorts]
        sizes = [int(quota) for quota in quotas]
        shortfall = devices - sum(sizes)  # repro-lint: allow[left-fold] reason=integer count; exact
        by_remainder = sorted(
            range(len(quotas)),
            key=lambda i: (sizes[i] - quotas[i], i),
        )
        for i in by_remainder[:shortfall]:
            sizes[i] += 1
        return sizes

    def cohort_at(self, index: int, devices: int) -> Cohort:
        """The cohort owning global device ``index`` of a ``devices``-cell.

        Cohorts occupy contiguous index blocks in declaration order, so
        membership is shard-independent: any contiguous device slice sees
        exactly the cohorts a whole-population build would give it.
        """
        if not 0 <= index < devices:
            raise ValueError(
                f"device index {index} outside [0, {devices})"
            )
        offset = 0
        for cohort, size in zip(self.cohorts, self.cohort_sizes(devices)):
            offset += size
            if index < offset:
                return cohort
        raise AssertionError("unreachable: sizes sum to devices")

    # -- workload construction --------------------------------------------------------

    def device_envelope(self, cohort: Cohort):
        """The traffic envelope of one cohort: intensity × diurnal shape.

        Returns ``None`` when the cohort is unshaped at unit intensity, so
        the generators take their exact unshaped path.
        """
        intensity = cohort.archetype.intensity
        if self.shape is None:
            if intensity == 1.0:  # repro-lint: allow[float-eq] reason=exact unshaped passthrough: intensity 1.0 must take the byte-identical ungated path (DESIGN.md §3.1)
                return None
            return lambda time_s: intensity
        shape = self.shape
        if intensity == 1.0:  # repro-lint: allow[float-eq] reason=exact unshaped passthrough: intensity 1.0 must take the byte-identical ungated path (DESIGN.md §3.1)
            return shape
        return lambda time_s: intensity * shape.rate_at(time_s)

    def cohort_stream(
        self,
        cohort: Cohort,
        index: int,
        duration_s: float,
        seed: int,
        chunk_s: float,
    ) -> UserDayStream:
        """The lazy packet workload of device ``index`` within ``cohort``.

        A merged multi-application stream (flow ids remapped per app, as
        user-day traces are built) under the cohort's envelope, seeded by
        the hashed per-device derivation — a pure function of the
        arguments, so shards rebuild exactly the devices a
        whole-population build would.  Population builders walk the
        cohort blocks (:meth:`cohort_sizes`) and call this per device;
        one-off callers resolve membership first with :meth:`cohort_at`.
        """
        return stream_user_day_packets(
            cohort.archetype.apps,
            duration=duration_s,
            seed=_device_seed(seed, index),
            chunk_s=chunk_s,
            envelope=self.device_envelope(cohort),
        )

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (self-contained: archetypes inline)."""
        return {
            "name": self.name,
            "description": self.description,
            "cohorts": [cohort.to_dict() for cohort in self.cohorts],
            "shape": self.shape.to_dict() if self.shape is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Re-create a scenario from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        data = strict_fields(
            data,
            {"name": "string", "description": "string", "cohorts": "list",
             "shape": "object?"},
            "scenario",
        )
        shape = data.get("shape")
        return cls(
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            cohorts=tuple(
                Cohort.from_dict(cohort) for cohort in data.get("cohorts", ())
            ),
            shape=DiurnalShape.from_dict(shape) if shape is not None else None,
        )
