"""Network-controlled fast-dormancy policies (3GPP Release 8).

Under Release 8 the device merely *requests* channel release; the base
station decides.  The paper's simplified model assumes every request is
granted and motivates this module in its future work: an operator worried
about signalling storms may want to throttle or refuse requests.  Each
policy here sees the requesting device, the request time and a snapshot of
current cell load, and answers grant / deny.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CellLoadSnapshot",
    "DormancyDecision",
    "DormancyPolicy",
    "AcceptAllDormancy",
    "RejectAllDormancy",
    "RateLimitedDormancy",
    "LoadAwareDormancy",
    "partition_switch_budget",
]


@dataclass(frozen=True)
class CellLoadSnapshot:
    """What the base station knows when it evaluates a dormancy request."""

    time: float
    active_devices: int
    total_devices: int
    switches_last_minute: int

    def __post_init__(self) -> None:
        if self.total_devices < 0 or self.active_devices < 0:
            raise ValueError("device counts must be non-negative")
        if self.active_devices > self.total_devices:
            raise ValueError("active_devices cannot exceed total_devices")
        if self.switches_last_minute < 0:
            raise ValueError("switches_last_minute must be non-negative")

    @property
    def active_fraction(self) -> float:
        """Fraction of attached devices currently holding a channel."""
        if self.total_devices == 0:
            return 0.0
        return self.active_devices / self.total_devices


@dataclass(frozen=True)
class DormancyDecision:
    """Outcome of one fast-dormancy request."""

    granted: bool
    reason: str = ""


class DormancyPolicy:
    """Base class: how the base station answers fast-dormancy requests."""

    #: Name used in result tables.
    name: str = "dormancy_policy"

    def decide(
        self, device_id: int, request_time: float,
        load: CellLoadSnapshot | None,
    ) -> DormancyDecision:
        """Grant or deny a device's request to release its channel.

        ``load`` is the cell's load when the request pops.  The scalar
        kernel always passes a snapshot.  The vector kernel replays a
        shard only for the stations whose ``decide`` never reads it
        (:func:`repro.sim.vector_engine.station_decides_per_device`) and
        passes ``None``.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run state (default: nothing to clear)."""


class AcceptAllDormancy(DormancyPolicy):
    """The paper's assumption: every request is granted immediately.

    A station whose ``decide`` is this one grants unconditionally and keeps
    no per-request state, so the kernels skip the per-request
    :class:`CellLoadSnapshot` and may replay its devices independently
    (:func:`repro.sim.vector_engine.station_always_grants`).
    """

    name = "accept_all"

    def decide(
        self, device_id: int, request_time: float,
        load: CellLoadSnapshot | None,
    ) -> DormancyDecision:
        del device_id, request_time, load
        return DormancyDecision(granted=True, reason="always accept")


class RejectAllDormancy(DormancyPolicy):
    """The pre-Release-7 world: devices cannot release the channel themselves."""

    name = "reject_all"

    def decide(
        self, device_id: int, request_time: float,
        load: CellLoadSnapshot | None,
    ) -> DormancyDecision:
        del device_id, request_time, load
        return DormancyDecision(granted=False, reason="fast dormancy disabled")


class RateLimitedDormancy(DormancyPolicy):
    """Grant requests unless a device asks too often.

    Operators deploying network-controlled fast dormancy mainly fear
    signalling storms from chatty devices; this policy denies a request if
    the same device was already granted one within ``min_interval_s``.
    """

    name = "rate_limited"

    def __init__(self, min_interval_s: float = 10.0) -> None:
        if not min_interval_s > 0:  # NaN too; inf grants once per device
            raise ValueError(f"min_interval_s must be positive, got {min_interval_s}")
        self._min_interval_s = min_interval_s
        self._last_grant: dict[int, float] = {}

    @property
    def min_interval_s(self) -> float:
        """Minimum spacing between granted requests from one device."""
        return self._min_interval_s

    def reset(self) -> None:
        self._last_grant.clear()

    def decide(
        self, device_id: int, request_time: float,
        load: CellLoadSnapshot | None,
    ) -> DormancyDecision:
        del load
        last = self._last_grant.get(device_id)
        if last is not None and request_time - last < self._min_interval_s:
            return DormancyDecision(
                granted=False,
                reason=f"device requested again within {self._min_interval_s}s",
            )
        self._last_grant[device_id] = request_time
        return DormancyDecision(granted=True, reason="within rate limit")


class LoadAwareDormancy(DormancyPolicy):
    """Grant requests only while cell-wide signalling stays below a budget.

    The base station tracks switches over the last minute (provided in the
    load snapshot) and starts refusing dormancy requests once the rate
    exceeds ``max_switches_per_minute`` — trading device energy for network
    stability exactly the way the paper's future-work discussion anticipates.
    """

    name = "load_aware"

    def __init__(self, max_switches_per_minute: int = 120) -> None:
        if max_switches_per_minute <= 0:
            raise ValueError(
                "max_switches_per_minute must be positive, "
                f"got {max_switches_per_minute}"
            )
        self._max_switches_per_minute = max_switches_per_minute

    @property
    def max_switches_per_minute(self) -> int:
        """Cell-wide switch budget per minute above which requests are denied."""
        return self._max_switches_per_minute

    def decide(
        self, device_id: int, request_time: float, load: CellLoadSnapshot
    ) -> DormancyDecision:
        del device_id, request_time
        if load.switches_last_minute >= self._max_switches_per_minute:
            return DormancyDecision(
                granted=False,
                reason=(
                    f"cell at {load.switches_last_minute} switches/min, "
                    f"budget {self._max_switches_per_minute}"
                ),
            )
        return DormancyDecision(granted=True, reason="cell below switch budget")


def partition_switch_budget(
    budget: int, shard_sizes: Sequence[int]
) -> list[int]:
    """Split a cell-wide switches-per-minute budget across device shards.

    Sharded cell execution runs each shard's :class:`LoadAwareDormancy`
    against that shard's *own* load, so the cell-wide budget has to be
    divided up front.  Shares are proportional to shard device counts
    (largest-remainder apportionment; remainder ties go to earlier
    shards), which makes the partition deterministic and exact for equal
    shards.  Every shard receives at least 1 — a load-aware policy needs a
    positive budget — so when ``budget < len(shard_sizes)`` the per-shard
    budgets sum to slightly more than ``budget``.

    This is the documented approximation of sharded ``load_aware`` cells:
    each shard enforces its share against its own switch window, which can
    deny a request a cell-wide budget would have granted (a busy shard
    exhausts its share while another idles) and vice versa.  The
    single-process run remains the exact reference; see
    ``docs/DESIGN.md``.
    """
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if not shard_sizes:
        raise ValueError("at least one shard is required")
    if any(size < 1 for size in shard_sizes):
        raise ValueError(f"shard sizes must be positive, got {list(shard_sizes)}")
    total = sum(shard_sizes)  # repro-lint: allow[left-fold] reason=integer shard sizes; exact order-independent arithmetic
    shares = [budget * size // total for size in shard_sizes]
    by_remainder = sorted(
        range(len(shard_sizes)),
        key=lambda index: (-(budget * shard_sizes[index] % total), index),
    )
    for index in by_remainder[: budget - sum(shares)]:  # repro-lint: allow[left-fold] reason=integer largest-remainder shares; exact arithmetic
        shares[index] += 1
    return [max(1, share) for share in shares]
