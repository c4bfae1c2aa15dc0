"""Network-controlled fast-dormancy policies (3GPP Release 8).

Under Release 8 the device merely *requests* channel release; the base
station decides.  The paper's simplified model assumes every request is
granted and motivates this module in its future work: an operator worried
about signalling storms may want to throttle or refuse requests.  Each
policy here sees the requesting device, the request time and the cell's
live :class:`~repro.sim.engine.CellLoad`, which it reads and never
mutates, and answers ``True`` (grant) or ``False`` (deny).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import CellLoad

__all__ = [
    "DormancyPolicy",
    "AcceptAllDormancy",
    "RejectAllDormancy",
    "RateLimitedDormancy",
    "LoadAwareDormancy",
    "check_min_interval",
    "check_switch_budget",
    "partition_switch_budget",
]


class DormancyPolicy:
    """Base class: how the base station answers fast-dormancy requests."""

    #: Name used in result tables.
    name: str = "dormancy_policy"

    def decide(
        self, device_id: int, request_time: float, load: CellLoad | None
    ) -> bool:
        """Grant (``True``) or deny (``False``) a device's channel release.

        ``load`` is the cell's load when the request pops; a policy
        reads it and never mutates it.  The scalar kernel passes its live
        load.  The vector kernel replays a shard only for the stations
        whose ``decide`` it knows by type: it passes ``None`` to those
        that never read the load
        (:func:`repro.sim.vector_engine.station_decides_per_device`), and
        to :class:`LoadAwareDormancy`, which reads only the switch
        window, a load whose window holds exactly the switches the scalar
        kernel would have recorded before this request
        (:func:`repro.sim.vector_engine.station_reads_switch_window`).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run state (default: nothing to clear)."""


class AcceptAllDormancy(DormancyPolicy):
    """The paper's assumption: every request is granted immediately.

    A station whose ``decide`` is this one grants unconditionally and keeps
    no per-request state, so neither kernel asks it and its devices may be
    replayed independently
    (:func:`repro.sim.vector_engine.station_always_grants`).
    """

    name = "accept_all"

    def decide(
        self, device_id: int, request_time: float, load: CellLoad | None
    ) -> bool:
        del device_id, request_time, load
        return True


class RejectAllDormancy(DormancyPolicy):
    """The pre-Release-7 world: devices cannot release the channel themselves."""

    name = "reject_all"

    def decide(
        self, device_id: int, request_time: float, load: CellLoad | None
    ) -> bool:
        del device_id, request_time, load
        return False


class RateLimitedDormancy(DormancyPolicy):
    """Grant requests unless a device asks too often.

    Operators deploying network-controlled fast dormancy mainly fear
    signalling storms from chatty devices; this policy denies a request if
    the same device was already granted one within ``min_interval_s``.
    """

    name = "rate_limited"

    def __init__(self, min_interval_s: float = 10.0) -> None:
        check_min_interval(min_interval_s)
        self._min_interval_s = min_interval_s
        self._last_grant: dict[int, float] = {}

    @property
    def min_interval_s(self) -> float:
        """Minimum spacing between granted requests from one device."""
        return self._min_interval_s

    def reset(self) -> None:
        self._last_grant.clear()

    def decide(
        self, device_id: int, request_time: float, load: CellLoad | None
    ) -> bool:
        del load
        last = self._last_grant.get(device_id)
        if last is not None and request_time - last < self._min_interval_s:
            return False
        self._last_grant[device_id] = request_time
        return True


def check_min_interval(min_interval_s: float) -> None:
    """Refuse a rate-limited spacing that is not positive.

    The one check behind :class:`RateLimitedDormancy` and
    :class:`~repro.api.cells.DormancySpec`.  NaN fails too: it would grant
    every request and make a spec unequal to itself.  ``inf`` passes and
    grants one request per device.
    """
    if not min_interval_s > 0:
        raise ValueError(
            "rate_limited takes a positive min_interval_s, "
            f"got {min_interval_s}"
        )


def check_switch_budget(budget: float) -> None:
    """Refuse a load-aware budget that is not a positive, finite whole number.

    The one check behind :class:`LoadAwareDormancy` and
    :class:`~repro.api.cells.DormancySpec`.  NaN and inf fail the range
    test before ``int()`` sees them; a fractional budget would be
    truncated by a spec's ``build()``, leaving its label and cache key
    naming a policy never in effect.
    """
    if not 0 < budget < float("inf") or budget != int(budget):
        raise ValueError(
            "load_aware takes a positive whole switches-per-minute "
            f"budget, got {budget}"
        )


class LoadAwareDormancy(DormancyPolicy):
    """Grant requests only while cell-wide signalling stays below a budget.

    The base station counts the switches of the last minute in the live
    cell load and refuses dormancy requests once that count reaches
    ``max_switches_per_minute`` — trading device energy for network
    stability exactly the way the paper's future-work discussion
    anticipates.  A station whose ``decide`` is this one reads nothing
    else, so the vector kernel can replay its switch window
    (:func:`repro.sim.vector_engine.station_reads_switch_window`).
    """

    name = "load_aware"

    def __init__(self, max_switches_per_minute: int = 120) -> None:
        check_switch_budget(max_switches_per_minute)
        self._max_switches_per_minute = max_switches_per_minute

    @property
    def max_switches_per_minute(self) -> int:
        """Cell-wide switch budget per minute above which requests are denied."""
        return self._max_switches_per_minute

    def decide(
        self, device_id: int, request_time: float, load: CellLoad
    ) -> bool:
        del device_id
        return (load.switches_within_window(request_time)
                < self._max_switches_per_minute)


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
