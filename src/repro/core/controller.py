"""The control module: composing MakeIdle and MakeActive into one policy.

Figure 4 of the paper shows a single on-device control module that watches
socket activity and drives the radio; MakeIdle runs while the radio is
Active and MakeActive while it is Idle.  :class:`CombinedPolicy` composes
any demotion policy with any activation policy into that single module, and
:func:`standard_policies` builds the exact set of schemes compared in the
evaluation figures.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..learning.predictors import (
    DecayedHistogramPredictor,
    ExponentialRatePredictor,
    PredictiveMakeIdlePolicy,
)
from ..rrc.profiles import CarrierProfile
from ..traces.packet import Packet, PacketTrace
from .baselines import FixedTimerPolicy, PercentileIatPolicy
from .makeactive import FixedDelayMakeActive, LearningMakeActive
from .makeidle import MakeIdlePolicy
from .oracle import OraclePolicy
from .policy import RadioPolicy, StatusQuoPolicy

__all__ = [
    "CombinedPolicy",
    "KNOWN_SCHEMES",
    "build_scheme",
    "standard_policies",
    "SCHEME_ORDER",
]

#: Scheme keys in the order the paper's figures list them.
SCHEME_ORDER: tuple[str, ...] = (
    "fixed_4.5s",
    "p95_iat",
    "makeidle",
    "oracle",
    "makeidle+makeactive_learn",
    "makeidle+makeactive_fixed",
)


class CombinedPolicy(RadioPolicy):
    """Compose a demotion (MakeIdle-side) policy with an activation (MakeActive-side) policy.

    All observation hooks are forwarded to both components; demotion
    decisions come from ``idle_policy`` and activation decisions from
    ``active_policy``.
    """

    def __init__(
        self,
        idle_policy: RadioPolicy,
        active_policy: RadioPolicy,
        name: str | None = None,
    ) -> None:
        self._idle = idle_policy
        self._active = active_policy
        self.name = name or f"{idle_policy.name}+{active_policy.name}"
        self.requires_trace = bool(
            idle_policy.requires_trace or active_policy.requires_trace
        )

    @property
    def idle_policy(self) -> RadioPolicy:
        """The component deciding when to demote the radio."""
        return self._idle

    @property
    def active_policy(self) -> RadioPolicy:
        """The component deciding how long to buffer new sessions."""
        return self._active

    def prepare(self, trace: PacketTrace, profile: CarrierProfile) -> None:
        self._idle.prepare(trace, profile)
        self._active.prepare(trace, profile)

    def learning_records(self) -> Sequence[object]:
        return tuple(self._idle.learning_records()) + tuple(
            self._active.learning_records()
        )

    def reset(self) -> None:
        self._idle.reset()
        self._active.reset()

    def observe_packet(self, time: float, packet: Packet) -> None:
        self._idle.observe_packet(time, packet)
        self._active.observe_packet(time, packet)

    def dormancy_wait(self, now: float) -> float | None:
        return self._idle.dormancy_wait(now)

    def activation_delay(self, now: float) -> float:
        return self._active.activation_delay(now)

    def on_release(self, release_time: float, arrival_times: Sequence[float]) -> None:
        self._idle.on_release(release_time, arrival_times)
        self._active.on_release(release_time, arrival_times)


#: Every scheme :func:`build_scheme` knows, mapped to a builder that takes
#: the MakeIdle window size: the status-quo baseline, the paper's six
#: comparison schemes, and the predictor-ablation MakeIdle variants
#: (decayed histogram / exponential rate) that the learning tournament
#: sweeps alongside them.  Result tables list schemes in this order.
_SCHEME_BUILDERS: dict[str, Callable[[int], RadioPolicy]] = {
    "status_quo": lambda window: StatusQuoPolicy(),
    "fixed_4.5s": lambda window: FixedTimerPolicy(4.5),
    "p95_iat": lambda window: PercentileIatPolicy(95.0),
    "makeidle": lambda window: MakeIdlePolicy(window_size=window),
    "oracle": lambda window: OraclePolicy(),
    "makeidle+makeactive_learn": lambda window: CombinedPolicy(
        MakeIdlePolicy(window_size=window),
        LearningMakeActive(),
        name="makeidle+makeactive_learn",
    ),
    "makeidle+makeactive_fixed": lambda window: CombinedPolicy(
        MakeIdlePolicy(window_size=window),
        FixedDelayMakeActive(),
        name="makeidle+makeactive_fixed",
    ),
    "makeidle_hist": lambda window: PredictiveMakeIdlePolicy(
        DecayedHistogramPredictor(), name="makeidle_hist"
    ),
    "makeidle_rate": lambda window: PredictiveMakeIdlePolicy(
        ExponentialRatePredictor(), name="makeidle_rate"
    ),
}

#: Scheme names understood by :func:`build_scheme`, in table order.
KNOWN_SCHEMES: tuple[str, ...] = tuple(_SCHEME_BUILDERS)


def build_scheme(scheme: str, window_size: int = 100) -> RadioPolicy:
    """Build exactly one scheme's policy — a fresh instance on every call.

    Unlike :func:`standard_policies`, which materialises the whole
    comparison set, this constructs only the requested scheme: cell
    population builders call it once per device, so each UE does O(1)
    construction work and — crucially for the online learners — owns a
    learner instance no other UE (or shard) shares.
    """
    try:
        builder = _SCHEME_BUILDERS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None
    return builder(window_size)


def standard_policies(window_size: int = 100) -> dict[str, RadioPolicy]:
    """Build the six schemes compared throughout the paper's evaluation.

    Keys match :data:`SCHEME_ORDER`; the status quo is not included because
    it is the normalisation baseline rather than a compared scheme (use
    :class:`~repro.core.policy.StatusQuoPolicy` directly for it).
    """
    return {key: build_scheme(key, window_size) for key in SCHEME_ORDER}
