"""Signalling-overhead accounting for RRC state switches.

Every promotion and demotion of the radio is accompanied by control-plane
messages between the device and the base station (RRC connection setup /
release, radio-bearer reconfiguration).  The paper measures signalling
overhead simply as the *number of state switches normalised by the status
quo* (Figures 10(b), 11(b) and 18); this module keeps that primary metric
but also exposes a finer-grained message count so the base-station-side cost
of a policy can be reasoned about (the paper's Section 8 lists this as
future work).

The per-switch message counts are the commonly cited values for UMTS and
LTE RRC procedures:

* an Idle→DCH promotion in UMTS requires on the order of 25–30 control
  messages (RRC connection setup plus radio-bearer establishment);
* a UMTS release (timer expiry or fast dormancy) takes a handful of
  messages;
* LTE connection setup/release is lighter-weight (≈10 and ≈5 messages).

The exact constants matter only for relative comparisons, and are exposed
as a dataclass so studies can plug in their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .state_machine import SwitchEvent, SwitchKind
from .states import Technology

__all__ = [
    "SignalingCosts",
    "SignalingLoad",
    "UMTS_SIGNALING_COSTS",
    "LTE_SIGNALING_COSTS",
    "signaling_costs_for",
    "count_messages",
    "signaling_load",
]


@dataclass(frozen=True)
class SignalingCosts:
    """Control-plane messages exchanged per RRC procedure.

    Attributes
    ----------
    promotion_messages:
        Messages for an Idle→Active promotion (connection setup).
    timer_release_messages:
        Messages for a network-initiated release after timer expiry.
    fast_dormancy_messages:
        Messages for a device-initiated (fast dormancy) release: the
        device's request plus the network's release procedure.
    """

    promotion_messages: int
    timer_release_messages: int
    fast_dormancy_messages: int

    def __post_init__(self) -> None:
        for name in (
            "promotion_messages",
            "timer_release_messages",
            "fast_dormancy_messages",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def messages_for(self, kind: SwitchKind) -> int:
        """Messages exchanged for one switch of the given kind."""
        if kind is SwitchKind.PROMOTION:
            return self.promotion_messages
        if kind is SwitchKind.TIMER_DEMOTION:
            return self.timer_release_messages
        return self.fast_dormancy_messages


#: Typical UMTS (3G) RRC procedure message counts.
UMTS_SIGNALING_COSTS = SignalingCosts(
    promotion_messages=28,
    timer_release_messages=5,
    fast_dormancy_messages=6,
)

#: Typical LTE RRC procedure message counts.
LTE_SIGNALING_COSTS = SignalingCosts(
    promotion_messages=10,
    timer_release_messages=4,
    fast_dormancy_messages=5,
)


def signaling_costs_for(technology: Technology) -> SignalingCosts:
    """Default per-procedure message counts for a radio technology."""
    if technology is Technology.LTE:
        return LTE_SIGNALING_COSTS
    return UMTS_SIGNALING_COSTS


@dataclass(frozen=True)
class SignalingLoad:
    """Aggregate control-plane load of one simulated run."""

    promotions: int
    timer_demotions: int
    fast_dormancy_demotions: int
    messages: int
    duration_s: float

    @property
    def switches(self) -> int:
        """Total number of state switches."""
        return self.promotions + self.timer_demotions + self.fast_dormancy_demotions

    @property
    def messages_per_hour(self) -> float:
        """Control messages per hour of trace time (0 for an empty run)."""
        if self.duration_s <= 0:
            return 0.0
        return self.messages * 3600.0 / self.duration_s

    @property
    def switches_per_hour(self) -> float:
        """State switches per hour of trace time (0 for an empty run)."""
        if self.duration_s <= 0:
            return 0.0
        return self.switches * 3600.0 / self.duration_s

    def normalized_switches(self, baseline: "SignalingLoad") -> float:
        """This run's switch count divided by the baseline's.

        Mirrors the paper's "number of state switches normalised by status
        quo" metric; if the baseline performed no switches the raw switch
        count is returned (a zero-switch baseline normalises anything to
        itself only when this run also made no switches).
        """
        if baseline.switches == 0:
            return float(self.switches) if self.switches else 1.0
        return self.switches / baseline.switches


def count_messages(
    switches: Iterable[SwitchEvent], costs: SignalingCosts
) -> int:
    """Total control-plane messages implied by a sequence of switch events."""
    return sum(costs.messages_for(event.kind) for event in switches)  # repro-lint: allow[left-fold] reason=integer count; exact


def signaling_load(
    switches: Sequence[SwitchEvent],
    duration_s: float,
    costs: SignalingCosts | None = None,
    technology: Technology = Technology.UMTS_3G,
) -> SignalingLoad:
    """Summarise the control-plane load of one run's switch events.

    Parameters
    ----------
    switches:
        The run's :class:`~repro.rrc.state_machine.SwitchEvent` sequence.
    duration_s:
        Length of the simulated run, for per-hour rates.
    costs:
        Per-procedure message counts; defaults to the technology's typical
        values.
    technology:
        Used only to pick the default ``costs``.
    """
    if duration_s < 0:
        raise ValueError(f"duration_s must be non-negative, got {duration_s}")
    chosen = costs if costs is not None else signaling_costs_for(technology)
    promotions = sum(1 for s in switches if s.kind is SwitchKind.PROMOTION)  # repro-lint: allow[left-fold] reason=integer count; exact
    timer_demotions = sum(1 for s in switches if s.kind is SwitchKind.TIMER_DEMOTION)  # repro-lint: allow[left-fold] reason=integer count; exact
    dormancy = sum(1 for s in switches if s.kind is SwitchKind.FAST_DORMANCY)  # repro-lint: allow[left-fold] reason=integer count; exact
    return SignalingLoad(
        promotions=promotions,
        timer_demotions=timer_demotions,
        fast_dormancy_demotions=dormancy,
        messages=count_messages(switches, chosen),
        duration_s=duration_s,
    )
