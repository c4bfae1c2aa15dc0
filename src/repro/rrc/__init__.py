"""RRC substrate: radio states, carrier profiles, state machine, signalling.

Fast dormancy has one cost model: :class:`CarrierProfile`'s
``demotion_delay_s``, ``demotion_energy_j`` and ``switch_energy_j``, charged
at ``dormancy_fraction`` of the measured radio-off cost (the paper's 50 %
default; :meth:`CarrierProfile.with_dormancy_fraction` for the Section 6.1
sensitivity check, which :func:`repro.energy.sensitivity.dormancy_cost_sensitivity`
runs).  Whether a request is granted is the base station's call
(:mod:`repro.basestation.policies`).
"""

from .drx import (
    DEFAULT_LTE_DRX,
    DrxConfig,
    DrxPhase,
    drx_timeline,
    effective_tail_power,
    profile_with_drx,
)
from .signaling import (
    LTE_SIGNALING_COSTS,
    UMTS_SIGNALING_COSTS,
    SignalingCosts,
    SignalingLoad,
    count_messages,
    signaling_costs_for,
    signaling_load,
)
from .profiles import (
    CARRIER_ORDER,
    CARRIER_PROFILES,
    DEFAULT_DORMANCY_FRACTION,
    CarrierProfile,
    get_profile,
)
from .state_machine import RrcStateMachine, StateInterval, SwitchEvent, SwitchKind
from .states import RadioState, Technology

__all__ = [
    "CARRIER_ORDER",
    "DEFAULT_LTE_DRX",
    "DrxConfig",
    "DrxPhase",
    "LTE_SIGNALING_COSTS",
    "SignalingCosts",
    "SignalingLoad",
    "UMTS_SIGNALING_COSTS",
    "count_messages",
    "drx_timeline",
    "effective_tail_power",
    "profile_with_drx",
    "signaling_costs_for",
    "signaling_load",
    "CARRIER_PROFILES",
    "CarrierProfile",
    "DEFAULT_DORMANCY_FRACTION",
    "RadioState",
    "RrcStateMachine",
    "StateInterval",
    "SwitchEvent",
    "SwitchKind",
    "Technology",
    "get_profile",
]
