"""Core contribution: MakeIdle, MakeActive, Oracle, baselines and the controller."""

from .baselines import FixedTimerPolicy, PercentileIatPolicy
from .controller import SCHEME_ORDER, CombinedPolicy, standard_policies
from .interactive import (
    DEFAULT_REGISTRY,
    ApplicationRegistry,
    ForegroundSchedule,
    InteractiveAwarePolicy,
)
from .related_work import TailEnderPolicy, TailTheftPolicy, TopHintPolicy
from .makeactive import (
    FixedDelayMakeActive,
    LearningMakeActive,
    LearningRecord,
    compute_fixed_delay_bound,
)
from .makeidle import MakeIdlePolicy, WaitDecision
from .oracle import OraclePolicy
from .policy import RadioPolicy, StatusQuoPolicy

__all__ = [
    "ApplicationRegistry",
    "CombinedPolicy",
    "DEFAULT_REGISTRY",
    "ForegroundSchedule",
    "InteractiveAwarePolicy",
    "TailEnderPolicy",
    "TailTheftPolicy",
    "TopHintPolicy",
    "FixedDelayMakeActive",
    "FixedTimerPolicy",
    "LearningMakeActive",
    "LearningRecord",
    "MakeIdlePolicy",
    "OraclePolicy",
    "PercentileIatPolicy",
    "RadioPolicy",
    "SCHEME_ORDER",
    "StatusQuoPolicy",
    "WaitDecision",
    "compute_fixed_delay_bound",
    "standard_policies",
]
