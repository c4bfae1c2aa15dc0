"""Online learning substrate: Fixed-Share experts, Learn-α, MakeActive loss."""

from .experts import FixedShareExperts
from .learn_alpha import LearnAlpha, default_alpha_grid
from .loss import DEFAULT_GAMMA, MakeActiveLoss, aggregate_delay
from .predictors import (
    DecayedHistogramPredictor,
    ExponentialRatePredictor,
    GapPredictor,
    PredictiveMakeIdlePolicy,
    SlidingWindowPredictor,
)

__all__ = [
    "DEFAULT_GAMMA",
    "DecayedHistogramPredictor",
    "ExponentialRatePredictor",
    "GapPredictor",
    "PredictiveMakeIdlePolicy",
    "SlidingWindowPredictor",
    "FixedShareExperts",
    "LearnAlpha",
    "MakeActiveLoss",
    "aggregate_delay",
    "default_alpha_grid",
]
