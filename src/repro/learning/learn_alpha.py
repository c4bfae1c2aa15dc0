"""Learn-α: two-layer bank-of-experts learning (Monteleoni & Jaakkola).

A single Fixed-Share learner needs its switching rate ``α`` chosen up front,
but the right value depends on how quickly the traffic pattern changes.  The
paper therefore uses the Learn-α construction: keep ``m`` Fixed-Share
sub-learners, each with its own ``α_j``, and a top-level exponential-weights
learner over them.  The top layer's weights are updated with each α-expert's
*mix loss* (paper Equation 5)

.. math::

    L(\\alpha_j, t) = -\\log \\sum_i p_{t,j}(i)\\, e^{-L(i, t)}

and the overall prediction is the doubly weighted average (Equation 3)

.. math::

    T_t = \\sum_j \\sum_i p'_t(j)\\, p_{t,j}(i)\\, T_i .
"""

from __future__ import annotations

import math
from typing import Sequence

from ..folds import left_fold
from .experts import FixedShareExperts, _check_loss_row, _exp_factors, _mix_loss

__all__ = ["LearnAlpha", "default_alpha_grid"]


def default_alpha_grid(m: int = 8) -> tuple[float, ...]:
    """A reasonable spread of switching rates for the α-experts.

    Produces ``m`` values spanning "almost static" (1e-3) to "switches every
    step" (0.5) on a logarithmic grid, which covers both stationary and
    rapidly changing traffic.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m == 1:
        return (0.1,)
    low, high = math.log10(1e-3), math.log10(0.5)
    return tuple(10 ** (low + (high - low) * i / (m - 1)) for i in range(m))


class LearnAlpha:
    """Two-layer learner: Fixed-Share sub-learners under an exponential-weights top layer.

    Parameters
    ----------
    expert_values:
        Values proposed by the bottom-layer experts (shared across all
        α-experts); in MakeActive these are candidate delay bounds.
    alphas:
        Switching rates of the α-experts; defaults to
        :func:`default_alpha_grid`.
    """

    def __init__(
        self,
        expert_values: Sequence[float],
        alphas: Sequence[float] | None = None,
    ) -> None:
        if not expert_values:
            raise ValueError("at least one expert value is required")
        alpha_values = tuple(alphas) if alphas is not None else default_alpha_grid()
        if not alpha_values:
            raise ValueError("at least one alpha-expert is required")
        for alpha in alpha_values:
            if not 0.0 <= alpha <= 1.0:
                raise ValueError(f"alpha values must be in [0, 1], got {alpha}")
        self._expert_values = tuple(float(v) for v in expert_values)
        self._sub_learners = [
            FixedShareExperts(self._expert_values, alpha=a) for a in alpha_values
        ]
        self._alpha_weights = [1.0 / len(alpha_values)] * len(alpha_values)
        self._iterations = 0
        self._prediction = self._weighted_prediction()

    # -- read-only views ---------------------------------------------------------------

    @property
    def expert_values(self) -> tuple[float, ...]:
        """Values proposed by the bottom-layer experts."""
        return self._expert_values

    @property
    def alphas(self) -> tuple[float, ...]:
        """The switching rates of the α-experts."""
        return tuple(learner.alpha for learner in self._sub_learners)

    @property
    def alpha_weights(self) -> tuple[float, ...]:
        """Current top-layer weights ``p'_t(j)`` over the α-experts."""
        return tuple(self._alpha_weights)

    @property
    def iterations(self) -> int:
        """Number of updates applied so far."""
        return self._iterations

    @property
    def effective_alpha(self) -> float:
        """Weight-averaged switching rate currently favoured by the top layer."""
        return left_fold(
            w * learner.alpha
            for w, learner in zip(self._alpha_weights, self._sub_learners)
        )

    # -- prediction and update -----------------------------------------------------------

    def predict(self) -> float:
        """The doubly weighted prediction ``T_t`` (paper Equation 3).

        Only construction, :meth:`update` and :meth:`reset` move the
        weights, and each computes the prediction once as it finishes;
        this returns the kept value.
        """
        return self._prediction

    def update(self, losses: Sequence[float]) -> float:
        """Apply one update with per-expert losses shared by every α-expert.

        The top layer is updated with each α-expert's mix loss *before* the
        sub-learners advance (the losses at time ``t-1`` update the weights
        used at time ``t``, matching the paper's indexing), then every
        Fixed-Share sub-learner applies its own update.  Returns the new
        overall prediction.

        The row is checked before any weight moves.  The factors
        ``e^{-L(i,t)}`` are computed once for all α-experts, and each
        α-expert's one mixture is its mix loss, its own loss and its
        normaliser alike.
        """
        _check_loss_row(losses, len(self._expert_values))
        factors = _exp_factors(losses)
        mixes = [learner._mix(factors) for learner in self._sub_learners]
        alpha_losses = [_mix_loss(mixture, losses) for _, mixture in mixes]
        boosted = [
            w * math.exp(-loss) for w, loss in zip(self._alpha_weights, alpha_losses)
        ]
        total = left_fold(boosted)
        if total <= 0.0:
            self._alpha_weights = [1.0 / len(boosted)] * len(boosted)
        else:
            self._alpha_weights = [b / total for b in boosted]

        for learner, (products, mixture), own_loss in zip(
            self._sub_learners, mixes, alpha_losses
        ):
            learner._advance(products, mixture, own_loss)
        self._iterations += 1
        self._prediction = self._weighted_prediction()
        return self._prediction

    def reset(self) -> None:
        """Restore uniform weights in both layers."""
        for learner in self._sub_learners:
            learner.reset()
        self._alpha_weights = [1.0 / len(self._sub_learners)] * len(self._sub_learners)
        self._iterations = 0
        self._prediction = self._weighted_prediction()

    def _weighted_prediction(self) -> float:
        return left_fold([
            alpha_weight * learner.predict()
            for alpha_weight, learner in zip(self._alpha_weights, self._sub_learners)
        ])
