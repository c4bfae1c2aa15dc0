"""Bank-of-experts online learning: Static-Share and Fixed-Share updates.

The MakeActive learning algorithm uses the "bank of experts" framework of
Herbster & Warmuth (Fixed-Share) as described in the paper's appendix.  Each
expert ``i`` proposes a fixed value ``T_i`` (a session delay bound in the
MakeActive application, but the machinery is generic).  The algorithm keeps
a weight ``p_t(i)`` per expert, predicts the weighted average of the expert
values, observes a loss ``L(i, t)`` per expert, and updates

.. math::

    p_t(i) = \\frac{1}{Z_t} \\sum_j p_{t-1}(j)\\, e^{-L(j, t-1)}\\, P(i \\mid j, \\alpha)

with the switching kernel

.. math::

    P(i \\mid j, \\alpha) = \\begin{cases} 1 - \\alpha & i = j \\\\
                                         \\alpha / (n - 1) & i \\ne j \\end{cases}

``α = 0`` recovers the Static-expert (pure exponential-weights) update;
``α`` close to 1 lets the best expert change rapidly, which suits bursty
traffic.  Choosing ``α`` well is hard, which is why the paper layers the
Learn-α meta-learner (:mod:`repro.learning.learn_alpha`) on top.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..folds import left_fold

__all__ = ["FixedShareExperts"]


def _check_loss_row(losses: Sequence[float], n_experts: int) -> None:
    """Refuse a loss row of the wrong length or with a negative or NaN loss.

    ``inf`` is admissible: its factor ``e^{-inf}`` is 0.  Both learners
    check a row here before any of their state moves, so a refused row
    leaves them as they were.
    """
    if len(losses) != n_experts:
        raise ValueError(f"expected {n_experts} losses, got {len(losses)}")
    for loss in losses:
        if not loss >= 0.0:
            raise ValueError(f"losses must be non-negative, got {loss!r}")


def _exp_factors(losses: Sequence[float]) -> list[float]:
    """The factors ``e^{-L(i,t)}`` every weight row of one update multiplies by."""
    return [math.exp(-loss) for loss in losses]


def _mix_loss(mixture: float, losses: Sequence[float]) -> float:
    """``-log`` of a mixture; the worst loss when the mixture underflowed to 0."""
    if mixture <= 0.0:
        return max(losses)
    return -math.log(mixture)


class FixedShareExperts:
    """Fixed-Share bank of experts over a fixed set of expert values.

    Parameters
    ----------
    expert_values:
        The value each expert proposes (e.g. delay bounds 1..n seconds).
    alpha:
        Switching rate of the Fixed-Share kernel; 0 gives the static
        exponential-weights algorithm.

    The learner starts from uniform weights.  :meth:`predict` returns the
    current weighted average; :meth:`update` consumes one loss per expert
    and applies the Fixed-Share weight update.
    """

    def __init__(self, expert_values: Sequence[float], alpha: float = 0.1) -> None:
        if not expert_values:
            raise ValueError("at least one expert is required")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self._values = tuple(float(v) for v in expert_values)
        self._alpha = alpha
        self._weights = [1.0 / len(self._values)] * len(self._values)
        self._iterations = 0
        self._cumulative_loss = 0.0

    # -- read-only views ---------------------------------------------------------------

    @property
    def expert_values(self) -> tuple[float, ...]:
        """The fixed values proposed by the experts."""
        return self._values

    @property
    def alpha(self) -> float:
        """The switching rate of the Fixed-Share kernel."""
        return self._alpha

    @property
    def weights(self) -> tuple[float, ...]:
        """Current normalised expert weights ``p_t(i)``."""
        return tuple(self._weights)

    @property
    def iterations(self) -> int:
        """Number of :meth:`update` calls applied so far."""
        return self._iterations

    @property
    def cumulative_loss(self) -> float:
        """Sum over iterations of the learner's own (weighted-average) loss."""
        return self._cumulative_loss

    @property
    def best_expert_index(self) -> int:
        """Index of the expert with the highest current weight."""
        return max(range(len(self._weights)), key=self._weights.__getitem__)

    # -- prediction and update -----------------------------------------------------------

    def predict(self) -> float:
        """Current prediction: the weight-averaged expert value ``Σ p_t(i) T_i``."""
        return left_fold([w * v for w, v in zip(self._weights, self._values)])

    def update(self, losses: Sequence[float]) -> float:
        """Apply one Fixed-Share update given per-expert losses.

        Returns the learner's own loss for this iteration, defined as the
        weight-averaged expert loss (used for diagnostics and by Learn-α,
        where the analogous quantity appears as ``L(α_j, t)``).
        """
        _check_loss_row(losses, len(self._values))
        products, mixture = self._mix(_exp_factors(losses))
        own_loss = _mix_loss(mixture, losses)
        self._advance(products, mixture, own_loss)
        return own_loss

    def loss_of_mixture(self, losses: Sequence[float]) -> float:
        """Mix loss ``-log Σ p_t(i) e^{-L(i,t)}`` of the current weights.

        This is the quantity the Learn-α layer uses as the loss of an
        α-expert (paper Equation 5).  It is bounded above by the weighted
        average loss and below by the best expert's loss.
        """
        _check_loss_row(losses, len(self._values))
        return _mix_loss(self._mix(_exp_factors(losses))[1], losses)

    def _mix(self, factors: Sequence[float]) -> tuple[list[float], float]:
        """The products ``p_t(i) e^{-L(i,t)}`` and their left-folded mixture.

        The mixture is both the exponent of the mix loss and the
        normaliser of :meth:`_advance`, so one fold serves both.
        :class:`~repro.learning.learn_alpha.LearnAlpha` runs this step and
        :meth:`_advance` on every α-row, with factors shared by all rows.
        """
        products = [w * f for w, f in zip(self._weights, factors)]
        return products, left_fold(products)

    def _advance(self, products: list[float], mixture: float, own_loss: float) -> None:
        """The Fixed-Share step from one :meth:`_mix` of the current weights.

        The exponential-weights step followed by the switching kernel,
        computed without materialising the full kernel matrix.
        """
        n = len(products)
        if mixture <= 0.0:
            # All losses astronomically large; fall back to uniform weights.
            self._weights = [1.0 / n] * n
        else:
            boosted = [p / mixture for p in products]
            if n == 1 or self._alpha == 0.0:  # repro-lint: allow[float-eq] reason=documented Learn-α reduction: α=0.0 must reduce exactly to Fixed-Share (property-tested)
                self._weights = boosted
            else:
                keep = 1.0 - self._alpha
                share = self._alpha / (n - 1)
                mass = left_fold(boosted)
                weights = [keep * b + share * (mass - b) for b in boosted]
                normalizer = left_fold(weights)
                self._weights = [w / normalizer for w in weights]
        self._iterations += 1
        self._cumulative_loss += own_loss

    def reset(self) -> None:
        """Restore uniform weights and clear the iteration counters."""
        self._weights = [1.0 / len(self._values)] * len(self._values)
        self._iterations = 0
        self._cumulative_loss = 0.0
