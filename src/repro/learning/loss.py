"""Loss functions for the MakeActive expert learners.

The MakeActive learning algorithm (paper Section 5.2) scores each expert's
proposed delay bound ``T_i`` with

.. math::

    L(i) = \\gamma \\cdot \\mathrm{Delay}(T_i) + \\frac{1}{b}, \\qquad \\gamma > 0

where ``Delay(T_i) = sum_j (T_i - t_j)`` is the total extra waiting time the
``b`` currently buffered sessions would suffer if the radio were promoted at
``T_i`` (session ``j`` arrived at ``t_j``), and the ``1/b`` term rewards
batching more sessions together.  ``γ`` trades delay against signalling; the
paper uses 0.008.

The functions here are pure and shared by both the concrete MakeActive
implementation and the generic expert learners (which only need a mapping
from expert index to loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..folds import left_fold

__all__ = ["MakeActiveLoss", "aggregate_delay", "check_bound", "DEFAULT_GAMMA"]

#: The paper's value for the delay-vs-batching trade-off constant.
DEFAULT_GAMMA = 0.008


def check_bound(delay_bound: float) -> None:
    """Refuse a negative or NaN delay bound: the rule for every MakeActive bound."""
    if not delay_bound >= 0:
        raise ValueError(f"delay_bound must be non-negative, got {delay_bound}")


def aggregate_delay(delay_bound: float, arrival_offsets: Sequence[float]) -> float:
    """Total waiting time of buffered sessions if released at ``delay_bound``.

    ``arrival_offsets`` are the session arrival times measured from the
    moment the first buffered session arrived (so the first entry is 0).
    Sessions that arrive after ``delay_bound`` would not have been buffered
    by this expert and contribute nothing.
    """
    check_bound(delay_bound)
    return left_fold(
        delay_bound - offset
        for offset in arrival_offsets
        if 0.0 <= offset <= delay_bound
    )


@dataclass(frozen=True)
class MakeActiveLoss:
    """The paper's MakeActive loss, parameterised by ``γ``.

    Calling the instance with an expert's delay bound and the buffered
    sessions' arrival offsets returns ``γ · Delay(T_i) + 1/b`` where ``b``
    is the number of sessions the expert would have buffered.  Experts whose
    bound buffers no session (``b = 0``) receive the worst-case loss
    ``γ · T_i + 1``, so they are strongly down-weighted.
    """

    gamma: float = DEFAULT_GAMMA

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def __call__(
        self, delay_bound: float, arrival_offsets: Sequence[float]
    ) -> float:
        return self.row((delay_bound,), arrival_offsets)[0]

    def row(
        self, delay_bounds: Sequence[float], arrival_offsets: Sequence[float]
    ) -> list[float]:
        """The loss of every bound in ``delay_bounds`` over one release.

        Entry ``i`` is the loss of ``delay_bounds[i]`` alone; the offsets
        before the first arrival are dropped once for the whole row.
        Every bound is checked before any loss is computed.
        """
        for bound in delay_bounds:
            check_bound(bound)
        started = [o for o in arrival_offsets if 0.0 <= o]
        losses = []
        for bound in delay_bounds:
            # aggregate_delay's left fold, inlined: the same terms in the
            # same order, counted as they are added.
            total_delay = 0
            buffered = 0
            for offset in started:
                if offset <= bound:
                    total_delay += bound - offset
                    buffered += 1
            if buffered:
                losses.append(self.gamma * total_delay + 1.0 / buffered)
            else:
                losses.append(self.gamma * bound + 1.0)
        return losses
