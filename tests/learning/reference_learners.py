"""Reference learners: the straightforward Fixed-Share / Learn-α arithmetic.

A test-side copy of the learners as they were before each release's
arithmetic was shared: every α-expert recomputes its own ``math.exp``
factors and folds its mixture three times (as the α-loss, as its own loss
and as its normaliser), :meth:`ReferenceLearnAlpha.predict` refolds Eq. 3
on every call, and the MakeActive loss scores one bound per call.  The
bit-pin tests compare the library against these in ``float.hex``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.makeactive import LearningRecord
from repro.folds import left_fold


class ReferenceFixedShare:
    """Fixed-Share experts, one full pass per :meth:`update`."""

    def __init__(self, expert_values: Sequence[float], alpha: float) -> None:
        self.values = tuple(float(v) for v in expert_values)
        self.alpha = alpha
        self.weights = [1.0 / len(self.values)] * len(self.values)
        self.iterations = 0
        self.cumulative_loss = 0.0

    def predict(self) -> float:
        return left_fold(w * v for w, v in zip(self.weights, self.values))

    def update(self, losses: Sequence[float]) -> float:
        if len(losses) != len(self.values):
            raise ValueError(f"expected {len(self.values)} losses, got {len(losses)}")
        if any(loss < 0 for loss in losses):
            raise ValueError("losses must be non-negative")

        own_loss = self.loss_of_mixture(losses)

        boosted = [w * math.exp(-loss) for w, loss in zip(self.weights, losses)]
        total = left_fold(boosted)
        if total <= 0.0:
            self.weights = [1.0 / len(self.values)] * len(self.values)
        else:
            boosted = [b / total for b in boosted]
            n = len(boosted)
            if n == 1 or self.alpha == 0.0:
                self.weights = boosted
            else:
                share = self.alpha / (n - 1)
                mass = left_fold(boosted)
                self.weights = [
                    (1.0 - self.alpha) * b + share * (mass - b) for b in boosted
                ]
                normalizer = left_fold(self.weights)
                self.weights = [w / normalizer for w in self.weights]

        self.iterations += 1
        self.cumulative_loss += own_loss
        return own_loss

    def loss_of_mixture(self, losses: Sequence[float]) -> float:
        if len(losses) != len(self.values):
            raise ValueError(f"expected {len(self.values)} losses, got {len(losses)}")
        mixture = left_fold(
            w * math.exp(-loss) for w, loss in zip(self.weights, losses)
        )
        if mixture <= 0.0:
            return max(losses)
        return -math.log(mixture)


class ReferenceLearnAlpha:
    """Learn-α over :class:`ReferenceFixedShare` rows, refolding everything."""

    def __init__(self, expert_values: Sequence[float], alphas: Sequence[float]) -> None:
        self.expert_values = tuple(float(v) for v in expert_values)
        self.sub_learners = [
            ReferenceFixedShare(self.expert_values, alpha) for alpha in alphas
        ]
        self.alpha_weights = [1.0 / len(alphas)] * len(alphas)
        self.iterations = 0

    def predict(self) -> float:
        return left_fold(
            alpha_weight * learner.predict()
            for alpha_weight, learner in zip(self.alpha_weights, self.sub_learners)
        )

    def update(self, losses: Sequence[float]) -> float:
        if len(losses) != len(self.expert_values):
            raise ValueError(
                f"expected {len(self.expert_values)} losses, got {len(losses)}"
            )
        alpha_losses = [
            learner.loss_of_mixture(losses) for learner in self.sub_learners
        ]
        boosted = [
            w * math.exp(-loss) for w, loss in zip(self.alpha_weights, alpha_losses)
        ]
        total = left_fold(boosted)
        if total <= 0.0:
            self.alpha_weights = [1.0 / len(boosted)] * len(boosted)
        else:
            self.alpha_weights = [b / total for b in boosted]

        for learner in self.sub_learners:
            learner.update(losses)
        self.iterations += 1
        return self.predict()


def reference_makeactive_loss(
    gamma: float, delay_bound: float, arrival_offsets: Sequence[float]
) -> float:
    """One expert's ``γ · Delay(T_i) + 1/b``, filtering the offsets twice."""
    buffered = [o for o in arrival_offsets if 0.0 <= o <= delay_bound]
    if not buffered:
        return gamma * delay_bound + 1.0
    total_delay = left_fold(
        delay_bound - offset for offset in buffered if 0.0 <= offset <= delay_bound
    )
    return gamma * total_delay + 1.0 / len(buffered)


class ReferenceLearningMakeActive:
    """MakeActive's learning hooks over :class:`ReferenceLearnAlpha`."""

    def __init__(self, expert_values: Sequence[float], alphas: Sequence[float],
                 gamma: float) -> None:
        self.learner = ReferenceLearnAlpha(expert_values, alphas)
        self.gamma = gamma
        self.history: list[LearningRecord] = []
        self.pending: float | None = None

    @property
    def current_delay(self) -> float:
        return self.learner.predict()

    def activation_delay(self, now: float) -> float:
        self.pending = self.learner.predict()
        return self.pending

    def on_release(self, release_time: float, arrival_times: Sequence[float]) -> None:
        if not arrival_times:
            return
        pending = self.pending
        self.pending = None
        first = arrival_times[0]
        delay_used = pending if pending is not None else release_time - first
        offsets = [t - first for t in arrival_times]
        losses = [
            reference_makeactive_loss(self.gamma, value, offsets)
            for value in self.learner.expert_values
        ]
        self.learner.update(losses)
        delays = [release_time - t for t in arrival_times]
        self.history.append(
            LearningRecord(
                iteration=len(self.history) + 1,
                time=release_time,
                delay_used=delay_used,
                buffered_sessions=len(arrival_times),
                mean_session_delay=left_fold(delays) / len(delays),
            )
        )
