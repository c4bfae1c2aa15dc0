"""Tests for the Fixed-Share bank of experts."""

from __future__ import annotations

import math

import pytest

from repro.learning import FixedShareExperts


class TestFixedShareExperts:
    def test_requires_experts(self):
        with pytest.raises(ValueError):
            FixedShareExperts([])

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            FixedShareExperts([1.0], alpha=-0.1)

    def test_initial_prediction_is_mean(self):
        learner = FixedShareExperts([1.0, 2.0, 3.0])
        assert learner.predict() == pytest.approx(2.0)

    def test_weights_stay_normalised(self):
        learner = FixedShareExperts([1.0, 2.0, 3.0], alpha=0.2)
        for _ in range(25):
            learner.update([0.5, 0.1, 0.9])
            assert sum(learner.weights) == pytest.approx(1.0)

    def test_low_loss_expert_gains_weight(self):
        learner = FixedShareExperts([1.0, 5.0, 10.0], alpha=0.05)
        for _ in range(30):
            learner.update([1.0, 0.0, 1.0])
        assert learner.best_expert_index == 1
        assert learner.predict() == pytest.approx(5.0, abs=1.5)

    def test_update_length_mismatch(self):
        learner = FixedShareExperts([1.0, 2.0])
        with pytest.raises(ValueError):
            learner.update([0.1])

    def test_negative_loss_rejected(self):
        learner = FixedShareExperts([1.0, 2.0])
        with pytest.raises(ValueError):
            learner.update([-0.5, 0.1])

    def test_fixed_share_recovers_after_switch(self):
        # The best expert changes halfway through; with a non-zero switching
        # rate the learner must follow the new best expert.
        learner = FixedShareExperts([1.0, 10.0], alpha=0.1)
        for _ in range(20):
            learner.update([0.0, 1.0])
        assert learner.predict() < 3.5
        assert learner.best_expert_index == 0
        for _ in range(20):
            learner.update([1.0, 0.0])
        assert learner.predict() > 6.5
        assert learner.best_expert_index == 1

    def test_static_share_is_slower_to_recover_than_fixed_share(self):
        static = FixedShareExperts([1.0, 10.0], alpha=0.0)
        switching = FixedShareExperts([1.0, 10.0], alpha=0.2)
        for learner in (static, switching):
            for _ in range(40):
                learner.update([0.0, 2.0])
            for _ in range(3):
                learner.update([2.0, 0.0])
        assert switching.predict() > static.predict()

    def test_mix_loss_bounds(self):
        learner = FixedShareExperts([1.0, 2.0, 3.0])
        losses = [0.3, 0.7, 1.2]
        mix = learner.loss_of_mixture(losses)
        assert min(losses) <= mix <= max(losses)

    def test_cumulative_loss_and_iterations(self):
        learner = FixedShareExperts([1.0, 2.0])
        learner.update([0.5, 0.5])
        learner.update([0.2, 0.8])
        assert learner.iterations == 2
        assert learner.cumulative_loss > 0.0

    def test_reset(self):
        learner = FixedShareExperts([1.0, 2.0], alpha=0.1)
        learner.update([0.0, 5.0])
        learner.reset()
        assert learner.iterations == 0
        assert learner.weights == (0.5, 0.5)

    def test_huge_losses_do_not_break_normalisation(self):
        learner = FixedShareExperts([1.0, 2.0])
        learner.update([1e6, 1e6])
        assert sum(learner.weights) == pytest.approx(1.0)


class TestSwitchingKernel:
    """The Fixed-Share step: exponential weights, then the switching kernel.

    The kernel keeps ``1 - alpha`` of each expert's weight and spreads
    ``alpha`` evenly over the other ``n - 1`` experts.
    """

    @pytest.mark.parametrize("alpha", [1.5, 1.0 + 1e-9, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            FixedShareExperts([1.0, 2.0], alpha=alpha)

    def test_alpha_zero_is_exponential_weights(self):
        learner = FixedShareExperts([1.0, 2.0], alpha=0.0)
        learner.update([0.0, 1.0])
        boosted = 1.0 / (1.0 + math.exp(-1.0))
        assert learner.weights == pytest.approx((boosted, 1.0 - boosted))

    def test_one_update_matches_the_kernel(self):
        alpha, losses = 0.3, [0.2, 1.0, 0.5]
        learner = FixedShareExperts([1.0, 2.0, 3.0], alpha=alpha)
        learner.update(losses)
        factors = [math.exp(-loss) for loss in losses]
        boosted = [f / sum(factors) for f in factors]
        expected = [(1.0 - alpha) * b + alpha / 2 * (1.0 - b) for b in boosted]
        assert learner.weights == pytest.approx(expected, rel=1e-12)

    def test_full_switching_swaps_two_experts(self):
        # alpha = 1 moves all of each expert's weight to the other one.
        learner = FixedShareExperts([1.0, 2.0], alpha=1.0)
        learner.update([0.0, 1.0])
        boosted = 1.0 / (1.0 + math.exp(-1.0))
        assert learner.weights == pytest.approx((1.0 - boosted, boosted))

    def test_single_expert_keeps_all_weight(self):
        learner = FixedShareExperts([4.0], alpha=0.9)
        for loss in (0.0, 3.0, 0.5):
            learner.update([loss])
            assert learner.weights == (1.0,)
        assert learner.predict() == pytest.approx(4.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_equal_losses_keep_uniform_weights(self, alpha):
        learner = FixedShareExperts([1.0, 2.0, 3.0, 4.0], alpha=alpha)
        for _ in range(5):
            learner.update([0.7] * 4)
        assert learner.weights == pytest.approx((0.25,) * 4)
