"""WaitEvaluator: MakeIdle's one-pass t_wait search against its reference loop.

The numpy pass must take the same decisions as the candidate-by-candidate
loop that runs without numpy — not close ones: the same ``(wait, gain)``
bit for bit, as Python floats, because the golden suites pin MakeIdle's
choices and every record downstream of them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MakeIdlePolicy
from repro.energy import model as model_module
from repro.energy.model import TailEnergyModel, WaitEvaluator
from repro.rrc import CARRIER_PROFILES
from repro.traces import PacketTrace

pytest.importorskip("numpy")

CARRIERS = sorted(CARRIER_PROFILES)
EVALUATORS = {
    key: WaitEvaluator(TailEnergyModel(CARRIER_PROFILES[key]), 24)
    for key in CARRIERS
}


def _boundary_gaps(key: str) -> tuple[float, ...]:
    """Gaps exactly on every branch point of the cost matrix."""
    profile = CARRIER_PROFILES[key]
    return (
        0.0,
        -0.0,  # a window accepts it (-0.0 < 0 is false)
        profile.t1,
        profile.t1 + profile.t2,
        TailEnergyModel(profile).t_threshold,
        *EVALUATORS[key].candidates,
    )


@st.composite
def windows(draw):
    key = draw(st.sampled_from(CARRIERS))
    gap = st.one_of(
        st.sampled_from(_boundary_gaps(key)),
        st.floats(min_value=0.0, max_value=120.0),
    )
    gaps = draw(st.lists(gap, min_size=2, max_size=200))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(
            st.floats(min_value=1e-6, max_value=10.0),
            min_size=len(gaps), max_size=len(gaps),
        ))
    return key, gaps, weights


def _hexes(pair):
    assert [type(v) for v in pair] == [float, float]
    return [v.hex() for v in pair]


@settings(max_examples=300, deadline=None)
@given(windows())
def test_one_pass_matches_the_reference_loop_bit_for_bit(window):
    key, gaps, weights = window
    evaluator = EVALUATORS[key]
    assert _hexes(evaluator.best_wait(gaps, weights)) == _hexes(
        evaluator.best_wait_loop(gaps, weights)
    )


@pytest.mark.parametrize("numpy_path", [True, False], ids=["numpy", "loop"])
class TestTiesAndEmptyWindows:
    @pytest.fixture(autouse=True)
    def _path(self, numpy_path, monkeypatch):
        if not numpy_path:
            monkeypatch.setattr(model_module, "_np", None)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_window_ties_to_the_first_candidate(self, att_profile,
                                                         zero):
        policy = MakeIdlePolicy(window_size=20, min_samples=3)
        policy.prepare(PacketTrace([]), att_profile)
        for _ in range(20):
            policy.window.observe_gap(zero)
        # Every candidate costs 0.0, as does the status quo: all tie.
        assert _hexes(policy.best_wait()) == [(0.0).hex(), (0.0).hex()]
        assert policy.dormancy_wait(5.0) is None
        evaluator = WaitEvaluator(TailEnergyModel(att_profile), 24)
        weighted = evaluator.best_wait([zero] * 7, [0.5] * 7)
        assert _hexes(weighted) == [(0.0).hex(), (0.0).hex()]

    def test_empty_window_or_zero_weight_gains_nothing(self, att_profile):
        evaluator = WaitEvaluator(TailEnergyModel(att_profile), 24)
        assert evaluator.best_wait(()) == (0.0, 0.0)
        assert evaluator.best_wait((), ()) == (0.0, 0.0)
        assert evaluator.best_wait((30.0, 40.0), (0.0, 0.0)) == (0.0, 0.0)


def test_candidate_grid_spans_zero_to_t_threshold(any_profile):
    model = TailEnergyModel(any_profile)
    evaluator = WaitEvaluator(model, 24)
    assert len(evaluator.candidates) == 24
    assert evaluator.candidates[0] == 0.0
    assert evaluator.candidates[-1] == pytest.approx(model.t_threshold)
    with pytest.raises(ValueError):
        WaitEvaluator(model, 1)
