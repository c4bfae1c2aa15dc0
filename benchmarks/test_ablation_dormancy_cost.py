"""Ablation (Section 6.1): sensitivity to the fast-dormancy cost fraction.

Because fast dormancy was not deployed on US carriers, the paper models its
cost as 50 % of the measured radio-off cost and verifies that using 10 %,
20 % or 40 % instead "did not change the results appreciably".  This
benchmark repeats that sweep: the MakeIdle savings across the fractions must
stay within a narrow band.
"""

from __future__ import annotations

from conftest import print_figure, run_once

from repro.analysis import format_table
from repro.core import MakeIdlePolicy
from repro.energy.sensitivity import (
    DEFAULT_DORMANCY_FRACTIONS,
    dormancy_cost_sensitivity,
)
from repro.rrc import get_profile
from repro.traces import user_trace


def _sweep():
    trace = user_trace("verizon_3g", 1, hours_per_day=0.4, seed=0)
    sweep = dormancy_cost_sensitivity(trace, get_profile("att_hspa"),
                                      MakeIdlePolicy)
    return {point.parameter: 100.0 * point.energy_saved_fraction
            for point in sweep.points}


def test_ablation_dormancy_cost(benchmark):
    savings = run_once(benchmark, _sweep)

    rows = [[f"{fraction:.0%}", savings[fraction]] for fraction in DEFAULT_DORMANCY_FRACTIONS]
    print_figure(
        "Ablation — MakeIdle savings vs fast-dormancy cost fraction (AT&T profile)",
        format_table(["dormancy cost fraction", "energy saved %"], rows),
    )

    values = list(savings.values())
    # Cheaper dormancy can only help, and the overall spread must stay small
    # (the paper: "the results did not change appreciably").
    assert savings[0.1] >= savings[0.5] - 0.5
    assert max(values) - min(values) <= 12.0
    assert min(values) > 30.0
