"""Ablated carrier variants through the profile-taking drivers.

An ablated variant keeps a registered carrier key with other values (here
a 10 % fast-dormancy cost).  The drivers run its plan spec by spec on
``TraceSimulator`` and store nothing in the shared cache, so the variant
can neither read nor overwrite the registered carrier's cached results.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import (
    application_energy_breakdowns,
    application_savings,
    run_schemes,
    user_study,
    window_size_sweep,
)
from repro.analysis.experiments import CONFUSION_SCHEMES, UserStudyResult
from repro.api import default_runner
from repro.core.controller import SCHEME_ORDER, build_scheme
from repro.energy import TailEnergyModel
from repro.metrics import (
    confusion_for_result,
    delay_stats_for_result,
    savings_table,
)
from repro.rrc import get_profile
from repro.sim import TraceSimulator
from repro.traces import generate_application_trace, user_trace

REGISTERED = get_profile("att_hspa")
ABLATED = REGISTERED.with_dormancy_fraction(0.1)
WINDOW = 30


def _by_hand(trace, profile=ABLATED):
    """Every scheme of the comparison, simulated without the plan API."""
    simulator = TraceSimulator(profile)
    return {
        scheme: simulator.run(trace, build_scheme(scheme, WINDOW))
        for scheme in ("status_quo",) + SCHEME_ORDER
    }


@pytest.fixture
def shared_cache_untouched():
    """Assert the shared runner's cache neither gains nor serves an entry."""
    cache = default_runner().cache
    before = (list(cache), repr(cache.stats))
    yield
    assert (list(cache), repr(cache.stats)) == before


@pytest.fixture(scope="module")
def im_trace():
    return generate_application_trace("im", duration=600.0, seed=3)


class TestAblatedVariantsRunUncached:
    def test_run_schemes(self, im_trace, shared_cache_untouched):
        assert run_schemes(im_trace, ABLATED, window_size=WINDOW) == _by_hand(
            im_trace
        )

    def test_application_energy_breakdowns(self, shared_cache_untouched):
        simulator = TraceSimulator(ABLATED)
        expected = {
            app: simulator.run(
                generate_application_trace(app, duration=600.0, seed=0),
                build_scheme("status_quo"),
            ).breakdown
            for app in ("im", "email")
        }
        assert application_energy_breakdowns(
            ABLATED, apps=("im", "email"), duration=600.0
        ) == expected

    def test_application_savings(self, shared_cache_untouched):
        results = _by_hand(
            generate_application_trace("im", duration=600.0, seed=0)
        )
        baseline = results.pop("status_quo")
        assert application_savings(
            ABLATED, apps=("im",), duration=600.0, window_size=WINDOW
        ) == {"im": savings_table(results, baseline)}

    def test_user_study(self, shared_cache_untouched):
        trace = user_trace("verizon_3g", 1, hours_per_day=0.2, seed=0)
        results = _by_hand(trace)
        baseline = results.pop("status_quo")
        threshold = TailEnergyModel(ABLATED).t_threshold
        expected = UserStudyResult(
            user_id=1,
            savings=savings_table(results, baseline),
            confusion={s: confusion_for_result(results[s], threshold)
                       for s in CONFUSION_SCHEMES},
            delays={s: delay_stats_for_result(results[s], only_delayed=True)
                    for s in ("makeidle+makeactive_learn",
                              "makeidle+makeactive_fixed")},
            status_quo_energy_j=baseline.total_energy_j,
            status_quo_switches=baseline.switch_count,
        )
        assert user_study("verizon_3g", ABLATED, hours_per_day=0.2,
                          window_size=WINDOW, users=(1,)) == {1: expected}

    def test_window_size_sweep(self, im_trace, shared_cache_untouched):
        simulator = TraceSimulator(ABLATED)
        threshold = TailEnergyModel(ABLATED).t_threshold
        expected = {
            n: confusion_for_result(
                simulator.run(im_trace, build_scheme("makeidle", n)), threshold
            )
            for n in (10, 50)
        }
        assert window_size_sweep(ABLATED, im_trace,
                                 window_sizes=(10, 50)) == expected


class TestAblatedVariantsDifferFromRegistered:
    def test_run_schemes(self, im_trace):
        ablated = run_schemes(im_trace, ABLATED, window_size=WINDOW)
        registered = run_schemes(im_trace, REGISTERED, window_size=WINDOW)
        assert registered == _by_hand(im_trace, REGISTERED)
        assert (ablated["makeidle"].total_energy_j
                != registered["makeidle"].total_energy_j)

    def test_application_savings(self):
        kwargs = dict(apps=("im",), duration=600.0, window_size=WINDOW)
        assert (application_savings(ABLATED, **kwargs)
                != application_savings(REGISTERED, **kwargs))

    def test_user_study(self):
        kwargs = dict(hours_per_day=0.2, window_size=WINDOW, users=(1,))
        assert (user_study("verizon_3g", ABLATED, **kwargs)
                != user_study("verizon_3g", REGISTERED, **kwargs))

    def test_window_size_sweep(self, im_trace):
        # The 10 % cost lowers MakeIdle's t_threshold, so the confusion
        # counts are judged against another oracle.
        assert (window_size_sweep(ABLATED, im_trace, window_sizes=(10, 50))
                != window_size_sweep(REGISTERED, im_trace,
                                     window_sizes=(10, 50)))

    def test_energy_breakdowns(self):
        # The status quo never requests fast dormancy, so its breakdown
        # does not depend on the dormancy cost; a timer ablation moves it.
        shorter = REGISTERED.with_timers(2.0, 2.0)
        kwargs = dict(apps=("im",), duration=600.0)
        assert (application_energy_breakdowns(ABLATED, **kwargs)
                == application_energy_breakdowns(REGISTERED, **kwargs))
        assert (application_energy_breakdowns(shorter, **kwargs)
                != application_energy_breakdowns(REGISTERED, **kwargs))


UNREGISTERED = dataclasses.replace(REGISTERED, key="sprint_6g")


@pytest.mark.parametrize("call", [
    lambda trace: run_schemes(trace, UNREGISTERED),
    lambda trace: application_energy_breakdowns(UNREGISTERED, apps=("im",)),
    lambda trace: application_savings(UNREGISTERED, apps=("im",)),
    lambda trace: user_study("verizon_3g", UNREGISTERED, users=(1,)),
    lambda trace: window_size_sweep(UNREGISTERED, trace),
], ids=["run_schemes", "application_energy_breakdowns",
        "application_savings", "user_study", "window_size_sweep"])
def test_unregistered_key_raises(call, im_trace):
    with pytest.raises(KeyError, match="sprint_6g"):
        call(im_trace)
