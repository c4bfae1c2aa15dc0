"""Integration tests: full pipeline from workload generation to paper-level claims.

These tests exercise the whole stack (trace generation → simulation →
metrics → experiment drivers) and check the *qualitative* claims of the
paper's evaluation — the relative ordering of schemes, the effect of
MakeActive on signalling, and the headline savings band — on small but
realistic synthetic workloads.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_schemes
from repro.api import PolicySpec, SerialRunner, inline, plan
from repro.energy import TailEnergyModel
from repro.metrics import confusion_for_result, delay_stats_for_result, savings_table
from repro.rrc import get_profile
from repro.traces import generate_mixed_trace, read_pcap, user_trace, write_pcap


@pytest.fixture(scope="module")
def verizon3g_user_results():
    """All schemes simulated on one Verizon 3G user (shared across tests)."""
    profile = get_profile("verizon_3g")
    trace = user_trace("verizon_3g", 2, hours_per_day=0.5, seed=0)
    return run_schemes(trace, profile, window_size=100), profile, trace


class TestSchemeOrdering:
    def test_makeidle_saves_majority_of_energy(self, verizon3g_user_results):
        results, _, _ = verizon3g_user_results
        baseline = results["status_quo"]
        saving = results["makeidle"].energy_saved_fraction(baseline)
        # The paper reports 51-75 % savings across carriers; on the synthetic
        # workload we accept anything in a generous band around that.
        assert 0.4 <= saving <= 0.95

    def test_makeidle_beats_the_fixed_45_second_tail(self, verizon3g_user_results):
        results, _, _ = verizon3g_user_results
        baseline = results["status_quo"]
        assert (
            results["makeidle"].energy_saved_fraction(baseline)
            > results["fixed_4.5s"].energy_saved_fraction(baseline)
        )

    def test_makeidle_within_striking_distance_of_oracle(self, verizon3g_user_results):
        results, _, _ = verizon3g_user_results
        baseline = results["status_quo"]
        oracle = results["oracle"].energy_saved_fraction(baseline)
        makeidle = results["makeidle"].energy_saved_fraction(baseline)
        assert makeidle >= 0.75 * oracle

    def test_combined_schemes_do_not_regress_makeidle(self, verizon3g_user_results):
        results, _, _ = verizon3g_user_results
        baseline = results["status_quo"]
        makeidle = results["makeidle"].energy_saved_fraction(baseline)
        for key in ("makeidle+makeactive_learn", "makeidle+makeactive_fixed"):
            assert results[key].energy_saved_fraction(baseline) >= makeidle - 0.05


class TestSignallingOverhead:
    def test_makeactive_reduces_switches_relative_to_makeidle(
        self, verizon3g_user_results
    ):
        results, _, _ = verizon3g_user_results
        baseline = results["status_quo"]
        makeidle = results["makeidle"].switches_normalized(baseline)
        fixed = results["makeidle+makeactive_fixed"].switches_normalized(baseline)
        learn = results["makeidle+makeactive_learn"].switches_normalized(baseline)
        assert fixed < makeidle
        assert learn <= makeidle + 1e-9

    def test_makeidle_switch_inflation_is_bounded(self, verizon3g_user_results):
        # The paper observes at most 4-5x the status-quo switches for
        # MakeIdle alone.
        results, _, _ = verizon3g_user_results
        baseline = results["status_quo"]
        assert results["makeidle"].switches_normalized(baseline) <= 6.0


class TestMakeActiveDelays:
    def test_learning_delays_are_a_few_seconds(self, verizon3g_user_results):
        results, _, _ = verizon3g_user_results
        stats = delay_stats_for_result(
            results["makeidle+makeactive_learn"], only_delayed=True
        )
        assert stats.count > 0
        # Table 3 reports mean session delays between about 4.6 and 5.1 s;
        # accept the broader "a few seconds" band.
        assert 0.5 <= stats.mean <= 8.0

    def test_learning_mean_delay_below_fixed(self, verizon3g_user_results):
        results, _, _ = verizon3g_user_results
        learn = delay_stats_for_result(
            results["makeidle+makeactive_learn"], only_delayed=True
        )
        fixed = delay_stats_for_result(
            results["makeidle+makeactive_fixed"], only_delayed=True
        )
        assert learn.mean < fixed.mean


class TestConfusionAgainstOracle:
    def test_makeidle_has_lower_error_than_baselines(self, verizon3g_user_results):
        results, profile, _ = verizon3g_user_results
        threshold = TailEnergyModel(profile).t_threshold
        makeidle = confusion_for_result(results["makeidle"], threshold)
        fixed = confusion_for_result(results["fixed_4.5s"], threshold)
        combined_error_makeidle = (
            makeidle.false_switch_rate + makeidle.missed_switch_rate
        )
        combined_error_fixed = fixed.false_switch_rate + fixed.missed_switch_rate
        assert combined_error_makeidle <= combined_error_fixed + 0.05


class TestSavingsReportsConsistency:
    def test_reports_match_raw_results(self, verizon3g_user_results):
        results, _, _ = verizon3g_user_results
        baseline = results["status_quo"]
        schemes = {k: v for k, v in results.items() if k != "status_quo"}
        table = savings_table(schemes, baseline)
        for key, report in table.items():
            assert report.energy_j == pytest.approx(schemes[key].total_energy_j)
            assert report.saved_percent == pytest.approx(
                100.0 * schemes[key].energy_saved_fraction(baseline)
            )


class TestPcapPipeline:
    def test_pcap_round_trip_preserves_simulation_results(self, tmp_path):
        # Export a generated workload to pcap, read it back, and check the
        # simulated energy is essentially unchanged — the full external-data
        # path a downstream user with real tcpdump captures would exercise.
        profile = get_profile("att_hspa")
        trace = generate_mixed_trace(["im", "email"], duration=900.0, seed=6)
        path = tmp_path / "workload.pcap"
        write_pcap(path, trace)
        restored = read_pcap(path, device_address="10.0.0.2")
        assert len(restored) == len(trace)

        def makeidle_saving(workload):
            p = (plan().traces(inline(workload)).carriers(profile.key)
                 .policies("status_quo", PolicySpec("makeidle", window_size=50)))
            baseline, makeidle = (r.result for r in SerialRunner().run(p))
            return makeidle.energy_saved_fraction(baseline)

        assert makeidle_saving(restored) == pytest.approx(
            makeidle_saving(trace), abs=0.08
        )


class TestLteVersus3g:
    def test_lte_profile_also_benefits(self):
        profile = get_profile("verizon_lte")
        trace = user_trace("verizon_lte", 1, hours_per_day=0.5, seed=0)
        results = run_schemes(trace, profile, window_size=100)
        baseline = results["status_quo"]
        assert results["makeidle"].energy_saved_fraction(baseline) > 0.4
        assert results["oracle"].energy_saved_fraction(baseline) >= (
            results["makeidle"].energy_saved_fraction(baseline) - 0.02
        )
