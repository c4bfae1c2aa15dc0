"""The streaming learning contract (DESIGN.md §6).

Learning policies are first-class kernel citizens: per-UE learner state is
fresh per device and updated in-kernel at release time, so a learning cell
must (a) shard byte-identically at any K under the PR 3 merge contract,
(b) give each device exactly the result it would get running alone, and
(c) pair every :class:`LearningRecord` with the ``activation_delay`` call
that opened its buffer window — never a stale proposal.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.cells import CellRunSpec, DormancySpec, cell, execute_cell
from repro.api.spec import PolicySpec
from repro.basestation import AcceptAllDormancy, CellSimulator, DeviceSpec
from repro.core import StatusQuoPolicy
from repro.core.controller import build_scheme
from repro.core.makeactive import LearningMakeActive
from repro.learning.predictors import (
    DecayedHistogramPredictor,
    PredictiveMakeIdlePolicy,
    SlidingWindowPredictor,
)
from repro.traces.packet import PacketTrace
from repro.traces.streaming import stream_application_packets

#: Every learning scheme the tournament sweeps: per-UE learner state, no
#: trace-preparation requirement, streaming-safe.
LEARNING_SCHEMES = (
    "makeidle+makeactive_learn",
    "makeidle_hist",
    "makeidle_rate",
)


def _cell_spec(scheme: str, devices: int = 7, shards: int = 1) -> CellRunSpec:
    return CellRunSpec(
        cell=cell(devices, apps=("im", "email"), duration=400.0),
        carrier="att_hspa",
        policy=PolicySpec(scheme=scheme, window_size=30),
        dormancy=DormancySpec(scheme="accept_all"),
        shards=shards,
    )


class TestShardByteIdentity:
    """Learning schemes obey the PR 3 merge contract at any K."""

    @pytest.mark.parametrize("scheme", LEARNING_SCHEMES)
    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_matches_single_process(self, scheme, shards):
        single = execute_cell(_cell_spec(scheme))
        merged = execute_cell(_cell_spec(scheme), shards=shards)
        # Per-device records — including the learn_* columns — are
        # byte-identical: learner state never crosses a shard boundary.
        assert merged.devices == single.devices
        assert merged.signaling == single.signaling
        assert merged.duration_s == single.duration_s
        assert merged.switch_times == single.switch_times
        assert merged.peak_switches_per_minute == single.peak_switches_per_minute
        # Peak active devices: exact at K=1, an upper bound beyond.
        if shards == 1:
            assert merged.peak_active_devices == single.peak_active_devices
        else:
            assert merged.peak_active_devices >= single.peak_active_devices

    def test_learning_columns_survive_the_merge(self):
        single = execute_cell(_cell_spec("makeidle+makeactive_learn"))
        merged = execute_cell(_cell_spec("makeidle+makeactive_learn"), shards=3)
        summary = single.learning_summary()
        # Not every device buffers a release in 400 s, but most do — and
        # the merge must reproduce the summary exactly.
        assert 0 < summary["learning_devices"] <= len(single.devices)
        assert summary["learn_iterations"] > 0
        assert merged.learning_summary() == summary


def _learning_device(device_id: int, *, seed: int, duration: float = 400.0):
    return DeviceSpec(
        device_id=device_id,
        trace=stream_application_packets(
            "im", duration=duration, seed=seed, chunk_s=100.0
        ),
        policy=build_scheme("makeidle+makeactive_learn", window_size=30),
    )


class TestPerUeIsolation:
    def test_two_device_cell_matches_two_single_ue_runs(self, att_profile):
        """Each device learns alone: a 2-UE cell equals two 1-UE cells.

        The one influence co-resident devices legitimately have on a
        record is the *global* cell end (every timeline idles until the
        last device goes quiet), so the lone run is compared with that
        duration drift factored out of the idle accounting; every other
        field — learner state above all — must be bit-identical.
        """
        together = CellSimulator(att_profile, AcceptAllDormancy()).run(
            [_learning_device(0, seed=1000), _learning_device(1, seed=2000)]
        )
        alone = {}
        for device_id, seed in ((0, 1000), (1, 2000)):
            result = CellSimulator(att_profile, AcceptAllDormancy()).run(
                [_learning_device(device_id, seed=seed)]
            )
            (record,) = tuple(result.devices)
            alone[device_id] = (record, result.duration_s)
        assert att_profile.power_idle_mw == 0.0  # so idle_j carries no drift
        for record in together.devices:
            lone, lone_duration = alone[record.device_id]
            # Everything outside the energy breakdown is bit-identical —
            # including the learn_* columns.
            assert dataclasses.replace(record, breakdown=lone.breakdown) == lone
            drift = together.duration_s - lone_duration
            for field in dataclasses.fields(record.breakdown):
                joint_value = getattr(record.breakdown, field.name)
                lone_value = getattr(lone.breakdown, field.name)
                if field.name == "idle_time_s":
                    assert joint_value == pytest.approx(
                        lone_value + drift, rel=1e-9
                    )
                else:
                    assert joint_value == lone_value

    def test_shared_stateful_policy_instance_is_rejected(self, att_profile):
        shared = build_scheme("makeidle+makeactive_learn", window_size=30)
        devices = [
            DeviceSpec(
                device_id=i,
                trace=stream_application_packets(
                    "im", duration=100.0, seed=1000 + i, chunk_s=50.0
                ),
                policy=shared,
            )
            for i in range(2)
        ]
        simulator = CellSimulator(att_profile, AcceptAllDormancy())
        with pytest.raises(ValueError, match="share one .* instance"):
            simulator.run(devices)

    def test_stateless_policies_may_be_shared(self, att_profile):
        # StatusQuoPolicy overrides neither observe_packet nor on_release:
        # sharing one instance across devices is harmless and allowed.
        shared = StatusQuoPolicy()
        devices = [
            DeviceSpec(
                device_id=i,
                trace=stream_application_packets(
                    "im", duration=100.0, seed=1000 + i, chunk_s=50.0
                ),
                policy=shared,
            )
            for i in range(2)
        ]
        result = CellSimulator(att_profile, AcceptAllDormancy()).run(devices)
        assert len(result.devices) == 2

    def test_build_scheme_returns_fresh_learners(self):
        a = build_scheme("makeidle+makeactive_learn")
        b = build_scheme("makeidle+makeactive_learn")
        assert a is not b
        assert a.learning_records() == ()


class TestBindProfile:
    """Profile-only preparation: a streamed device is prepared with an
    empty trace, and its packets are never materialised."""

    def test_predictive_makeidle_runs_after_bind_profile(self, att_profile):
        policy = PredictiveMakeIdlePolicy(SlidingWindowPredictor(window_size=10))
        with pytest.raises(RuntimeError):
            policy.dormancy_wait(0.0)
        policy.prepare(PacketTrace(()), att_profile)
        policy.reset()
        wait = policy.dormancy_wait(0.0)  # no RuntimeError once prepared
        assert wait is None or wait >= 0.0

    def test_predictive_schemes_do_not_require_a_trace(self):
        for scheme in ("makeidle_hist", "makeidle_rate"):
            assert build_scheme(scheme).requires_trace is False


class TestRecordDecisionPairing:
    """LearningRecord.delay_used pairs with *its* activation_delay call."""

    def test_release_consumes_the_pending_proposal(self):
        policy = LearningMakeActive()
        proposed = policy.activation_delay(10.0)
        policy.on_release(20.0, [10.0, 12.0])
        (record,) = policy.learning_records()
        assert record.delay_used == proposed
        assert record.buffered_sessions == 2

    def test_unconsulted_release_does_not_reuse_a_stale_proposal(self):
        policy = LearningMakeActive()
        proposed = policy.activation_delay(10.0)
        policy.on_release(20.0, [10.0])  # consumes the proposal
        # A second release the learner was never asked about (e.g. the
        # radio was already active) must record the realised delay, not
        # the stale — already consumed — proposal.
        policy.on_release(100.0, [97.5])
        first, second = policy.learning_records()
        assert first.delay_used == proposed
        assert second.delay_used == pytest.approx(2.5)
        assert second.delay_used != proposed

    def test_reset_clears_pending_and_history(self):
        policy = LearningMakeActive()
        policy.activation_delay(10.0)
        policy.reset()
        assert policy.learning_records() == ()
        policy.on_release(20.0, [15.0])  # pending was cleared by reset
        (record,) = policy.learning_records()
        assert record.delay_used == pytest.approx(5.0)

    def test_empty_release_records_nothing(self):
        policy = LearningMakeActive()
        policy.on_release(20.0, [])
        assert policy.learning_records() == ()

    def test_records_feed_the_device_columns(self, att_profile):
        result = CellSimulator(att_profile, AcceptAllDormancy()).run(
            [_learning_device(0, seed=1000)]
        )
        (record,) = tuple(result.devices)
        assert record.learn_iterations > 0
        assert record.learn_delay_first_s > 0.0
        assert record.learn_delay_final_s > 0.0


class TestHistogramPredictorInCell:
    def test_overflow_gap_keeps_cell_deterministic(self):
        # Two identical runs of the histogram scheme are byte-identical —
        # the overflow bin is part of per-UE state like any other.
        a = execute_cell(_cell_spec("makeidle_hist", devices=3))
        b = execute_cell(_cell_spec("makeidle_hist", devices=3))
        assert a.devices == b.devices

    def test_overflow_bin_is_distinct_state(self):
        predictor = DecayedHistogramPredictor(min_gap=0.1, max_gap=10.0)
        predictor.observe(predictor.bin_edges[-1])  # last in-range bin
        predictor.observe(1e4)  # overflow
        gaps, _ = predictor.weighted_gaps()
        assert len(gaps) == 2
