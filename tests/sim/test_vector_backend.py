"""Kernel parity and selection: the vector kernel is byte-identical to the scalar one.

The vector kernel's contract (DESIGN.md §2.3) is *equality, not
approximation*: whatever the workload, policy, carrier or shard plan, a
run with the kernel auto-selected must produce the same floats in the
same order as the same run with the scalar kernel forced — per-device
breakdowns, signaling totals, switch times and load samples alike.  These
tests drive that contract across:

* the carrier × policy equivalence matrix (every profile shape, every
  standard scheme, eligible and hook-bearing alike);
* the selection rule — one kernel per shard, vector only when numpy
  imports, the station decides per device (accept-all, reject-all or
  rate-limited) or from the switch window (load-aware) and every device
  policy is eligible, with ``CellResult.vector_devices`` reporting which
  ran;
* sharded merges, where each shard picks its kernel on its own (the
  mixed-policy scenario's cohorts, a metro's per-device and load-aware
  cells);
* randomized traces under hypothesis, where the boundary/fold split is
  exercised at adversarial burst spacings.

The scalar kernel is forced with the shared ``scalar_kernel`` fixture,
which replaces :func:`repro.sim.vector_engine.use_vector_kernel`.
"""

from __future__ import annotations

import contextlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PolicySpec, execute_cell
from repro.api.cells import CellRunSpec, DormancySpec, cell
from repro.api.metro import MetroRunSpec, execute_metro, metro
from repro.basestation import (
    AcceptAllDormancy,
    CellSimulator,
    LoadAwareDormancy,
    RateLimitedDormancy,
    RejectAllDormancy,
)
from repro.basestation.cell import DeviceSpec
from repro.core import (
    FixedDelayMakeActive,
    FixedTimerPolicy,
    MakeIdlePolicy,
    PercentileIatPolicy,
    StatusQuoPolicy,
)
from repro.rrc.profiles import CARRIER_PROFILES, get_profile
from repro.rrc.states import RadioState
from repro.rrc.tables import transition_table
from repro.sim import vector_engine
from repro.traces import Direction, Packet, PacketTrace

pytestmark = pytest.mark.skipif(
    not vector_engine.numpy_available(),
    reason="numpy unavailable — every shard runs on the scalar kernel",
)

#: Schemes whose policies keep the base ``observe_packet`` /
#: ``activation_delay`` hooks and a constant dormancy wait, or are plain
#: MakeIdle (its wait sequence is computed up front): every device
#: vectorizes.
ELIGIBLE_SCHEMES = ("status_quo", "fixed_4.5s", "makeidle")
#: Hook-bearing schemes: every shard runs on the scalar kernel.
HOOK_SCHEMES = ("makeidle+makeactive_learn",)

_DEVICES = 10
_DURATION_S = 300.0


def _run_pair(scalar_kernel, carrier: str, scheme: str, shards: int = 1):
    """One cell spec, forced-scalar and auto-selected; returns (scalar, auto)."""
    spec = CellRunSpec(
        cell=cell(devices=_DEVICES, apps=("im", "email", "news"),
                  duration=_DURATION_S),
        carrier=carrier,
        policy=PolicySpec(scheme=scheme).resolved(100),
        dormancy=DormancySpec(),
        shards=shards,
    )
    with scalar_kernel():
        scalar = execute_cell(spec)
    return scalar, execute_cell(spec)


class TestEquivalenceMatrix:
    """Carrier × policy grid: full-result equality plus who vectorized."""

    @pytest.mark.parametrize("carrier", sorted(CARRIER_PROFILES))
    @pytest.mark.parametrize("scheme", ELIGIBLE_SCHEMES)
    def test_eligible_schemes_vectorize_and_match(self, carrier, scheme,
                                                  scalar_kernel):
        scalar, vector = _run_pair(scalar_kernel, carrier, scheme)
        assert vector == scalar
        assert scalar.vector_devices == 0
        assert vector.vector_devices == _DEVICES

    @pytest.mark.parametrize("carrier", sorted(CARRIER_PROFILES))
    @pytest.mark.parametrize("scheme", HOOK_SCHEMES)
    def test_hook_bearing_schemes_run_scalar_and_match(self, carrier, scheme,
                                                       scalar_kernel):
        scalar, auto = _run_pair(scalar_kernel, carrier, scheme)
        assert auto == scalar
        assert auto.vector_devices == 0

    @pytest.mark.parametrize("carrier", sorted(CARRIER_PROFILES))
    def test_trace_trained_timeout_vectorizes_and_matches(self, carrier,
                                                          scalar_kernel):
        """``p95_iat`` trains its constant on the full trace in
        ``prepare()`` — eligible, but only on materialised traces (the
        policy itself refuses lazy sources on either kernel)."""
        from repro.traces.streaming import stream_application_packets

        policy_spec = PolicySpec(scheme="p95_iat").resolved(100)
        results = {}
        for kernel, context in (("scalar", scalar_kernel),
                                ("vector", contextlib.nullcontext)):
            specs = [
                DeviceSpec(
                    device_id=index,
                    trace=PacketTrace(stream_application_packets(
                        ("im", "email")[index % 2],
                        duration=_DURATION_S, seed=index, chunk_s=60.0,
                    )),
                    policy=policy_spec.build(),
                )
                for index in range(_DEVICES)
            ]
            simulator = CellSimulator(get_profile(carrier), AcceptAllDormancy())
            with context():
                results[kernel] = simulator.run(specs)
        assert results["vector"] == results["scalar"]
        assert results["vector"].vector_devices == _DEVICES


def _packets(seed: int) -> list[Packet]:
    """A short deterministic burst pattern, distinct per device."""
    times = [0.5 + seed, 1.0 + seed, 7.0 + seed, 30.0 + 2 * seed, 31.5 + seed]
    return [
        Packet(timestamp=t, size=200 + 50 * k,
               direction=Direction.UPLINK if k % 2 else Direction.DOWNLINK)
        for k, t in enumerate(sorted(times))
    ]


def _eligible_policies():
    return [StatusQuoPolicy(), FixedTimerPolicy(timeout=4.5),
            PercentileIatPolicy(), FixedTimerPolicy(timeout=0.0)]


def _one_makeidle_policies():
    return [FixedTimerPolicy(timeout=4.5), FixedTimerPolicy(timeout=4.5),
            MakeIdlePolicy(), FixedTimerPolicy(timeout=4.5)]


class _OverridingMakeIdle(MakeIdlePolicy):
    """A MakeIdle subclass whose ``dormancy_wait`` is its own."""

    def dormancy_wait(self, now):
        wait = super().dormancy_wait(now)
        return None if wait is None else wait + 0.25


def _one_overriding_makeidle_policies():
    return [FixedTimerPolicy(timeout=4.5), _OverridingMakeIdle(min_samples=2),
            FixedTimerPolicy(timeout=4.5)]


def _one_makeactive_policies():
    return [StatusQuoPolicy(), FixedDelayMakeActive(delay_bound=2.0),
            FixedTimerPolicy(timeout=4.5)]


class _DenyingAcceptAll(AcceptAllDormancy):
    """Overrides ``AcceptAllDormancy.decide``: it arbitrates."""

    def decide(self, ue_id, time, load):
        return False


class _GreedyLoadAware(LoadAwareDormancy):
    """Overrides ``LoadAwareDormancy.decide``: it also reads the active count."""

    def decide(self, ue_id, time, load):
        return load.active_devices < 2 and super().decide(ue_id, time, load)


#: The selection rule, case by case: (station, device policies, numpy
#: importable, expected kernel).
_SELECTION_CASES = {
    "all_eligible_accept_all": (
        AcceptAllDormancy, _eligible_policies, True, "vector"),
    "one_makeidle_device": (
        AcceptAllDormancy, _one_makeidle_policies, True, "vector"),
    "one_makeidle_subclass_overriding_dormancy_wait": (
        AcceptAllDormancy, _one_overriding_makeidle_policies, True, "scalar"),
    "one_makeactive_device": (
        AcceptAllDormancy, _one_makeactive_policies, True, "scalar"),
    "rate_limited_station": (
        lambda: RateLimitedDormancy(min_interval_s=10.0), _eligible_policies,
        True, "vector"),
    "load_aware_station": (
        lambda: LoadAwareDormancy(max_switches_per_minute=2),
        _eligible_policies, True, "vector"),
    "load_aware_subclass_overriding_decide": (
        lambda: _GreedyLoadAware(max_switches_per_minute=2),
        _eligible_policies, True, "scalar"),
    "reject_all_station": (
        RejectAllDormancy, _eligible_policies, True, "vector"),
    "accept_all_subclass_overriding_decide": (
        _DenyingAcceptAll, _eligible_policies, True, "scalar"),
    "numpy_missing": (
        AcceptAllDormancy, _eligible_policies, False, "scalar"),
}


class TestKernelSelection:
    @pytest.mark.parametrize("case", sorted(_SELECTION_CASES))
    def test_selection_rule(self, case, monkeypatch, scalar_kernel):
        station, policies, numpy_present, expected = _SELECTION_CASES[case]
        if not numpy_present:
            monkeypatch.setattr(vector_engine, "_np", None)
        picked = vector_engine.use_vector_kernel(station(), policies())
        assert ("vector" if picked else "scalar") == expected

        # The shard really runs on the picked kernel, and matches the
        # forced-scalar run record for record.
        def run():
            devices = [
                DeviceSpec(
                    device_id=index,
                    trace=PacketTrace(_packets(index)),
                    policy=policy,
                )
                for index, policy in enumerate(policies())
            ]
            return CellSimulator(get_profile("att_hspa"), station()).run(
                devices)

        with scalar_kernel():
            scalar = run()
        auto = run()
        assert auto == scalar
        assert auto.vector_devices == (
            len(policies()) if expected == "vector" else 0
        )

    def test_station_overriding_decide_is_consulted(self):
        """Subclassing ``AcceptAllDormancy`` is not enough: a station whose
        ``decide`` is not the accept-all one gets every request."""
        devices = [
            DeviceSpec(device_id=index, trace=PacketTrace(_packets(index)),
                       policy=FixedTimerPolicy(timeout=0.5))
            for index in range(3)
        ]
        result = CellSimulator(get_profile("att_hspa"),
                               _DenyingAcceptAll()).run(devices)
        assert result.dormancy_requests > 0
        assert result.dormancy_denied == result.dormancy_requests

    def test_judged_before_prepare(self):
        """Eligibility is a property of the policy type: an unprepared
        trace-trained policy or MakeIdle is already eligible."""
        assert vector_engine.vector_eligible(PercentileIatPolicy())
        assert vector_engine.vector_eligible(MakeIdlePolicy())
        assert not vector_engine.vector_eligible(_OverridingMakeIdle())

    def test_consulted_once_per_shard(self, monkeypatch):
        """``run_shard`` looks the rule up at call time, once per shard,
        with the station and exactly that shard's device policies."""
        calls = []
        select = vector_engine.use_vector_kernel

        def spy(station, policies):
            policies = list(policies)
            calls.append((station.name, [p.name for p in policies]))
            return select(station, policies)

        monkeypatch.setattr(vector_engine, "use_vector_kernel", spy)
        spec = CellRunSpec(
            cell=cell(devices=_DEVICES, apps=("im", "email", "news"),
                      duration=_DURATION_S),
            carrier="att_hspa",
            policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
            dormancy=DormancySpec(),
            shards=3,
        )
        result = execute_cell(spec)
        assert len(calls) == 3
        assert all(station == "accept_all" for station, _ in calls)
        assert sum(len(names) for _, names in calls) == _DEVICES
        assert {name for _, names in calls for name in names} == {"fixed_4.5s"}
        assert result.vector_devices == _DEVICES


class TestShardedMerges:
    @pytest.mark.parametrize("scheme", ("fixed_4.5s", "makeidle"))
    def test_sharded_merge_matches_sharded_scalar(self, scheme, scalar_kernel):
        scalar, auto = _run_pair(scalar_kernel, "att_hspa", scheme, shards=3)
        assert auto == scalar


class TestMixedPolicyScenario:
    """The ``mixed_policy`` scenario lays out 9 devices as status-quo
    legacy handsets (0-3), hook-bearing MakeIdle+MakeActive adopters
    (4-5) and a cohort on the policy axis (6-8): which kernel a shard
    runs depends on the cohorts it holds."""

    @staticmethod
    def _spec(shards: int) -> CellRunSpec:
        return CellRunSpec(
            cell=cell(devices=9, scenario="mixed_policy",
                      duration=_DURATION_S),
            carrier="att_hspa",
            policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
            dormancy=DormancySpec(),
            shards=shards,
        )

    def test_unsharded_cell_runs_on_the_scalar_kernel(self, scalar_kernel):
        spec = self._spec(1)
        with scalar_kernel():
            scalar = execute_cell(spec)
        auto = execute_cell(spec)
        assert auto == scalar
        assert auto.vector_devices == 0

    def test_shards_pick_their_kernel_independently(self, scalar_kernel):
        """Shards [0, 3) and [6, 9) hold eligible cohorts only and
        vectorize; shard [3, 6) holds the adopters and runs scalar."""
        spec = self._spec(3)
        with scalar_kernel():
            scalar = execute_cell(spec)
        auto = execute_cell(spec)
        assert auto == scalar
        assert auto.vector_devices == 6
        # Per-device records do not depend on the shard plan either.
        assert auto.devices == execute_cell(self._spec(1)).devices


class TestMetroCells:
    def test_cells_pick_their_kernel_by_station(self, scalar_kernel):
        """``metro_4cell`` has two accept-all cells, a rate-limited one
        (east) and a load-aware one (south): every visit vectorizes, and
        the metro matches the forced-scalar run, denials included."""
        spec = MetroRunSpec(
            metro=metro("metro_4cell", devices=10, duration=900.0),
            carrier="att_hspa",
            policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
        )
        with scalar_kernel():
            scalar = execute_metro(spec)
        auto = execute_metro(spec)
        assert auto == scalar
        for entry in auto.cells:
            assert entry.result.vector_devices == entry.visits, entry.name
        east = next(entry for entry in auto.cells if entry.name == "east")
        assert east.visits > 0
        assert east.result.dormancy_denied > 0

    def test_load_aware_cell_grants_and_denies(self, scalar_kernel):
        """At this size south's ``load_aware(300)`` both grants and
        denies, so its answers depend on the replayed switch window of
        every visit; the metro, switch timelines and load samples
        included, matches the forced-scalar run."""
        spec = MetroRunSpec(
            metro=metro("metro_4cell", devices=400, duration=900.0,
                        seed=2),
            carrier="att_hspa",
            policy=PolicySpec(scheme="makeidle").resolved(100),
        )
        with scalar_kernel():
            scalar = execute_metro(spec)
        auto = execute_metro(spec)
        assert auto == scalar
        south = next(entry for entry in auto.cells if entry.name == "south")
        assert south.result.vector_devices == south.visits > 0
        assert (south.result.dormancy_requests,
                south.result.dormancy_denied) == (3026, 1113)


class TestEngineKeyword:
    """``cell(engine=...)`` is validated, then ignored."""

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be 'scalar' or "
                                             "'vector', got 'cuda'"):
            cell(devices=4, apps=("im",), duration=100.0, engine="cuda")

    def test_rejects_non_string_engine(self):
        with pytest.raises(TypeError, match="engine must be str, got int"):
            cell(devices=4, apps=("im",), duration=100.0, engine=1)

    def test_has_no_effect_on_results(self):
        specs = {
            engine: CellRunSpec(
                cell=cell(devices=4, apps=("im",), duration=100.0,
                          engine=engine),
                carrier="att_hspa",
                policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
                dormancy=DormancySpec(),
            )
            for engine in ("scalar", "vector")
        }
        assert specs["scalar"] == specs["vector"]
        scalar, vector = (execute_cell(specs[e]) for e in ("scalar", "vector"))
        assert scalar == vector
        assert scalar.vector_devices == vector.vector_devices == 4


def _trace_from_draw(times, sizes, uplinks) -> PacketTrace:
    return PacketTrace(
        Packet(timestamp=t, size=s,
               direction=Direction.UPLINK if up else Direction.DOWNLINK)
        for t, s, up in zip(sorted(times), sizes, uplinks)
    )


@st.composite
def _device_populations(draw):
    """A handful of devices with adversarial burst spacings.

    Gaps cluster around the fixed timer's boundary values (the dormancy
    wait and the inactivity timeout) so the eligibility fold's
    fired-event masks and the same-instant heap tie-breaks are hit, not
    just the easy wide-gap cases.
    """
    n_devices = draw(st.integers(min_value=1, max_value=4))
    timeout = draw(st.sampled_from((0.0, 0.5, 4.5, 12.0)))
    devices = []
    for index in range(n_devices):
        n_packets = draw(st.integers(min_value=0, max_value=12))
        gaps = draw(st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
                st.sampled_from((0.0, timeout, 4.5, 5.0)),
            ),
            min_size=n_packets, max_size=n_packets,
        ))
        times = []
        now = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        for gap in gaps:
            now = now + gap
            times.append(now)
        sizes = draw(st.lists(st.integers(min_value=0, max_value=3000),
                              min_size=n_packets, max_size=n_packets))
        uplinks = draw(st.lists(st.booleans(),
                                min_size=n_packets, max_size=n_packets))
        devices.append((index, times, sizes, uplinks))
    return timeout, devices


class TestRandomizedParity:
    @settings(max_examples=40, deadline=None)
    @given(population=_device_populations())
    def test_random_traces_identical_under_both_kernels(self, population,
                                                       scalar_kernel):
        timeout, drawn = population
        results = {}
        for kernel, context in (("scalar", scalar_kernel),
                                ("vector", contextlib.nullcontext)):
            specs = [
                DeviceSpec(
                    device_id=index,
                    trace=_trace_from_draw(times, sizes, uplinks),
                    policy=FixedTimerPolicy(timeout=timeout),
                )
                for index, times, sizes, uplinks in drawn
            ]
            simulator = CellSimulator(get_profile("att_hspa"),
                                      AcceptAllDormancy())
            with context():
                results[kernel] = simulator.run(specs)
        assert results["vector"] == results["scalar"]
        assert results["vector"].vector_devices == len(drawn)


#: Two carriers with a FACH state and two without.
_PARITY_CARRIERS = ("att_hspa", "tmobile_3g", "verizon_3g", "verizon_lte")


@st.composite
def _shard_cases(draw):
    """One eligible shard under any RRC shape and station, sampled or not.

    Each device runs fixed-timer, status-quo or plain MakeIdle; gaps mix
    free floats with the carrier's own thresholds (``t1``, ``t2``,
    ``idle_after``) so dormancies, timer pops and arrivals tie, and first
    packets spread over [0, 100) s so the ``(t + t1) + t2`` vs
    ``t + (t1 + t2)`` ulp corner is common, or start at 0.0 or 2.5 s so
    devices tie with each other too.  Some devices attach at their
    first packet, and some depart after their last one, on a threshold
    or off it.  The station accepts all, rejects all, rate-limits with
    an interval drawn from the devices' timeouts, the carrier's
    thresholds and a few fixed spacings, so grants and denials tie with
    request spacings, or is load-aware with a budget of 1 to 6 switches
    a minute, so grants and denials interleave across devices at tied
    instants.
    """
    # Floats with full random mantissas: hypothesis favours short floats,
    # which hit the ulp corner less often.
    def spread(top):
        return st.integers(min_value=0, max_value=10**12 - 1).map(
            lambda k: k * (top * 1e-12))

    carrier = draw(st.sampled_from(_PARITY_CARRIERS))
    profile = get_profile(carrier)
    table = transition_table(profile)
    thresholds = (table.t1, table.t2, table.idle_after, 4.5, 0.5, 0.0)
    interval = draw(st.sampled_from((None, 1.0, 5.0, 7.3)))
    devices = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        policy = draw(st.sampled_from(("fixed", "status_quo", "makeidle")))
        timeout = draw(st.sampled_from((0.0, 0.5, 4.5, table.t1, 12.0)))
        n_packets = draw(st.integers(min_value=0, max_value=10))
        now = draw(st.one_of(spread(100.0), st.sampled_from((0.0, 2.5))))
        times = []
        for gap in draw(st.lists(
                st.one_of(st.floats(min_value=0.0, max_value=30.0),
                          spread(30.0), st.sampled_from(thresholds)),
                min_size=n_packets, max_size=n_packets)):
            now = now + gap
            times.append(now)
        attach = 0.0
        if times and draw(st.booleans()):
            attach = times[0]
        detach = None
        if draw(st.booleans()):
            last = times[-1] if times else attach
            leave = last + draw(st.one_of(
                st.floats(min_value=1e-3, max_value=30.0),
                st.sampled_from((table.t1, table.idle_after, timeout)),
            ))
            if leave > last:
                detach = leave
        sizes = draw(st.lists(st.integers(min_value=0, max_value=3000),
                              min_size=n_packets, max_size=n_packets))
        uplinks = draw(st.lists(st.booleans(), min_size=n_packets,
                                max_size=n_packets))
        devices.append((policy, timeout, times, sizes, uplinks, attach,
                        detach))
    station = draw(st.sampled_from(("accept_all", "reject_all",
                                    "rate_limited", "load_aware")))
    if station == "rate_limited":
        spacing = draw(st.sampled_from(
            [device[1] for device in devices if device[1] > 0.0]
            + [table.t1, table.idle_after, 0.5, 30.0, math.inf]))
        return carrier, interval, devices, (
            lambda: RateLimitedDormancy(min_interval_s=spacing))
    if station == "load_aware":
        budget = draw(st.integers(min_value=1, max_value=6))
        return carrier, interval, devices, (
            lambda: LoadAwareDormancy(max_switches_per_minute=budget))
    return carrier, interval, devices, (
        AcceptAllDormancy if station == "accept_all" else RejectAllDormancy)


def _parity_policy(kind: str, timeout: float):
    if kind == "fixed":
        return FixedTimerPolicy(timeout=timeout)
    if kind == "status_quo":
        return StatusQuoPolicy()
    return MakeIdlePolicy(window_size=5, min_samples=2)


def _hexed(values):
    return [value.hex() if isinstance(value, float) else value
            for value in values]


def _shard_view(shard):
    """Everything a shard partial carries, floats as ``float.hex``."""
    table = shard.devices
    names = type(table)._FLOAT_COLS + type(table)._INT_COLS
    return {
        "columns": {name: _hexed(table.column(name).tolist())
                    for name in names},
        "open_states": table.open_state_codes.tolist(),
        "closed": table.closed_flags.tolist(),
        "last_emitted": (None if shard.last_emitted is None
                         else shard.last_emitted.hex()),
        "max_now": float(shard.max_now).hex(),
        "active": shard.load.active_devices,
        "peak": shard.load.peak_active_devices,
        "switch_times": _hexed(shard.load.switch_times.tolist()),
        "samples": [(sample.time.hex(), sample.active_devices,
                     sample.switches_last_minute)
                    for sample in shard.load_samples],
    }


def _run_shard_both(scalar_kernel, carrier, interval, build,
                    station=AcceptAllDormancy):
    """``build()``'s shard run forced-scalar and auto-selected.

    ``station()`` makes each run's base station.  Returns
    ``(scalar, vector)`` outcomes: a shard, or the raised error.
    """
    outcomes = {}
    for kernel, context in (("scalar", scalar_kernel),
                            ("vector", contextlib.nullcontext)):
        simulator = CellSimulator(get_profile(carrier), station(),
                                  load_sample_interval_s=interval)
        with context():
            try:
                outcomes[kernel] = simulator.run_shard(build())
            except Exception as exc:  # compared across kernels below
                outcomes[kernel] = exc
    return outcomes["scalar"], outcomes["vector"]


def _assert_same_error(scalar, vector):
    assert isinstance(scalar, Exception) and isinstance(vector, Exception)
    assert type(vector) is type(scalar)
    assert str(vector) == str(scalar)


class TestShardParity:
    """Shard partials, not merged results: every column, the open
    segments, the end-time observations, and the load replay — active
    count, peak, switch timeline and samples, so load-op order is
    compared through the samples."""

    @settings(max_examples=300, deadline=None)
    @given(case=_shard_cases())
    def test_every_rrc_shape(self, case, scalar_kernel):
        carrier, interval, drawn, station = case

        def build():
            return [
                DeviceSpec(
                    device_id=index,
                    trace=_trace_from_draw(times, sizes, uplinks),
                    policy=_parity_policy(kind, timeout),
                    attach_at=attach,
                    detach_at=detach,
                )
                for index, (kind, timeout, times, sizes, uplinks, attach,
                            detach) in enumerate(drawn)
            ]

        assert vector_engine.use_vector_kernel(
            station(), [spec.policy for spec in build()])
        scalar, vector = _run_shard_both(scalar_kernel, carrier, interval,
                                         build, station)
        if isinstance(scalar, Exception) or isinstance(vector, Exception):
            _assert_same_error(scalar, vector)
            return
        assert vector.vector_devices == len(drawn)
        assert scalar.vector_devices == 0
        assert _shard_view(vector) == _shard_view(scalar)

    def test_first_packet_before_attach(self, scalar_kernel):
        def build():
            return [DeviceSpec(0, PacketTrace([
                Packet(2.0, 100, Direction.UPLINK),
                Packet(5.0, 100, Direction.DOWNLINK),
            ]), FixedTimerPolicy(timeout=4.5), attach_at=3.0)]

        assert vector_engine.use_vector_kernel(
            AcceptAllDormancy(), [spec.policy for spec in build()])
        scalar, vector = _run_shard_both(scalar_kernel, "att_hspa", None,
                                         build)
        _assert_same_error(scalar, vector)
        assert isinstance(vector, ValueError)
        assert str(vector) == (
            "events must be non-decreasing in time: 2.0 < 3.0")

    def test_timer_pop_one_ulp_below_idle_at(self, scalar_kernel):
        """att_hspa's ``gt + idle_after`` falls one ulp below
        ``(gt + t1) + t2`` here: the timer pops in FACH, so the device
        stays open in FACH since ``demote_at`` and counted active."""
        arrival = 66.9730401440221
        table = transition_table(get_profile("att_hspa"))
        demote_at = arrival + table.t1
        idle_at = demote_at + table.t2
        assert arrival + table.idle_after == math.nextafter(idle_at, 0.0)

        def build():
            return [DeviceSpec(
                0, PacketTrace([Packet(arrival, 100, Direction.UPLINK)]),
                StatusQuoPolicy())]

        scalar, vector = _run_shard_both(scalar_kernel, "att_hspa", 5.0,
                                         build)
        assert vector.vector_devices == 1
        assert _shard_view(vector) == _shard_view(scalar)
        high_idle = list(RadioState).index(RadioState.HIGH_IDLE)
        assert vector.devices.open_state_codes.tolist() == [high_idle]
        assert vector.devices.column("open_since").tolist() == [demote_at]
        assert vector.load.active_devices == 1
        assert vector.load_samples[-1].time > arrival + table.idle_after
        assert vector.load_samples[-1].active_devices == 1

    def test_load_aware_answer_on_the_idle_at_corner(self, scalar_kernel):
        """Device 0's second packet comes at ``t + idle_after``, one ulp
        below ``(t + t1) + t2``: it finds FACH and is no promotion.  So
        device 1's request sees 2 switches in the window, under a budget
        of 3, and is granted; counting that packet as a promotion would
        deny it."""
        arrival = 66.9730401440221
        table = transition_table(get_profile("att_hspa"))
        second = arrival + table.idle_after
        assert second == math.nextafter((arrival + table.t1) + table.t2, 0.0)

        def build():
            return [
                DeviceSpec(0, PacketTrace([
                    Packet(arrival, 100, Direction.UPLINK),
                    Packet(second, 100, Direction.DOWNLINK),
                ]), StatusQuoPolicy()),
                DeviceSpec(1, PacketTrace([
                    Packet(84.0, 100, Direction.UPLINK),
                ]), FixedTimerPolicy(timeout=0.5)),
            ]

        scalar, vector = _run_shard_both(
            scalar_kernel, "att_hspa", 1.0, build,
            lambda: LoadAwareDormancy(max_switches_per_minute=3))
        assert vector.vector_devices == 2
        assert _shard_view(vector) == _shard_view(scalar)
        assert vector.devices.column("promotions").tolist() == [1, 1]
        assert vector.devices.column("dormancy_granted").tolist() == [0, 1]

    @staticmethod
    def _rate_limited_shard(scalar_kernel, last_arrival):
        """One fixed-0.5 s device under ``rate_limited(10)``: requests at
        1.5 (granted), 6.5 (denied: 5 s after the grant, and it does not
        restart the interval) and ``last_arrival + 0.5`` (trailing)."""
        def build():
            return [DeviceSpec(0, PacketTrace([
                Packet(1.0, 100, Direction.UPLINK),
                Packet(6.0, 100, Direction.DOWNLINK),
                Packet(last_arrival, 100, Direction.UPLINK),
            ]), FixedTimerPolicy(timeout=0.5))]

        scalar, vector = _run_shard_both(
            scalar_kernel, "att_hspa", 1.0, build,
            lambda: RateLimitedDormancy(min_interval_s=10.0))
        assert vector.vector_devices == 1
        assert _shard_view(vector) == _shard_view(scalar)
        return vector.devices

    def test_request_exactly_the_interval_after_a_grant(self, scalar_kernel):
        """The spacing check is strict: ``11.5 - 1.5 == 10.0`` grants."""
        assert (11.0 + 0.5) - (1.0 + 0.5) == 10.0
        table = self._rate_limited_shard(scalar_kernel, 11.0)
        assert table.column("dormancy_requests").tolist() == [3]
        assert table.column("dormancy_granted").tolist() == [2]
        assert table.column("dormancy_denied").tolist() == [1]
        assert table.column("fast_demotions").tolist() == [2]

    def test_request_one_ulp_inside_the_interval(self, scalar_kernel):
        """A trailing request one ulp short of the interval is denied."""
        last = math.nextafter(11.0, 0.0)
        assert (last + 0.5) - (1.0 + 0.5) == math.nextafter(10.0, 0.0)
        table = self._rate_limited_shard(scalar_kernel, last)
        assert table.column("dormancy_requests").tolist() == [3]
        assert table.column("dormancy_granted").tolist() == [1]
        assert table.column("dormancy_denied").tolist() == [2]
        assert table.column("fast_demotions").tolist() == [1]

    def test_denied_request_inside_t1_is_no_boundary(self, scalar_kernel):
        """A denied request leaves the device in DCH: with every gap below
        ``t1``, DCH runs from the first packet to the last one's
        ``demote_at`` as one segment, with one promotion.  Split at each
        denied request, the same stretch folds to another float."""
        table = transition_table(get_profile("att_hspa"))
        times = (0.1, 3.7, 7.3)
        demote_at = times[-1] + table.t1
        split = (times[1] - times[0]) + (times[2] - times[1])
        assert split + (demote_at - times[2]) != demote_at - times[0]

        def build():
            return [DeviceSpec(0, PacketTrace([
                Packet(at, 100, Direction.UPLINK) for at in times
            ]), FixedTimerPolicy(timeout=0.5))]

        scalar, vector = _run_shard_both(scalar_kernel, "att_hspa", 1.0,
                                         build, RejectAllDormancy)
        assert vector.vector_devices == 1
        assert _shard_view(vector) == _shard_view(scalar)
        columns = vector.devices
        assert columns.column("active_time_s").tolist() == [
            demote_at - times[0]]
        assert columns.column("promotions").tolist() == [1]
        assert columns.column("dormancy_denied").tolist() == [3]

    def test_denied_trailing_request_after_the_timer(self, scalar_kernel):
        """A denied request does not move the machine's clock: a staying
        device whose trailing request pops after its timer ends at the
        timer pop, while the request still extends the sample horizon."""
        table = transition_table(get_profile("att_hspa"))
        arrival = 3.0
        wait = table.idle_after + 5.0

        def build():
            return [DeviceSpec(
                0, PacketTrace([Packet(arrival, 100, Direction.UPLINK)]),
                FixedTimerPolicy(timeout=wait))]

        scalar, vector = _run_shard_both(scalar_kernel, "att_hspa", 1.0,
                                         build, RejectAllDormancy)
        assert vector.vector_devices == 1
        assert _shard_view(vector) == _shard_view(scalar)
        assert vector.max_now == arrival + table.idle_after
        assert vector.devices.column("dormancy_denied").tolist() == [1]
        assert vector.load_samples[-1].time >= arrival + wait
