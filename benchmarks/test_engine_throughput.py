"""Micro-benchmark: event-kernel throughput and memory at cell scale.

Records what the unified kernel delivers on the workloads the ROADMAP's
north star cares about and writes the numbers to the gitignored
``.benchmarks/BENCH_engine.json``; ``tools/check_bench_floor.py`` gates
them against the floors committed in ``BENCH_engine.json`` at the repo
root, which a benchmark run never rewrites:

* ``single_1k`` — a 1000-device streamed cell in one process on the
  scalar kernel (forced, so this section's floor keeps gating it):
  packets/sec through the kernel (device policy held cheap so the
  measurement is kernel-dominated) and current RSS / Python-heap peak,
  demonstrating that memory is bounded by the device count, not the total
  packet count;
* ``sharded_10k`` — the same shape at 10k devices, single-process vs
  ``shards=4`` on a process pool, asserting the shard-merge exactness
  contract (byte-identical per-device records) and recording the measured
  speedup (only meaningful on multi-core machines — ``cpu_count`` is
  recorded alongside);
* ``sharded_100k`` — the 100k-device streamed cell, executed sharded
  (every shard on the vector kernel when numpy imports), recording wall
  time, packets/sec and RSS at a population size one process could not
  comfortably hold with materialised traces;
* ``sharded_scenario`` — a heterogeneous ``office_day`` scenario cell
  (cohort-weighted archetypes under a diurnal shape), single-process vs
  2-shard pool, asserting the shard-merge exactness contract extends to
  scenario populations and recording the scenario layer's throughput;
* ``metro_250k`` — the four-cell shuffle metro at 250k UEs: hierarchical
  (cell × UE-block) sharded execution with mid-stream RRC handovers,
  recording the handover count and per-UE handover rate alongside the
  packet throughput the mobility layer sustains;
* ``vector_1k`` — the numpy kernel against the (forced) scalar kernel on
  a dense 1k-device cell (social/news, 600 s), traces materialised
  outside the timed region so the comparison is kernel-vs-kernel on
  identical inputs: byte-identical results asserted, both throughputs
  and the speedup recorded;
* ``learning_10k`` — the 10k-device streamed cell running the
  Learn-α MakeIdle+MakeActive scheme: per-UE online learners updated
  in-kernel at release time, single-process vs sharded pool with the
  byte-identity contract asserted (learner state never crosses a shard
  boundary), recording the learning layer's throughput alongside the
  learning-curve summary (learners, iterations, first→final delay);
* ``cell_1m`` — the 1,000,000-device streamed cell on the columnar
  result core, opt-in via ``REPRO_BENCH_1M=1`` (it adds minutes to a
  bench run): completes in one container and records ``rss_now_mb``,
  which ``tools/check_bench_floor.py`` gates against a committed
  ceiling.

Memory is reported as ``rss_now_mb``: the section's own current RSS
sampled from ``/proc/self/status`` at record time.  The former
``peak_rss_mb`` (``ru_maxrss``) was dropped — it is a *process-wide*
high-water mark, monotone across sections within one pytest run, so
every section after the hungriest one replicated that section's peak and
the column carried no per-section information.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

from dataclasses import replace as dc_replace

import pytest

from conftest import print_figure

from repro.api import (
    CellRunSpec,
    PolicySpec,
    ProcessPoolRunner,
    cell,
    execute_cell,
)
from repro.api.cells import DormancySpec
from repro.basestation import AcceptAllDormancy, CellSimulator
from repro.rrc.profiles import get_profile
from repro.sim.vector_engine import numpy_available
from repro.traces.packet import PacketTrace

DEVICES = 1000
DURATION_S = 120.0
SHARDED_DEVICES = 10_000
SHARDED_SHARDS = 4
HUGE_DEVICES = 100_000
HUGE_DURATION_S = 60.0
HUGE_SHARDS = 8
SCENARIO_DEVICES = 2_000
SCENARIO_DURATION_S = 120.0
SCENARIO_SHARDS = 2
METRO_DEVICES = 250_000
METRO_DURATION_S = 60.0
METRO_SHARDS = 8
# Dense workload for the kernel comparison: ~230 packets/UE keeps both
# kernels dominated by per-packet work, the vector kernel's target regime
# (sparse bursty traffic is boundary-dominated).
VECTOR_DEVICES = 1000
VECTOR_APPS = ("social", "news")
VECTOR_DURATION_S = 600.0
LEARNING_DEVICES = 10_000
LEARNING_DURATION_S = 60.0
LEARNING_SHARDS = 4
MILLION_DEVICES = 1_000_000
MILLION_DURATION_S = 30.0
MILLION_SHARDS = 16
#: Committed ceiling for the cell_1m resident set; the bench asserts it
#: and tools/check_bench_floor.py gates the recorded value against it.
MILLION_RSS_CEILING_MB = 440.0
BENCH_PATH = (Path(__file__).resolve().parent.parent / ".benchmarks"
              / "BENCH_engine.json")


_BENCH_SECTIONS = (
    "single_1k", "sharded_10k", "sharded_100k", "sharded_scenario",
    "metro_250k", "vector_1k", "learning_10k", "cell_1m",
)


def _update_bench(section: str, record: dict) -> dict:
    """Merge one section into BENCH_engine.json (sections per benchmark)."""
    data: dict = {}
    if BENCH_PATH.exists():
        try:
            loaded = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            loaded = {}
        # Keep sibling sections; only the pre-shard flat layout (one
        # un-sectioned record) starts a fresh file.
        if isinstance(loaded, dict) and any(
            key in loaded for key in _BENCH_SECTIONS
        ):
            data = loaded
    data["cpu_count"] = os.cpu_count()
    data[section] = record
    BENCH_PATH.parent.mkdir(parents=True, exist_ok=True)
    BENCH_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return record


def _peak_rss_mb() -> float:
    """Process RSS high-water mark — only a fallback for :func:`_rss_now_mb`
    where /proc is unavailable; never recorded directly (see module
    docstring for why the per-section columns dropped it)."""
    # ru_maxrss is KiB on Linux, bytes on macOS.
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss / 1024.0 if sys.platform != "darwin" else maxrss / 2**20


def _trim_heap() -> None:
    """Return freed allocator pages to the OS before an RSS sample.

    On a serial (pool-clamped) run the shard partials are merged in this
    very process, and glibc retains the freed merge transients in its
    arenas — VmRSS would then measure allocator retention, not the live
    columnar table.  ``malloc_trim`` hands those pages back so the sample
    reflects what the process actually still holds.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # non-glibc platform: sample as-is
        pass


def _rss_now_mb() -> float:
    """Current RSS at record time — this section's own footprint."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0  # kB -> MiB
    except OSError:
        pass
    return _peak_rss_mb()


def _build_devices():
    population = cell(
        devices=DEVICES, apps=("im", "email"), duration=DURATION_S,
        chunk_s=60.0,
    )
    # fixed_4.5s keeps per-packet policy work O(1): the number measured is
    # the kernel's, not MakeIdle's window optimisation.
    return population.build_devices(PolicySpec(scheme="fixed_4.5s"))


def _cell_spec(devices: int, duration: float, shards: int) -> CellRunSpec:
    return CellRunSpec(
        cell=cell(devices=devices, apps=("im", "email"), duration=duration,
                  chunk_s=60.0),
        carrier="att_hspa",
        policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
        dormancy=DormancySpec(),
        shards=shards,
    )


THROUGHPUT_ROUNDS = 5


def test_engine_throughput_1k_device_cell(benchmark, scalar_kernel):
    # The scalar kernel is forced: this section's floor gates it, while
    # vector_1k and the sharded sections measure the vector kernel.
    with scalar_kernel():
        _measure_single_1k(benchmark)


def _measure_single_1k(benchmark) -> None:
    # Throughput passes, untraced (tracemalloc costs several x).  Best of
    # THROUGHPUT_ROUNDS replays: the kernel is deterministic, so run-to-run
    # spread is scheduler/frequency noise, and the fastest replay is the
    # standard micro-benchmark estimator of what the code itself costs
    # (also what keeps the CI regression gate from tripping on a noisy
    # neighbour instead of a real regression).
    # One untimed warm-up replay brings allocator/caches to steady state
    # before measurement.
    CellSimulator(get_profile("att_hspa"), AcceptAllDormancy()).run(
        _build_devices()
    )
    elapsed = float("inf")
    for _ in range(THROUGHPUT_ROUNDS):
        simulator = CellSimulator(get_profile("att_hspa"), AcceptAllDormancy())
        devices = _build_devices()
        start = time.perf_counter()
        result = simulator.run(devices)
        elapsed = min(elapsed, time.perf_counter() - start)

    # Memory pass — Python-heap peak under tracemalloc.
    tracemalloc.start()
    CellSimulator(get_profile("att_hspa"), AcceptAllDormancy()).run(
        _build_devices()
    )
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    packets = result.total_packets
    assert packets > 0
    packets_per_sec = packets / elapsed

    record = _update_bench("single_1k", {
        "devices": DEVICES,
        "duration_s": DURATION_S,
        "packets": packets,
        "elapsed_s": round(elapsed, 3),
        "timing": f"best of {THROUGHPUT_ROUNDS} replays (1 warm-up)",
        "packets_per_sec": round(packets_per_sec, 1),
        "events_per_sec_lower_bound": round(packets_per_sec, 1),
        "rss_now_mb": round(_rss_now_mb(), 1),
        "python_heap_peak_mb": round(traced_peak / 2**20, 2),
        "heap_bytes_per_packet": round(traced_peak / packets, 1),
    })

    print_figure(
        "Engine throughput — 1k-device streamed cell",
        "\n".join(f"{key}: {value}" for key, value in record.items())
        + f"\n(written to {BENCH_PATH.parent.name}/{BENCH_PATH.name})",
    )

    # Streaming keeps Python-heap peak far below one-materialised-trace-
    # per-device territory (~1 KB+/packet); allow generous slack for
    # interpreter noise so the assertion stays robust on CI boxes.
    assert traced_peak / packets < 800.0, (
        f"streamed cell allocated {traced_peak / packets:.0f} B/packet — "
        "memory no longer bounded by active devices?"
    )

    # One timed replay for the pytest-benchmark report.
    benchmark.pedantic(
        lambda: CellSimulator(get_profile("att_hspa")).run(_build_devices()),
        rounds=1, iterations=1,
    )


def test_sharded_10k_device_cell_matches_and_scales():
    """10k devices: single process vs 4 shards via the runner, byte-identical.

    The runner clamps its pool to usable cores and falls back to serial
    in-process shard execution when a pool cannot help (1 usable worker),
    so a machine where pool overhead would beat parallelism never pays
    it.  A ``speedup`` claim is recorded only when a pool actually ran —
    the in-process fallback executes the very code path it would be
    compared against, so a sub-1 "speedup" cannot be shipped by
    construction (the clamp itself is recorded instead).
    """
    single_spec = _cell_spec(SHARDED_DEVICES, DURATION_S, shards=1)
    sharded_spec = _cell_spec(SHARDED_DEVICES, DURATION_S,
                              shards=SHARDED_SHARDS)

    start = time.perf_counter()
    single = execute_cell(single_spec)
    single_elapsed = time.perf_counter() - start

    runner = ProcessPoolRunner(jobs=SHARDED_SHARDS)
    start = time.perf_counter()
    sharded_runs = runner.run([sharded_spec])
    sharded = sharded_runs.records[0].result
    sharded_elapsed = time.perf_counter() - start
    execution = sharded_runs.execution

    # The exactness contract, asserted at benchmark scale: per-device
    # records byte-identical under the shard-independent accept_all
    # station, whatever the hardware does for speed.
    assert sharded.devices == single.devices
    assert sharded.signaling == single.signaling
    assert sharded.switch_times == single.switch_times

    packets = single.total_packets
    record = {
        "devices": SHARDED_DEVICES,
        "duration_s": DURATION_S,
        "shards": SHARDED_SHARDS,
        "pool_jobs": execution.effective_jobs,
        "pool_used": execution.pool_used,
        "pool_clamped": execution.clamped,
        "usable_cores": execution.usable_cores,
        "packets": packets,
        "single_elapsed_s": round(single_elapsed, 3),
        "sharded_elapsed_s": round(sharded_elapsed, 3),
        "single_packets_per_sec": round(packets / single_elapsed, 1),
        "sharded_packets_per_sec": round(packets / sharded_elapsed, 1),
        "byte_identical_devices": True,
        "rss_now_mb": round(_rss_now_mb(), 1),
    }
    if execution.pool_used:
        record["speedup"] = round(
            single_elapsed / sharded_elapsed if sharded_elapsed > 0 else 0.0,
            2,
        )
    record = _update_bench("sharded_10k", record)

    print_figure(
        "Sharded execution — 10k-device cell, 4 shards vs 1 process",
        "\n".join(f"{key}: {value}" for key, value in record.items()),
    )

    # The speedup target only exists where the cores do: a shared 4-vCPU
    # CI runner cannot reliably give 4 shards 2.5x.  Asserted only with
    # real headroom (twice the shard count in cores).
    if execution.pool_used and (os.cpu_count() or 1) >= 2 * SHARDED_SHARDS:
        assert record["speedup"] >= 2.5, (
            f"sharded 10k run only {record['speedup']:.2f}x faster on "
            f"{os.cpu_count()} cores"
        )


def test_sharded_scenario_cell_matches_and_records():
    """office_day at 2k devices: scenario layer through the shard protocol."""
    def spec(shards: int) -> CellRunSpec:
        return CellRunSpec(
            cell=cell(devices=SCENARIO_DEVICES, scenario="office_day",
                      duration=SCENARIO_DURATION_S, chunk_s=60.0),
            carrier="att_hspa",
            policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
            dormancy=DormancySpec(),
            shards=shards,
        )

    start = time.perf_counter()
    single = execute_cell(spec(1))
    single_elapsed = time.perf_counter() - start

    runner = ProcessPoolRunner(jobs=SCENARIO_SHARDS)
    start = time.perf_counter()
    sharded_runs = runner.run([spec(SCENARIO_SHARDS)])
    sharded = sharded_runs.records[0].result
    sharded_elapsed = time.perf_counter() - start
    execution = sharded_runs.execution

    # Shard-merge exactness extends to scenario populations: cohort
    # membership and hashed per-device seeds are pure functions of the
    # global device index, so the partials merge byte-identically.
    assert sharded.devices == single.devices
    assert sharded.signaling == single.signaling
    assert sharded.switch_times == single.switch_times
    assert sharded.cohort_breakdown() == single.cohort_breakdown()

    packets = single.total_packets
    assert packets > 0
    cohorts = {
        label: entry.devices
        for label, entry in single.cohort_breakdown().items()
    }
    record = _update_bench("sharded_scenario", {
        "scenario": "office_day",
        "devices": SCENARIO_DEVICES,
        "duration_s": SCENARIO_DURATION_S,
        "shards": SCENARIO_SHARDS,
        "pool_jobs": execution.effective_jobs,
        "pool_used": execution.pool_used,
        "pool_clamped": execution.clamped,
        "cohort_devices": cohorts,
        "packets": packets,
        "single_elapsed_s": round(single_elapsed, 3),
        "sharded_elapsed_s": round(sharded_elapsed, 3),
        "single_packets_per_sec": round(packets / single_elapsed, 1),
        "sharded_packets_per_sec": round(packets / sharded_elapsed, 1),
        "byte_identical_devices": True,
        "rss_now_mb": round(_rss_now_mb(), 1),
    })

    print_figure(
        "Sharded execution — 2k-device office_day scenario cell",
        "\n".join(f"{key}: {value}" for key, value in record.items()),
    )


def test_metro_250k_completes_with_handovers():
    """The 250k-UE four-cell metro runs hierarchically sharded.

    ``metro_4cell`` shuffles its population across four stations on
    10-minute mean residencies, so a one-minute horizon already hands
    over ~10% of 250k UEs — each departure closing its RRC context with
    the exact ``finish``-replay float ops and resuming mid-stream at the
    arrival cell.  Recorded alongside throughput: the handover count and
    the per-UE-hour handover rate the elapsed time paid for.
    """
    from repro.api.metro import MetroRunSpec, execute_metro, metro

    spec = MetroRunSpec(
        metro=metro("metro_4cell", devices=METRO_DEVICES,
                    duration=METRO_DURATION_S, chunk_s=60.0),
        carrier="att_hspa",
        policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
        shards=METRO_SHARDS,
    )
    start = time.perf_counter()
    result = execute_metro(spec)
    elapsed = time.perf_counter() - start

    assert len(result.cells) >= 4
    assert result.handovers > 0
    packets = result.total_packets
    assert packets > 0
    total_visits = sum(entry.visits for entry in result.cells)

    ue_hours = METRO_DEVICES * METRO_DURATION_S / 3600.0
    record = _update_bench("metro_250k", {
        "metro": "metro_4cell",
        "devices": METRO_DEVICES,
        "duration_s": METRO_DURATION_S,
        "cells": len(result.cells),
        "shards": METRO_SHARDS,
        "packets": packets,
        "visits": total_visits,
        "handovers": result.handovers,
        "handover_rate_per_ue_hour": round(result.handovers / ue_hours, 3),
        "cell_visits": {
            entry.name: entry.visits for entry in result.cells
        },
        "elapsed_s": round(elapsed, 3),
        "packets_per_sec": round(packets / elapsed, 1),
        "handovers_per_sec": round(result.handovers / elapsed, 1),
        "rss_now_mb": round(_rss_now_mb(), 1),
    })

    print_figure(
        "Metro execution — 250k-UE four-cell shuffle metro",
        "\n".join(f"{key}: {value}" for key, value in record.items())
        + f"\n(written to {BENCH_PATH.parent.name}/{BENCH_PATH.name})",
    )


def test_sharded_100k_device_cell_completes():
    """The 100k-device streamed cell runs sharded and is recorded."""
    spec = _cell_spec(HUGE_DEVICES, HUGE_DURATION_S, shards=HUGE_SHARDS)

    # The runner clamps its pool to usable cores and runs the shards
    # serially in-process when a pool cannot help (same merge, no pool
    # tax) — no need to special-case core counts here.
    runner = ProcessPoolRunner(jobs=HUGE_SHARDS)
    start = time.perf_counter()
    runs = runner.run([spec])
    result = runs.records[0].result
    elapsed = time.perf_counter() - start
    execution = runs.execution

    assert len(result.devices) == HUGE_DEVICES
    packets = result.total_packets
    assert packets > 0

    record = _update_bench("sharded_100k", {
        "devices": HUGE_DEVICES,
        "duration_s": HUGE_DURATION_S,
        "shards": HUGE_SHARDS,
        "pool_jobs": execution.effective_jobs,
        "pool_used": execution.pool_used,
        "pool_clamped": execution.clamped,
        "packets": packets,
        "elapsed_s": round(elapsed, 3),
        "packets_per_sec": round(packets / elapsed, 1),
        "rss_now_mb": round(_rss_now_mb(), 1),
        "peak_active_devices": result.peak_active_devices,
        "peak_switches_per_minute": result.peak_switches_per_minute,
    })

    print_figure(
        "Sharded execution — 100k-device streamed cell",
        "\n".join(f"{key}: {value}" for key, value in record.items())
        + f"\n(written to {BENCH_PATH.parent.name}/{BENCH_PATH.name})",
    )


def _materialized_dense_devices():
    """The vector-comparison workload with traces materialised up front.

    Materialising outside the timed region makes the ``vector_1k``
    numbers kernel-vs-kernel on identical in-memory inputs — trace
    generation costs the same whichever backend runs and would otherwise
    dilute the comparison.
    """
    population = cell(
        devices=VECTOR_DEVICES, apps=VECTOR_APPS,
        duration=VECTOR_DURATION_S, chunk_s=60.0,
    )
    return [
        dc_replace(spec, trace=PacketTrace(spec.trace))
        for spec in population.build_devices(PolicySpec(scheme="fixed_4.5s"))
    ]


def test_vector_1k_dense_cell_speedup(scalar_kernel):
    """Scalar vs vector kernel on the dense 1k-device cell, byte-identical.

    Both kernels replay the same materialised workload, best of
    THROUGHPUT_ROUNDS (one untimed warm-up each — the vector warm-up
    also pays the numpy import); the scalar side forces its kernel, the
    vector side is the one the selection rule picks.  The full results
    are compared field-for-field before any number is recorded: a
    speedup claim for a kernel that diverges would be meaningless.
    """
    if not numpy_available():
        pytest.skip("numpy unavailable — every shard runs on the scalar kernel")

    elapsed = {}
    results = {}
    for kernel, context in (("scalar", scalar_kernel),
                            ("vector", contextlib.nullcontext)):
        with context():
            CellSimulator(get_profile("att_hspa"), AcceptAllDormancy()).run(
                _materialized_dense_devices()
            )
            best = float("inf")
            for _ in range(THROUGHPUT_ROUNDS):
                devices = _materialized_dense_devices()
                simulator = CellSimulator(
                    get_profile("att_hspa"), AcceptAllDormancy()
                )
                start = time.perf_counter()
                results[kernel] = simulator.run(devices)
                best = min(best, time.perf_counter() - start)
        elapsed[kernel] = best

    scalar, vector = results["scalar"], results["vector"]
    assert scalar.vector_devices == 0
    assert vector.vector_devices == VECTOR_DEVICES
    assert vector.devices == scalar.devices
    assert vector.signaling == scalar.signaling
    assert vector.switch_times == scalar.switch_times
    assert vector.load_samples == scalar.load_samples

    packets = scalar.total_packets
    assert packets > 0
    scalar_pps = packets / elapsed["scalar"]
    vector_pps = packets / elapsed["vector"]
    speedup = elapsed["scalar"] / elapsed["vector"]

    # Cross-section ratio against the streamed scalar baseline, when the
    # single_1k section is present on this machine (it runs first in
    # this module, so a full bench run always has it).
    single_pps = None
    if BENCH_PATH.exists():
        try:
            single = json.loads(
                BENCH_PATH.read_text(encoding="utf-8")
            ).get("single_1k", {})
            single_pps = single.get("packets_per_sec")
        except json.JSONDecodeError:
            pass

    record = {
        "devices": VECTOR_DEVICES,
        "apps": list(VECTOR_APPS),
        "duration_s": VECTOR_DURATION_S,
        "packets": packets,
        "timing": (
            f"kernel replay only — traces materialised outside the timed "
            f"region; best of {THROUGHPUT_ROUNDS} (1 warm-up per engine)"
        ),
        "scalar_elapsed_s": round(elapsed["scalar"], 3),
        "vector_elapsed_s": round(elapsed["vector"], 3),
        "scalar_packets_per_sec": round(scalar_pps, 1),
        # The floor-gated headline number is the vector kernel's.
        "packets_per_sec": round(vector_pps, 1),
        "speedup": round(speedup, 2),
        "byte_identical_devices": True,
        "rss_now_mb": round(_rss_now_mb(), 1),
    }
    if single_pps:
        record["speedup_vs_single_1k"] = round(vector_pps / single_pps, 2)
    record = _update_bench("vector_1k", record)

    print_figure(
        "Vector kernel — dense 1k-device cell, scalar vs vector kernel",
        "\n".join(f"{key}: {value}" for key, value in record.items())
        + f"\n(written to {BENCH_PATH.parent.name}/{BENCH_PATH.name})",
    )

    # The vector kernel must beat the scalar kernel decisively on its
    # target regime — a generous in-test floor; the bench gate pins the
    # machine-specific absolute.
    assert speedup >= 2.0, (
        f"vector kernel only {speedup:.2f}x scalar on the dense cell"
    )
    if single_pps:
        assert vector_pps >= 5.0 * single_pps, (
            f"vector kernel {vector_pps:,.0f} pkt/s is under 5x the "
            f"single_1k scalar baseline {single_pps:,.0f} pkt/s"
        )


def test_learning_10k_device_cell_matches_and_records():
    """10k devices on the Learn-α scheme: sharded byte-identity + throughput.

    Every device owns a fresh two-layer learner (Fixed-Share experts under
    a Learn-α top layer) updated in-kernel at each buffered release —
    this section measures what that per-release weight update costs at
    population scale, and re-asserts the streaming learning contract at
    benchmark scale: the sharded run's per-device records, including the
    ``learn_*`` learning-curve columns, are byte-identical to the
    single-process reference.
    """
    def spec(shards: int) -> CellRunSpec:
        return CellRunSpec(
            cell=cell(devices=LEARNING_DEVICES, apps=("im", "email"),
                      duration=LEARNING_DURATION_S, chunk_s=60.0),
            carrier="att_hspa",
            policy=PolicySpec(scheme="makeidle+makeactive_learn").resolved(100),
            dormancy=DormancySpec(),
            shards=shards,
        )

    start = time.perf_counter()
    single = execute_cell(spec(1))
    single_elapsed = time.perf_counter() - start

    runner = ProcessPoolRunner(jobs=LEARNING_SHARDS)
    start = time.perf_counter()
    sharded_runs = runner.run([spec(LEARNING_SHARDS)])
    sharded = sharded_runs.records[0].result
    sharded_elapsed = time.perf_counter() - start
    execution = sharded_runs.execution

    # The streaming learning contract at benchmark scale: per-UE learner
    # state never crosses a shard boundary.
    assert sharded.devices == single.devices
    assert sharded.signaling == single.signaling
    assert sharded.switch_times == single.switch_times
    assert sharded.learning_summary() == single.learning_summary()

    packets = single.total_packets
    assert packets > 0
    summary = single.learning_summary()
    assert summary["learning_devices"] > 0
    record = _update_bench("learning_10k", {
        "devices": LEARNING_DEVICES,
        "duration_s": LEARNING_DURATION_S,
        "scheme": "makeidle+makeactive_learn",
        "shards": LEARNING_SHARDS,
        "pool_jobs": execution.effective_jobs,
        "pool_used": execution.pool_used,
        "pool_clamped": execution.clamped,
        "packets": packets,
        "single_elapsed_s": round(single_elapsed, 3),
        "sharded_elapsed_s": round(sharded_elapsed, 3),
        "single_packets_per_sec": round(packets / single_elapsed, 1),
        # The floor-gated headline number is the single-process kernel's:
        # it isolates the learning layer's per-release cost from pool
        # scheduling.
        "packets_per_sec": round(packets / single_elapsed, 1),
        "sharded_packets_per_sec": round(packets / sharded_elapsed, 1),
        "learning_devices": summary["learning_devices"],
        "learn_iterations": summary["learn_iterations"],
        "learn_iterations_per_sec": round(
            summary["learn_iterations"] / single_elapsed, 1
        ),
        "mean_delay_first_s": round(summary["mean_delay_first_s"], 3),
        "mean_delay_final_s": round(summary["mean_delay_final_s"], 3),
        "byte_identical_devices": True,
        "rss_now_mb": round(_rss_now_mb(), 1),
    })

    print_figure(
        "Learning layer — 10k-device Learn-α cell, sharded vs 1 process",
        "\n".join(f"{key}: {value}" for key, value in record.items())
        + f"\n(written to {BENCH_PATH.parent.name}/{BENCH_PATH.name})",
    )


def test_cell_1m_streamed_completes_in_bounded_memory():
    """One million streamed devices in a single container (``cell_1m``).

    The columnar result core is what makes this population size fit: the
    merged result is a struct-of-arrays :class:`DeviceTable` (a handful
    of numpy columns, ~8 bytes per device per column) instead of a
    million boxed ``DeviceResult`` objects, and shard partials compact
    their switch timelines into arrays at hand-off.  The section records
    ``rss_now_mb`` sampled *after* the merge — the resident footprint a
    consumer of the result actually holds — and asserts it under the
    committed ceiling that ``tools/check_bench_floor.py`` gates.

    Opt-in (``REPRO_BENCH_1M=1``): at ~2.4M packets through a serial
    16-shard plan this adds minutes to a bench run, which would roughly
    double the tier-1 suite on a laptop for one number that only moves
    when the storage layer does.
    """
    if os.environ.get("REPRO_BENCH_1M") != "1":
        pytest.skip("cell_1m is opt-in: set REPRO_BENCH_1M=1")
    spec = _cell_spec(MILLION_DEVICES, MILLION_DURATION_S,
                      shards=MILLION_SHARDS)
    runner = ProcessPoolRunner(jobs=MILLION_SHARDS)
    start = time.perf_counter()
    runs = runner.run([spec])
    result = runs.records[0].result
    elapsed = time.perf_counter() - start
    execution = runs.execution

    assert len(result.devices) == MILLION_DEVICES
    packets = result.total_packets
    assert packets > 0
    # Exercise a columnar aggregate so the recorded RSS covers a consumer
    # actually *using* the table, not just holding it.
    assert result.total_energy_j > 0.0

    _trim_heap()
    rss_now = _rss_now_mb()
    record = _update_bench("cell_1m", {
        "devices": MILLION_DEVICES,
        "duration_s": MILLION_DURATION_S,
        "shards": MILLION_SHARDS,
        "vector_devices": result.vector_devices,
        "pool_jobs": execution.effective_jobs,
        "pool_used": execution.pool_used,
        "pool_clamped": execution.clamped,
        "packets": packets,
        "elapsed_s": round(elapsed, 3),
        "packets_per_sec": round(packets / elapsed, 1),
        "rss_now_mb": round(rss_now, 1),
        "rss_ceiling_mb": MILLION_RSS_CEILING_MB,
        "bytes_per_device": round(rss_now * 2**20 / MILLION_DEVICES, 1),
    })

    print_figure(
        "Columnar result core — 1M-device streamed cell",
        "\n".join(f"{key}: {value}" for key, value in record.items())
        + f"\n(written to {BENCH_PATH.parent.name}/{BENCH_PATH.name})",
    )

    assert rss_now <= MILLION_RSS_CEILING_MB, (
        f"cell_1m resident set {rss_now:.0f} MB exceeds the "
        f"{MILLION_RSS_CEILING_MB:.0f} MB ceiling — the columnar result "
        "core is no longer bounding per-device storage"
    )
