"""The benchmark's registry: ``BENCHMARK.json`` plus what its format cannot hold.

``BENCHMARK.json`` at the repository root is the one source of every
workload's name and why, and of every metric's name, unit, direction and
bound.  :func:`load` reads it and adds, keyed by name, the fields the file
has no room for: a workload's loop type and seed rule, and a metric's
``layer`` (the ``repro`` subpackage it measures) and ``moves`` (which
end-to-end metric a change to that layer should move, on which workload).
A name without its extra fields, or extra fields without a name, fails
the load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    why: str
    loop: str
    seed: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    bound: float | None = None


class Registry(NamedTuple):
    workloads: tuple[WorkloadInfo, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]


#: Workload name -> (loop type, what ``--seed`` selects).
WORKLOAD_EXTRA = {
    "paper_sweep": (
        "closed loop, 1 client: cold plan runs, each followed by 40 warm "
        "queries",
        "--seed picks the population (first of 64 candidates within 3% of "
        "the median packets and MakeIdle work)",
    ),
    "cell_sparse": (
        "batch job, 1 client: cold plan runs on a 2-worker pool, each "
        "followed by 40 warm queries",
        "--seed is the population seed",
    ),
    "metro_handover": (
        "batch job, 1 client: cold plan runs in-process, each followed by "
        "40 warm queries",
        "--seed is the metro population seed",
    ),
}

#: Metric name -> (layer, "moves X on workload Y" prediction).
METRIC_EXTRA = {
    "setup_s": ("all", "imports, plan build, TransitionTable caches and "
                "warm-up; median of 5 set-ups"),
    "run_s": ("all", "median wall time of a cold plan run"),
    "sim_pkts_per_s": ("all", "simulated packets per cold run / run_s"),
    "rss_mb": ("all", "VmRSS of the client after each cold run "
               "(gc + malloc_trim); median"),
    "query_p50_ms": ("api", "median warm plan query (fresh runner, disk "
                     "hits, to_records)"),
    "query_p95_ms": ("api", "p95 of >= 200 warm plan queries"),
    "traces.synth_s": ("traces", "sim_pkts_per_s on cell_sparse; little on "
                       "paper_sweep"),
    "traces.packets": ("traces", "work count: packets the device sources "
                       "delivered"),
    "traces.pkts_per_s": ("traces", "sim_pkts_per_s on cell_sparse"),
    "scenarios.build_s": ("scenarios", "setup_s/run_s on paper_sweep"),
    "sim.kernel_self_s": ("sim", "run_s on cell_sparse and metro_handover; "
                          "the status_quo and fixed_4.5s cells of "
                          "paper_sweep"),
    "sim.vector_ratio": ("sim", "run_s on cell_sparse (1.0 there)"),
    "rrc.switches": ("rrc", "work count: RRC state switches simulated"),
    "core.policy_s": ("core", "run_s on paper_sweep (the makeidle cell); no "
                      "change on cell_sparse"),
    "core.decisions": ("core", "work count: policy hook calls"),
    "core.us_per_decision": ("core", "run_s on paper_sweep"),
    "learning.iterations": ("learning", "work count: Learn-alpha iterations "
                            "(paper_sweep learn cell)"),
    "basestation.merge_s": ("basestation", "run_s/rss_mb on cell_sparse"),
    "basestation.dormancy_requests": ("basestation", "work count: "
                                      "fast-dormancy requests"),
    "basestation.denial_ratio": ("basestation", "denials on metro_handover"),
    "metro.shard_s": ("metro", "run_s on metro_handover only"),
    "metro.merge_s": ("metro", "run_s on metro_handover only"),
    "metro.handovers": ("metro", "work count: handovers (metro_handover)"),
    "metro.visits": ("metro", "work count: cell visits (metro_handover)"),
    "api.plan_build_s": ("api", "setup_s/run_s on paper_sweep"),
    "api.runner_s": ("api", "run_s on cell_sparse (pool fan-out and wait)"),
    "api.cache_hits": ("api", "query latency on every workload"),
    "api.cache_misses": ("api", "run_s: misses are simulations"),
    "api.disk_hits": ("api", "query latency on every workload"),
    "api.hit_ratio": ("api", "query latency on every workload"),
    "api.disk_store_s": ("api", "cold run_s of paper_sweep"),
    "api.disk_load_s": ("api", "query_p50_ms/query_p95_ms, most on "
                        "cell_sparse"),
    "api.disk_bytes": ("api", "query latency; disk footprint"),
    "api.records_s": ("api", "query_p50_ms/query_p95_ms on paper_sweep"),
    "trace.run_s": ("bench", "traced run_s (compare trace.untraced_run_s)"),
    "trace.untraced_run_s": ("bench", "untraced run_s of the same traced "
                             "invocation"),
    "trace.overhead": ("bench", "traced run_s / untraced run_s"),
    "trace.coverage": ("bench", "share of traced cold-run self time held by "
                       "a named layer, not the harness or runner (>= 0.9)"),
}


def _check_names(kind: str, names: list[str], extra: dict) -> None:
    missing = sorted(set(names) - set(extra))
    unknown = sorted(set(extra) - set(names))
    if missing or unknown:
        raise ValueError(f"registry out of step with BENCHMARK.json {kind}: "
                         f"missing {missing}, unknown {unknown}")


def load() -> Registry:
    """``BENCHMARK.json`` joined with the extra fields above."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    _check_names("workloads", [w["name"] for w in spec["workloads"]],
                 WORKLOAD_EXTRA)
    _check_names("metrics", [m["name"] for key in ("end_to_end", "per_layer")
                             for m in spec[key]], METRIC_EXTRA)
    return Registry(
        workloads=tuple(WorkloadInfo(w["name"], w["why"],
                                     *WORKLOAD_EXTRA[w["name"]])
                        for w in spec["workloads"]),
        end_to_end=tuple(Metric(m["name"], m["unit"], m["better"],
                                *METRIC_EXTRA[m["name"]], bound=m["bound"])
                         for m in spec["end_to_end"]),
        per_layer=tuple(Metric(m["name"], m["unit"], m["better"],
                               *METRIC_EXTRA[m["name"]])
                        for m in spec["per_layer"]),
    )
