"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Lines before it are for people: sample counts, the per-cell layer split,
the records digest.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import registry

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Set-up samples per run: this process plus fresh-interpreter probes.
SETUP_PROBES = 4
MIN_COLD_OPS = 3
#: Host seconds of :func:`reference_loop` at the speed timings are scaled
#: to: its median on the 2.1 GHz host of the README's figures.
REFERENCE_S = 0.045


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only measure set-up and print it")
    return parser.parse_args(argv)


def rss_mb() -> float:
    """VmRSS after returning freed allocator pages to the OS."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop: the host's current speed.

    The benchmark's host slows by up to 40% for minutes at a time under
    load from its neighbours.  Timing this loop next to each operation and
    scaling the operation's time by ``REFERENCE_S / loop time`` cancels
    that drift.  The loop touches no program code or state.
    """
    start = time.perf_counter()
    table: dict[int, float] = {}
    x = 0.5
    for i in range(240_000):
        table[i & 255] = x
        x = (x * 1.0001 + table.get((i * 7) & 255, 0.0)) % 17.0
    return time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of one fresh interpreter running this workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """One benchmark invocation: cold runs, each followed by warm queries."""

    def __init__(self, workload, workloads_module) -> None:
        self.w = workload
        self.wm = workloads_module
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected_runs = len(workload.plan.build())
        self.reference: str | None = None
        self.packets = 0
        self.counts: dict = {}
        self.cold_stats = None  # cache counters of the first cold run
        self.query_stats = None  # ... and of the first warm query
        self.rss: list[float] = []

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)

    @staticmethod
    def _timed(call, tracer, name: str, op: str):
        """``(seconds, result, exception)`` of one operation."""
        span = tracer.begin(name, op=op) if tracer else None
        start = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a crashing operation is a failed one
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if span:
            tracer.end(span)
            tracer.collect_workers()
        return elapsed, result, error

    def cold_op(self, tracer=None, op: str = "cold") -> float:
        self.w.before_cold()
        elapsed, runs, error = self._timed(self.w.cold, tracer, "bench.cold", op)
        if error is not None:
            self._count([f"cold run raised {error!r}"])
            return elapsed
        try:
            # Publish before the checks below fill the results' lazy
            # aggregates: stored results must be what a runner stores.
            self.w.publish(runs)
            problems = self.wm.check_cold(self.w, runs, self.expected_runs)
            records = self.wm.canonical(runs.to_records())
            if self.reference is None:
                self.reference = records
                self.packets = self.wm.total_packets(runs)
                self.counts = self.wm.result_counts(runs)
                self.cold_stats = runs.cache_stats
            elif records != self.reference:
                problems.append("cold records differ between runs")
        except Exception as exc:
            problems = [f"cold check raised {exc!r}"]
        self._count(problems)
        if tracer is None:
            self.rss.append(rss_mb())
        return elapsed

    def query_op(self, tracer=None, op: str = "query") -> float:
        elapsed, answer, error = self._timed(self.w.query, tracer,
                                             "bench.query", op)
        if error is not None:
            self._count([f"warm query raised {error!r}"])
            return elapsed
        runs, records = answer
        if self.query_stats is None:
            self.query_stats = runs.cache_stats
        try:
            problems = self.wm.check_query(runs, records, self.reference,
                                           self.expected_runs)
        except Exception as exc:
            problems = [f"query check raised {exc!r}"]
        self._count(problems)
        return elapsed

    def measure(self, seconds: float, min_cold: int, min_queries: int):
        """Cold runs, each followed by a batch of warm queries, for ``seconds``.

        Interleaving spreads both kinds of sample over the whole run, so a
        burst of load from outside hits both alike.  Returns the cold and
        warm times scaled to reference speed, each by the mean of the
        reference loops timed just before and just after it (a batch of
        warm queries shares one pair), and then the same times unscaled.
        """
        cold: list[float] = []
        warm: list[float] = []
        host_cold: list[float] = []
        host_warm: list[float] = []
        begin = time.perf_counter()
        before = reference_loop()
        while (len(cold) < min_cold or len(warm) < min_queries
               or time.perf_counter() - begin < seconds):
            host_cold.append(self.cold_op())
            after = reference_loop()
            cold.append(host_cold[-1] * 2 * REFERENCE_S / (before + after))
            before = after
            if self.reference is None:
                continue
            batch = [self.query_op() for _ in range(self.wm.QUERY_BATCH)]
            after = reference_loop()
            host_warm.extend(batch)
            warm.extend(t * 2 * REFERENCE_S / (before + after) for t in batch)
            before = after
        return cold, warm, host_cold, host_warm


def layer_metrics(tracer, wm, run: Run, traced: list[float],
                  untraced: list[float]):
    """``(metrics, spans, per-op layer times)`` of the traced operations."""
    spans = tracer.all_spans()
    own = tracing.self_times(spans)
    per_op: dict[str, dict[str, float]] = {}
    packets_per_op: dict[str, int] = {}
    calls_per_op: dict[str, int] = {}
    for span in spans:
        op = span["op"]
        if op is None:
            continue
        table = per_op.setdefault(op, {})
        metric = tracing.LAYER_OF_SPAN.get(span["name"])
        if metric is None:
            continue
        table[metric] = table.get(metric, 0.0) + own[span["id"]]
        if span["name"] == "traces.synth":
            packets_per_op[op] = packets_per_op.get(op, 0) + span["count"]
        if span["name"] == "core.policy":
            calls_per_op[op] = calls_per_op.get(op, 0) + span["calls"]

    cold_ops = sorted(op for op in per_op if op.startswith("cold"))
    query_ops = [op for op in per_op if op.startswith("query")]

    def median_of(metric: str, ops) -> float:
        return statistics.median(per_op[op].get(metric, 0.0) for op in ops)

    metrics = {}
    for metric in sorted(set(tracing.LAYER_OF_SPAN.values())):
        ops = query_ops if metric in ("api.disk_load_s", "api.records_s") else cold_ops
        metrics[metric] = median_of(metric, ops)
    first = cold_ops[0]
    packets = packets_per_op.get(first, 0)
    decisions = calls_per_op.get(first, 0)
    metrics["traces.packets"] = packets
    metrics["traces.pkts_per_s"] = (
        packets / metrics["traces.synth_s"] if metrics["traces.synth_s"] else 0.0
    )
    metrics["core.decisions"] = decisions
    metrics["core.us_per_decision"] = (
        metrics["core.policy_s"] / decisions * 1e6 if decisions else 0.0
    )
    metrics.update(run.counts)
    cold, query = run.cold_stats, run.query_stats
    metrics["api.cache_hits"] = query.hits
    metrics["api.cache_misses"] = cold.misses
    metrics["api.disk_hits"] = query.disk_hits
    metrics["api.hit_ratio"] = query.hit_rate
    metrics["api.disk_bytes"] = wm.disk_bytes(run.w.query_dir)
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.overhead"] = metrics["trace.run_s"] / metrics["trace.untraced_run_s"]
    metrics["trace.coverage"] = tracing.coverage(spans, own)
    return metrics, spans, per_op


def cell_split(spans: list[dict], own: dict) -> dict[str, dict[str, float]]:
    """Layer self-times under each executed plan cell of the first cold op."""
    first = min((s["op"] for s in spans
                 if s["op"] and s["op"].startswith("cold")), default=None)
    by_id = {s["id"]: s for s in spans}
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        if span["op"] != first:
            continue
        node = span
        while node is not None and node["name"] != "api.execute":
            node = by_id.get(node["parent"])
        if node is None:
            continue
        metric = tracing.LAYER_OF_SPAN.get(span["name"])
        if metric is None:
            continue
        table = out.setdefault(node["tag"], {})
        table[metric] = table.get(metric, 0.0) + own[span["id"]]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("REPRO_RRC_CACHE_DIR", None)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads as wm  # imports repro and numpy

    if args.workload not in wm.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(wm.WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - START
    OUT.mkdir(exist_ok=True)
    tmproot = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        workload = wm.WORKLOADS[args.workload](args.seed, args.scale, tmproot)
        workload.choose_inputs()  # input generation, outside set-up time
        lazy_start = time.perf_counter()
        workload.setup()
        setup_s = imports_s + time.perf_counter() - lazy_start
        setup_s *= REFERENCE_S / reference_loop()  # scaled like every timing
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return traced_run(args, wm, workload)
        return untraced_run(args, wm, workload, setup_s)
    finally:
        shutil.rmtree(tmproot, ignore_errors=True)


def untraced_run(args, wm, workload, setup_s: float) -> int:
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    run = Run(workload, wm)
    cold, queries, host_cold, host_queries = run.measure(
        args.seconds, min_cold=MIN_COLD_OPS, min_queries=wm.QUERIES)
    workload.cleanup()
    run_s = statistics.median(cold)
    q_ms = [t * 1000.0 for t in queries]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "sim_pkts_per_s": run.packets / run_s,
        "rss_mb": statistics.median(run.rss),
        "query_p50_ms": percentile(q_ms, 0.50),
        "query_p95_ms": percentile(q_ms, 0.95),
    }
    print(f"workload {args.workload} seed {args.seed}: {run.packets} simulated "
          f"packets per cold operation")
    print(f"samples: set-up {len(setups)}, cold operations {len(cold)}, "
          f"warm queries {len(queries)}")
    top = max_percentile(len(cold))
    print(f"run_s p{top}: {percentile(cold, top / 100):.4f} s; cold runs "
          + " ".join(f"{t:.3f}" for t in cold))
    print(f"unscaled host time: run_s {statistics.median(host_cold):.4f} s, "
          f"query p50 {percentile(host_queries, 0.5) * 1000:.4f} ms, "
          f"p95 {percentile(host_queries, 0.95) * 1000:.4f} ms; host speed "
          f"{statistics.median(cold) / statistics.median(host_cold):.3f} "
          f"of reference")
    return finish(args, run, {m.name: {"value": metrics[m.name], "unit": m.unit}
                              for m in registry.load().end_to_end})


def max_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (else 50)."""
    if samples < 20:
        return 50
    return int(100 * (samples - 10) / samples)


def traced_run(args, wm, workload) -> int:
    """Untraced and traced cold runs in turn, so host drift hits both alike."""
    run = Run(workload, wm)
    tracer = tracing.Tracer(workload.tmproot)
    untraced: list[float] = []
    traced: list[float] = []
    queries = 0
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < args.seconds:
        untraced.append(run.cold_op())
        tracing.install(tracer)
        try:
            traced.append(run.cold_op(tracer, f"cold-{len(traced):04d}"))
            for _ in range(wm.QUERY_BATCH):
                run.query_op(tracer, f"query-{queries:05d}")
                queries += 1
        finally:
            tracer.restore()
    metrics, spans, per_op = layer_metrics(tracer, wm, run, traced, untraced)
    workload.cleanup()
    own = tracing.self_times(spans)
    print_split("layer split of the first traced cold run",
                per_op[min(op for op in per_op if op.startswith("cold"))])
    for scheme, table in cell_split(spans, own).items():
        print_split(f"  plan cell {scheme}", table)
    print(f"trace: {len(spans)} span records, coverage "
          f"{metrics['trace.coverage']:.3f}, overhead {metrics['trace.overhead']:.3f}")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "spans": spans}), encoding="utf-8")
    print(f"spans written to {path.relative_to(ROOT)}")
    return finish(args, run, {m.name: {"value": metrics[m.name], "unit": m.unit}
                              for m in registry.load().per_layer})


def print_split(title: str, table: dict[str, float]) -> None:
    total = sum(table.values())
    parts = ", ".join(f"{k} {v:.3f}s ({v / total:.0%})"
                      for k, v in sorted(table.items(), key=lambda kv: -kv[1])
                      if v > 0)
    print(f"{title}: {parts}")


def finish(args, run: Run, metrics: dict) -> int:
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"failed_frac: {run.failed / max(run.attempted, 1):.6f} "
          f"({run.failed} of {run.attempted} operations)")
    if run.reference is not None:
        print(f"records digest (float.hex): {run.wm.digest(run.reference)}")
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
