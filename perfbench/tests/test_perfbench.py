"""Self-tests of the benchmark harness (tiny inputs, a few seconds each).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import registry  # noqa: E402
import tracing  # noqa: E402

REGISTRY = registry.load()
WORKLOAD_NAMES = [w.name for w in REGISTRY.workloads]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines()
                if line.startswith("records digest"))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    results = {}
    for trace, metrics in ((0, REGISTRY.end_to_end), (1, REGISTRY.per_layer)):
        done = bench(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in metrics]
        for metric in metrics:
            assert result["metrics"][metric.name]["unit"] == metric.unit
            assert f"{metric.name}: " in done.stdout
        results[trace] = done.stdout
    # Tracing must not change what the program computes.
    assert digest_line(results[0]) == digest_line(results[1])


def traced_coverage(workload: str, tmp_path: Path, skip=()) -> float:
    import run as bench_run
    import workloads

    w = workloads.WORKLOADS[workload](3, "tiny", tmp_path)
    w.choose_inputs()
    w.setup()
    tracer = tracing.Tracer(tmp_path, skip=skip)
    tracing.install(tracer)
    try:
        bench_run.Run(w, workloads).cold_op(tracer, "cold-0000")
    finally:
        tracer.restore()
        w.cleanup()
    spans = tracer.all_spans()
    return tracing.coverage(spans, tracing.self_times(spans))


def test_coverage_drops_when_a_layer_goes_unwrapped(tmp_path):
    assert traced_coverage("metro_handover", tmp_path) >= 0.9
    # Without their spans the shard work lands in the runner's self time.
    unwrapped = ("metro.cell_shard", "sim.run_shard")
    assert traced_coverage("metro_handover", tmp_path, unwrapped) < 0.9


def test_coverage_counts_runner_self_time_as_unaccounted():
    def span(sid, name, parent, start, end):
        return {"id": sid, "name": name, "parent": parent, "op": "cold-0000",
                "start": start, "end": end}

    base = [span("r", "bench.cold", None, 0.0, 10.0),
            span("x", "api.execute", "r", 0.0, 10.0)]
    layered = base + [span("k", "sim.run_shard", "x", 0.0, 9.5)]
    assert tracing.coverage(layered, tracing.self_times(layered)) == \
        pytest.approx(0.95)
    assert tracing.coverage(base, tracing.self_times(base)) == 0.0


def test_traced_layers_cover_the_run():
    done = bench("paper_sweep", 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["core.decisions"]["value"] > 0
    assert metrics["api.disk_bytes"]["value"] > 0


def test_registry_extends_every_benchmark_json_name():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert WORKLOAD_NAMES == [w["name"] for w in doc["workloads"]]
    assert all(w.loop and w.seed for w in REGISTRY.workloads)
    metrics = REGISTRY.end_to_end + REGISTRY.per_layer
    assert [m.name for m in metrics] == [
        m["name"] for key in ("end_to_end", "per_layer") for m in doc[key]]
    assert all(m.layer and m.moves for m in metrics)
    with pytest.raises(ValueError, match="missing"):
        registry._check_names("metrics", ["new_metric"], {})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("paper_sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture
def tiny_run(tmp_path):
    import run as bench_run
    import workloads

    workload = workloads.PaperSweep(3, "tiny", tmp_path)
    workload.choose_inputs()
    workload.setup()
    run = bench_run.Run(workload, workloads)
    run.cold_op()
    assert run.failed == 0
    yield run
    workload.cleanup()


def test_tampered_cache_file_is_a_failed_operation(tiny_run):
    for path in tiny_run.w.query_dir.glob("*.pkl"):
        path.write_bytes(b"not a pickle")
    for _ in range(3):
        tiny_run.query_op()
    # The first query re-simulates (a miss) and heals the cache.
    assert (tiny_run.attempted, tiny_run.failed) == (4, 1)
    assert any("cache not warm" in p for p in tiny_run.problems)


def test_mutated_record_is_a_failed_operation(tiny_run, monkeypatch):
    query = tiny_run.w.query

    def mutated():
        runs, records = query()
        records[0]["energy_j"] += 1e-9
        return runs, records

    monkeypatch.setattr(tiny_run.w, "query", mutated)
    for _ in range(3):
        tiny_run.query_op()
    assert (tiny_run.attempted, tiny_run.failed) == (4, 3)
    assert any("differ" in p for p in tiny_run.problems)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "r", "parent": None, "start": 0.0, "end": 10.0},
        # Two concurrent children covering [1, 6]: 5 s, not 7 s.
        {"id": "a", "parent": "r", "start": 1.0, "end": 5.0},
        {"id": "b", "parent": "r", "start": 2.0, "end": 6.0},
        {"id": "a/h", "parent": "a", "start": 1.0, "end": 5.0,
         "calls": 3, "busy": 1.5, "count": 3},
    ]
    own = tracing.self_times(spans)
    assert own["r"] == pytest.approx(5.0)
    assert own["a"] == pytest.approx(2.5)
    assert own["b"] == pytest.approx(4.0)
    assert own["a/h"] == pytest.approx(1.5)
