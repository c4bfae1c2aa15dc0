"""Unit tests for the benchmark regression gate (tools/check_bench_floor.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_bench_floor.py"
_spec = importlib.util.spec_from_file_location("check_bench_floor", _TOOL)
gate = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_floor", gate)
_spec.loader.exec_module(gate)


def _bench_file(tmp_path: Path, name: str, pps: float | None,
                section: str = "single_1k") -> Path:
    path = tmp_path / name
    payload = {"cpu_count": 4}
    if pps is not None:
        payload[section] = {"packets_per_sec": pps}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _memory_file(tmp_path: Path, name: str, rss: float,
                 ceiling: float) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps({
        "cell_1m": {"rss_now_mb": rss, "rss_ceiling_mb": ceiling},
    }), encoding="utf-8")
    return path


class TestEvaluate:
    def test_passes_at_and_above_threshold(self):
        ok, message = gate.evaluate(60_000.0, 27_000.0, tolerance=0.45)
        assert ok and "ok:" in message
        ok, _ = gate.evaluate(60_000.0, 120_000.0, tolerance=0.45)
        assert ok

    def test_fails_below_threshold(self):
        ok, message = gate.evaluate(60_000.0, 20_000.0, tolerance=0.45)
        assert not ok
        assert "REGRESSION" in message


class TestMain:
    def test_regression_exits_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _bench_file(tmp_path, "floor.json", 60_000.0)
        current = _bench_file(tmp_path, "current.json", 10_000.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
        ]) == gate.REGRESSION

    def test_healthy_measurement_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _bench_file(tmp_path, "floor.json", 60_000.0)
        current = _bench_file(tmp_path, "current.json", 58_000.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
        ]) == gate.OK

    def test_skips_cleanly_on_constrained_runner(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 1)
        floor = _bench_file(tmp_path, "floor.json", 60_000.0)
        current = _bench_file(tmp_path, "current.json", 1_000.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
        ]) == gate.OK

    def test_skips_cleanly_via_environment(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        monkeypatch.setenv(gate.SKIP_ENV, "skip")
        floor = _bench_file(tmp_path, "floor.json", 60_000.0)
        current = _bench_file(tmp_path, "current.json", 1_000.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
        ]) == gate.OK

    def test_missing_floor_or_current_skips_cleanly(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        no_floor = _bench_file(tmp_path, "floor.json", None)
        current = _bench_file(tmp_path, "current.json", 50_000.0)
        assert gate.main([
            "--floor", str(no_floor), "--current", str(current),
        ]) == gate.OK
        # A gated section absent from the fresh run skips cleanly too —
        # a heavy section may legitimately not be benchmarked on every
        # runner, and gate ordering must not block its first commit.
        floor = _bench_file(tmp_path, "floor2.json", 60_000.0)
        no_current = _bench_file(tmp_path, "current2.json", None)
        assert gate.main([
            "--floor", str(floor), "--current", str(no_current),
        ]) == gate.OK

    def test_section_flag_gates_other_sections(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _bench_file(tmp_path, "floor.json", 60_000.0,
                            section="metro_250k")
        slow = _bench_file(tmp_path, "current.json", 10_000.0,
                           section="metro_250k")
        assert gate.main([
            "--floor", str(floor), "--current", str(slow),
            "--section", "metro_250k",
        ]) == gate.REGRESSION
        # Under an explicit section with no data: clean skip.
        assert gate.main([
            "--floor", str(floor), "--current", str(slow),
            "--section", "single_1k",
        ]) == gate.OK

    def test_default_gates_every_throughput_section(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        assert "metro_250k" in gate.DEFAULT_SECTIONS
        assert "sharded_100k" in gate.DEFAULT_SECTIONS
        assert "vector_1k" in gate.DEFAULT_SECTIONS
        # A regression in any default section trips the gate even when
        # the others are healthy.
        floor = tmp_path / "floor.json"
        floor.write_text(json.dumps({
            section: {"packets_per_sec": 60_000.0}
            for section in gate.DEFAULT_SECTIONS
        }), encoding="utf-8")
        current_payload = {
            section: {"packets_per_sec": 59_000.0}
            for section in gate.DEFAULT_SECTIONS
        }
        current_payload["metro_250k"] = {"packets_per_sec": 10_000.0}
        current = tmp_path / "current.json"
        current.write_text(json.dumps(current_payload), encoding="utf-8")
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
        ]) == gate.REGRESSION
        # All healthy: passes.
        current.write_text(json.dumps({
            section: {"packets_per_sec": 59_000.0}
            for section in gate.DEFAULT_SECTIONS
        }), encoding="utf-8")
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
        ]) == gate.OK

    def test_repeated_section_flags_gate_a_subset(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = tmp_path / "floor.json"
        floor.write_text(json.dumps({
            "single_1k": {"packets_per_sec": 60_000.0},
            "metro_250k": {"packets_per_sec": 60_000.0},
        }), encoding="utf-8")
        current = tmp_path / "current.json"
        current.write_text(json.dumps({
            "single_1k": {"packets_per_sec": 59_000.0},
            "metro_250k": {"packets_per_sec": 10_000.0},
        }), encoding="utf-8")
        # Only the healthy section requested: passes.
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
            "--section", "single_1k",
        ]) == gate.OK
        # Both requested: the regressed one trips it.
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
            "--section", "single_1k", "--section", "metro_250k",
        ]) == gate.REGRESSION

    def test_memory_regression_trips_the_gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _memory_file(tmp_path, "floor.json", rss=390.0, ceiling=440.0)
        bloated = _memory_file(tmp_path, "current.json", rss=612.0,
                               ceiling=440.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(bloated),
            "--section", "cell_1m",
        ]) == gate.REGRESSION

    def test_memory_within_ceiling_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _memory_file(tmp_path, "floor.json", rss=390.0, ceiling=440.0)
        current = _memory_file(tmp_path, "current.json", rss=410.0,
                               ceiling=440.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(current),
            "--section", "cell_1m",
        ]) == gate.OK

    def test_memory_section_absent_from_fresh_run_skips(self, tmp_path,
                                                        monkeypatch):
        # cell_1m is opt-in (REPRO_BENCH_1M=1); a run without it must not
        # trip the gate.
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _memory_file(tmp_path, "floor.json", rss=390.0, ceiling=440.0)
        no_current = _bench_file(tmp_path, "current.json", 50_000.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(no_current),
            "--section", "cell_1m",
        ]) == gate.OK

    def test_committed_ceiling_wins_over_fresh_one(self, tmp_path,
                                                   monkeypatch):
        # A PR cannot dodge the gate by shipping a looser ceiling in the
        # fresh file: the floor snapshot's ceiling binds.
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _memory_file(tmp_path, "floor.json", rss=390.0, ceiling=440.0)
        dodger = _memory_file(tmp_path, "current.json", rss=612.0,
                              ceiling=9_999.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(dodger),
            "--section", "cell_1m",
        ]) == gate.REGRESSION

    def test_memory_gate_runs_even_on_constrained_runners(self, tmp_path,
                                                          monkeypatch):
        # Resident set does not jitter with core contention, so unlike
        # the throughput sections the memory gate binds below --min-cores.
        monkeypatch.setattr(gate, "usable_cores", lambda: 1)
        floor = _memory_file(tmp_path, "floor.json", rss=390.0, ceiling=440.0)
        bloated = _memory_file(tmp_path, "current.json", rss=612.0,
                               ceiling=440.0)
        assert gate.main([
            "--floor", str(floor), "--current", str(bloated),
        ]) == gate.REGRESSION

    def test_defaults_gate_fresh_numbers_against_committed_floors(
            self, tmp_path, monkeypatch):
        """With no paths given, the gate reads the floors from the
        committed file and the fresh numbers from where the benchmark
        writes them — so a benchmark run never touches the floors."""
        assert gate.FLOOR_PATH == gate.REPO_ROOT / "BENCH_engine.json"
        assert gate.FRESH_PATH == (gate.REPO_ROOT / ".benchmarks"
                                   / "BENCH_engine.json")
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        monkeypatch.setattr(gate, "FLOOR_PATH",
                            _bench_file(tmp_path, "floor.json", 60_000.0))
        monkeypatch.setattr(gate, "FRESH_PATH",
                            _bench_file(tmp_path, "fresh.json", 10_000.0))
        assert gate.main([]) == gate.REGRESSION
        monkeypatch.setattr(gate, "FRESH_PATH",
                            _bench_file(tmp_path, "fresh.json", 58_000.0))
        assert gate.main([]) == gate.OK

    def test_fresh_numbers_are_gitignored(self):
        ignored = (gate.REPO_ROOT / ".gitignore").read_text(
            encoding="utf-8").split()
        assert ".benchmarks/" in ignored

    def test_bad_tolerance_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "usable_cores", lambda: 8)
        floor = _bench_file(tmp_path, "floor.json", 60_000.0)
        with pytest.raises(SystemExit):
            gate.main(["--floor", str(floor), "--tolerance", "not-a-number"])
        assert gate.main([
            "--floor", str(floor), "--tolerance", "1.5",
        ]) == gate.BAD_INPUT
