#!/usr/bin/env python3
"""Benchmark regression gate: fresh throughput vs. the recorded floor.

Compares each gated section's freshly measured ``packets_per_sec``
(written to the gitignored ``.benchmarks/BENCH_engine.json`` by
``benchmarks/test_engine_throughput.py``) against the value of the same
key in the committed ``BENCH_engine.json`` — the recorded floor — and
fails when any fresh number drops below ``tolerance × floor``.  By
default every throughput section with a recorded floor is gated
(``single_1k``, ``sharded_100k``, ``metro_250k``, ``vector_1k``,
``learning_10k``); pass ``--section`` one or more times to gate a
subset.  This is what keeps future PRs from silently regressing the
kernel hot paths: the benchmark never writes the committed file, so CI
runs it and then this gate with the default paths.

The gate is tolerance-based and **skips cleanly** on constrained runners:
shared CI boxes jitter by tens of percent, so the default tolerance is
generous (anything slower than ~2.2x the floor trips it), machines with fewer than
``--min-cores`` usable cores skip (their numbers measure contention, not
the code), and ``REPRO_BENCH_GATE=skip`` force-skips.

One section is gated on *memory* instead of throughput: ``cell_1m``
records the resident set (``rss_now_mb``) of the million-device streamed
cell, and its fresh value must stay under the committed
``rss_ceiling_mb`` of the floor file.  Memory does not jitter with
core contention, so this check runs even below ``--min-cores``; like the
throughput sections it skips cleanly when the (opt-in,
``REPRO_BENCH_1M=1``) section is absent from the fresh run.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_engine_throughput.py -q
    python tools/check_bench_floor.py    # fresh numbers vs committed floors
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The committed floors, and where the benchmark writes fresh numbers.
FLOOR_PATH = REPO_ROOT / "BENCH_engine.json"
FRESH_PATH = REPO_ROOT / ".benchmarks" / "BENCH_engine.json"

#: Exit status meanings (documented for CI log readers).
OK, REGRESSION, BAD_INPUT = 0, 1, 2

SECTION = "single_1k"
#: Gated by default: every section recording a ``packets_per_sec``
#: throughput.  Sections without a recorded floor (or absent from the
#: fresh run) skip cleanly, so adding one here never blocks its first
#: commit.
DEFAULT_SECTIONS = (
    "single_1k", "sharded_100k", "metro_250k", "vector_1k", "learning_10k",
    "cell_1m",
)
KEY = "packets_per_sec"
#: The memory-gated section and its keys (see module docstring).
MEMORY_SECTION = "cell_1m"
MEMORY_KEY = "rss_now_mb"
MEMORY_CEILING_KEY = "rss_ceiling_mb"
#: Fallback ceiling when neither snapshot carries one (matches the
#: committed MILLION_RSS_CEILING_MB of the benchmark).
DEFAULT_RSS_CEILING_MB = 440.0
SKIP_ENV = "REPRO_BENCH_GATE"


def read_value(path: Path, section: str, key: str) -> float | None:
    """The recorded ``section.key`` number in ``path``, or None."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    value = data.get(section, {}).get(key) if isinstance(data, dict) else None
    if isinstance(value, (int, float)) and value > 0:
        return float(value)
    return None


def read_section(path: Path, section: str) -> float | None:
    """The recorded packets/sec of ``section`` in ``path``, or None."""
    return read_value(path, section, KEY)


def usable_cores() -> int:
    """Cores this process may schedule on (affinity/cgroup-aware).

    A CI runner cgroup-limited to one CPU of a big host must *skip* the
    gate (its numbers measure contention, not the code); ``os.cpu_count``
    would report the host and run it anyway.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def read_floor(path: Path) -> float | None:
    """The recorded packets/sec floor in ``path``, or None if absent."""
    return read_section(path, SECTION)


def evaluate(floor_pps: float, current_pps: float,
             tolerance: float) -> tuple[bool, str]:
    """Gate verdict: is ``current_pps`` acceptable against the floor?"""
    threshold = tolerance * floor_pps
    if current_pps >= threshold:
        return True, (
            f"ok: measured {current_pps:,.0f} pkt/s >= "
            f"{tolerance:.0%} of recorded floor {floor_pps:,.0f} pkt/s"
        )
    return False, (
        f"REGRESSION: measured {current_pps:,.0f} pkt/s < "
        f"{tolerance:.0%} of recorded floor {floor_pps:,.0f} pkt/s "
        f"(threshold {threshold:,.0f}); the kernel hot path got slower — "
        "fix the regression, or re-record the floor with an explicit "
        "justification in the commit message"
    )


def evaluate_memory(ceiling_mb: float, current_mb: float) -> tuple[bool, str]:
    """Gate verdict: does the fresh resident set stay under the ceiling?"""
    if current_mb <= ceiling_mb:
        return True, (
            f"ok: resident set {current_mb:,.1f} MB <= committed ceiling "
            f"{ceiling_mb:,.1f} MB"
        )
    return False, (
        f"REGRESSION: resident set {current_mb:,.1f} MB > committed "
        f"ceiling {ceiling_mb:,.1f} MB; the streamed million-device path "
        "started materialising more than the struct-of-arrays core "
        "should — fix the regression, or raise the recorded ceiling with "
        "an explicit justification in the commit message"
    )


def gate_memory(floor_path: Path, current_path: Path) -> int:
    """Run the ``cell_1m`` resident-set gate; returns OK or REGRESSION."""
    current = read_value(current_path, MEMORY_SECTION, MEMORY_KEY)
    if current is None:
        print(
            f"bench gate [{MEMORY_SECTION}]: skipped (no fresh "
            f"{MEMORY_SECTION}.{MEMORY_KEY} in {current_path}; the "
            "million-device section is opt-in via REPRO_BENCH_1M=1)"
        )
        return OK
    ceiling = (
        read_value(floor_path, MEMORY_SECTION, MEMORY_CEILING_KEY)
        or read_value(current_path, MEMORY_SECTION, MEMORY_CEILING_KEY)
        or DEFAULT_RSS_CEILING_MB
    )
    ok, message = evaluate_memory(ceiling, current)
    print(f"bench gate [{MEMORY_SECTION}]: {message}")
    return OK if ok else REGRESSION


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--floor", type=Path, default=FLOOR_PATH,
        help="BENCH_engine.json holding the recorded floors (default: the "
             "committed file at the repo root)",
    )
    parser.add_argument(
        "--current", type=Path, default=FRESH_PATH,
        help="freshly written BENCH_engine.json (default: "
             ".benchmarks/BENCH_engine.json, where the benchmark writes)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.45,
        help="fraction of the floor the fresh measurement must reach "
             "(default 0.45: forgiving of shared-runner jitter; trips on "
             "anything slower than ~2.2x the recorded floor)",
    )
    parser.add_argument(
        "--min-cores", type=int, default=2,
        help="skip cleanly below this many usable cores (default 2)",
    )
    parser.add_argument(
        "--section", action="append", dest="sections", default=None,
        help="BENCH_engine.json section to gate; repeatable (default: "
             f"{', '.join(DEFAULT_SECTIONS)}).  Sections missing a "
             "recorded floor or missing from the fresh run skip cleanly, "
             "so gated sections can be benchmarked selectively per runner",
    )
    args = parser.parse_args(argv)

    if os.environ.get(SKIP_ENV, "").lower() == "skip":
        print(f"bench gate: skipped ({SKIP_ENV}=skip)")
        return OK
    if not 0 < args.tolerance <= 1:
        print(f"bench gate: --tolerance must be in (0, 1], got {args.tolerance}")
        return BAD_INPUT

    cores = usable_cores()
    sections = tuple(args.sections) if args.sections else DEFAULT_SECTIONS
    status = OK
    for section in sections:
        if section == MEMORY_SECTION:
            # Memory-gated: resident set does not jitter with core
            # contention, so this runs even below --min-cores.
            status = max(status, gate_memory(args.floor, args.current))
            continue
        if cores < args.min_cores:
            print(
                f"bench gate [{section}]: skipped ({cores} usable "
                f"core(s) < --min-cores {args.min_cores}; this machine "
                "measures contention, not the code)"
            )
            continue
        floor = read_section(args.floor, section)
        if floor is None:
            print(
                f"bench gate [{section}]: skipped (no recorded "
                f"{section}.{KEY} floor in {args.floor})"
            )
            continue
        current = read_section(args.current, section)
        if current is None:
            # A fresh run may legitimately omit a gated section (e.g. a
            # heavy metro benchmark not exercised on this runner, or a new
            # section landing before CI benchmarks it): skip cleanly
            # rather than failing, so gate ordering never blocks a
            # section's first commit.
            print(
                f"bench gate [{section}]: skipped (no fresh "
                f"{section}.{KEY} in {args.current}; section not "
                "benchmarked in this run)"
            )
            continue
        ok, message = evaluate(floor, current, args.tolerance)
        print(f"bench gate [{section}]: {message}")
        if not ok:
            status = REGRESSION
    return status


if __name__ == "__main__":
    sys.exit(main())
