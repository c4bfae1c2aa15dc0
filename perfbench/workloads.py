"""The benchmark's three workloads, their output checks and their metrics.

Each workload is one plan run by one closed-loop client:

* a *cold* operation executes the plan from an empty cache and is what
  ``run_s`` times;
* a *warm query* repeats the same plan from a fresh runner over a disk
  cache that already holds the results, then flattens them with
  ``to_records()``; ``query_p50_ms``/``query_p95_ms`` time it.

Every operation's outputs are checked (see :func:`check_cold` and
:func:`check_query`); a failed check counts the operation as failed, it
never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

from repro.api import ProcessPoolRunner, SerialRunner, cell, plan
from repro.api.cache import DiskCacheTier, ResultCache
from repro.api.cells import CellSpec
from repro.api.metro import metro
from repro.api.spec import PolicySpec
from repro.core.makeidle import DEFAULT_WINDOW_SIZE
from repro.metro.execution import MetroResult
from repro.rrc.profiles import get_profile
from repro.rrc.tables import transition_table

CARRIER = "att_hspa"
PAPER_POLICIES = ("status_quo", "fixed_4.5s", "makeidle",
                  "makeidle+makeactive_learn")
#: Columns recording *how* a run executed, not what it computed.
BOOKKEEPING = ("from_cache", "pool_jobs", "pool_clamped")
#: Warm queries per run: p95 then has 10 samples beyond it.
QUERIES = 200
#: Warm queries after each cold run.
QUERY_BATCH = 40
#: Candidate population seeds tried per ``--seed`` (see pick_population_seed).
SEED_CANDIDATES = 64

#: Sizes per scale.  ``tiny`` is for the self-tests only.
SIZES = {
    "paper_sweep": {
        # target: (packets, MakeIdle window samples), the medians of the
        # candidate populations.
        "full": {"devices": 50, "duration": 900.0,
                 "target": (3440, 197_000)},
        "tiny": {"devices": 6, "duration": 120.0},
    },
    "cell_sparse": {
        "full": {"devices": 20_000, "duration": 60.0, "shards": 4, "jobs": 2},
        "tiny": {"devices": 400, "duration": 60.0, "shards": 4, "jobs": 2},
    },
    "metro_handover": {
        "full": {"devices": 12_500, "duration": 60.0, "shards": 2},
        "tiny": {"devices": 300, "duration": 60.0, "shards": 2},
    },
}


def population_size(spec: CellSpec, window: int) -> tuple[int, int]:
    """``(packets, window samples)`` of the population's sources, unsimulated.

    MakeIdle evaluates its whole window (up to ``window`` gaps) after
    every packet, so a device's ``k``-th packet costs ``min(k - 1, window)``
    sample evaluations; the sum over devices is the population's MakeIdle
    work.
    """
    packets = samples = 0
    for device in spec.build_devices(PolicySpec(scheme="status_quo")):
        n = sum(1 for _ in device.trace)
        packets += n
        capped = min(n, window + 1)
        samples += capped * (capped - 1) // 2 + (n - capped) * window
    return packets, samples


def pick_population_seed(seed: int, size: dict) -> int:
    """The first candidate population of ``seed`` within 3% of the target size.

    An ``office_day`` population's packet count and MakeIdle work vary by
    10-15% between seeds (heavy-streamer sessions dominate both), and
    they set the cost of the plan.  Fixing the input size keeps ``run_s``
    comparable across seeds while the traffic itself still changes with
    the seed.
    """
    base = seed * SEED_CANDIDATES
    target = size.get("target")
    if target is None:
        return base
    best, best_gap = base, math.inf
    for candidate in range(base, base + SEED_CANDIDATES):
        spec = cell(devices=size["devices"], scenario="office_day",
                    duration=size["duration"], seed=candidate)
        gap = max(abs(got - want) / want for got, want in
                  zip(population_size(spec, DEFAULT_WINDOW_SIZE), target))
        if gap <= 0.03:
            return candidate
        if gap < best_gap:
            best, best_gap = candidate, gap
    return best


class Workload:
    """One plan, its cold runner and its warm-query cache directory."""

    name = ""

    def __init__(self, seed: int, scale: str, tmproot: Path) -> None:
        self.seed = seed
        self.size = SIZES[self.name][scale]
        self.tmproot = Path(tmproot)
        self.query_dir: Path | None = None
        self.plan = None

    # -- set-up ------------------------------------------------------------------------

    def choose_inputs(self) -> None:
        """Derive this run's inputs from the seed (not part of set-up time)."""

    def build_plan(self, size: dict):
        raise NotImplementedError

    def setup(self) -> None:
        """Plan build, lazy tables and one warm-up of the same plan shape."""
        transition_table(get_profile(CARRIER))
        self.plan = self.build_plan(self.size)
        self.plan.build()
        warm = self.build_plan(self.warmup_size())
        with tempfile.TemporaryDirectory(dir=self.tmproot) as tmp:
            SerialRunner(cache=ResultCache(disk=DiskCacheTier(tmp))).run(warm)
            SerialRunner(
                cache=ResultCache(disk=DiskCacheTier(tmp))
            ).run(warm).to_records()

    def warmup_size(self) -> dict:
        return dict(self.size, devices=min(self.size["devices"], 20),
                    duration=min(self.size["duration"], 60.0), shards=1)

    # -- operations ----------------------------------------------------------------------

    def cold_runner(self):
        return SerialRunner()

    def before_cold(self) -> None:
        """Untimed preparation right before each cold operation."""

    def cold(self):
        """The timed cold operation: run the plan from an empty cache."""
        return self.cold_runner().run(self.plan)

    def publish(self, runs) -> None:
        """Make ``runs`` the results warm queries are served from."""
        self.cleanup()
        self.query_dir = Path(tempfile.mkdtemp(prefix="query-",
                                               dir=self.tmproot))
        cache = ResultCache(disk=DiskCacheTier(self.query_dir))
        for record in runs.records:
            cache.put(record.spec.cache_key, record.result)

    def query(self):
        """The timed warm query: fresh runner, same plan, then records."""
        runs = SerialRunner(
            cache=ResultCache(disk=DiskCacheTier(self.query_dir))
        ).run(self.plan)
        return runs, runs.to_records()

    def check(self, runs) -> list[str]:
        """Workload-specific checks on a cold operation's results."""
        return []

    def cleanup(self) -> None:
        if self.query_dir is not None:
            shutil.rmtree(self.query_dir, ignore_errors=True)


class PaperSweep(Workload):
    """The paper's evaluation: four policies on one office_day population."""

    name = "paper_sweep"

    def choose_inputs(self) -> None:
        self.population_seed = pick_population_seed(self.seed, self.size)

    def build_plan(self, size: dict):
        return (plan()
                .cells(cell(devices=size["devices"], scenario="office_day",
                            duration=size["duration"],
                            seed=self.population_seed))
                .carriers(CARRIER)
                .policies(*PAPER_POLICIES))

    def before_cold(self) -> None:
        # A fresh persistent tier per operation: the cold phase pays the
        # stores, and the last one becomes the warm phase's directory.
        self.cleanup()
        self.query_dir = Path(tempfile.mkdtemp(prefix="sweep-",
                                               dir=self.tmproot))

    def cold(self):
        return SerialRunner(
            cache=ResultCache(disk=DiskCacheTier(self.query_dir))
        ).run(self.plan)

    def publish(self, runs) -> None:
        pass  # the last cold operation's directory already holds them


class CellSparse(Workload):
    """A sparse im/email cell on the vector kernel, sharded over a pool."""

    name = "cell_sparse"

    def build_plan(self, size: dict):
        return (plan()
                .cells(cell(devices=size["devices"], apps=("im", "email"),
                            duration=size["duration"], seed=self.seed,
                            chunk_s=60.0, engine="vector"))
                .carriers(CARRIER)
                .policies("fixed_4.5s")
                .shards(size["shards"]))

    def cold_runner(self):
        return ProcessPoolRunner(jobs=self.size["jobs"])

    def check(self, runs) -> list[str]:
        problems = []
        for record in runs.records:
            result = record.result
            if result.vector_devices != len(result.devices):
                problems.append(
                    f"vector_devices {result.vector_devices} != devices "
                    f"{len(result.devices)}"
                )
        return problems


class MetroHandover(Workload):
    """The four-cell shuffle metro: handovers and arbitrating stations."""

    name = "metro_handover"

    def build_plan(self, size: dict):
        return (plan()
                .metros(metro("metro_4cell", devices=size["devices"],
                              duration=size["duration"], chunk_s=60.0,
                              seed=self.seed))
                .carriers(CARRIER)
                .policies("fixed_4.5s")
                .shards(size["shards"]))

    def check(self, runs) -> list[str]:
        problems = []
        for record in runs.records:
            result = record.result
            visits = sum(entry.visits for entry in result.cells)
            if result.handovers != visits - result.devices:
                problems.append(
                    f"handovers {result.handovers} != visits {visits} - "
                    f"population {result.devices}"
                )
        return problems


WORKLOADS = {w.name: w for w in (PaperSweep, CellSparse, MetroHandover)}


# -- output checks ---------------------------------------------------------------------

def _tiles(covered: float, horizon: float) -> bool:
    return math.isclose(covered, horizon, rel_tol=1e-9, abs_tol=1e-6)


def tiling_problems(result) -> list[str]:
    """Per-device (per-UE for metros) state times must tile the horizon."""
    if isinstance(result, MetroResult):
        per_ue: dict[int, float] = {}
        for entry in result.cells:
            for device in entry.result.devices:
                b = device.breakdown
                ue = result.ue_index(device.device_id)
                per_ue[ue] = per_ue.get(ue, 0.0) + (
                    b.active_time_s + b.high_idle_time_s + b.idle_time_s
                )
        bad = [ue for ue, covered in per_ue.items()
               if not _tiles(covered, result.duration_s)]
        if len(per_ue) != result.devices:
            bad.append(-1)
    else:
        bad = []
        for device in result.devices:
            b = device.breakdown
            if not _tiles(b.active_time_s + b.high_idle_time_s
                          + b.idle_time_s, result.duration_s):
                bad.append(device.device_id)
    return [f"{len(bad)} devices do not tile the horizon"] if bad else []


def stripped(records: list[dict]) -> list[dict]:
    """Records without the execution-bookkeeping columns."""
    return [{k: v for k, v in row.items() if k not in BOOKKEEPING}
            for row in records]


def _hexed(value):
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {str(k): _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def canonical(records: list[dict]) -> str:
    """Byte-exact form of records: floats as ``float.hex``, keys sorted."""
    return json.dumps(_hexed(stripped(records)), sort_keys=True)


def digest(canonical_records: str) -> str:
    """Short digest of :func:`canonical` records (information only)."""
    return hashlib.sha256(canonical_records.encode("utf-8")).hexdigest()[:16]


def check_cold(workload: Workload, runs, expected_runs: int) -> list[str]:
    """Checks on one cold operation; returns the problems found."""
    problems = []
    if len(runs.records) != expected_runs:
        problems.append(f"{len(runs.records)} records, expected {expected_runs}")
    for record in runs.records:
        problems.extend(tiling_problems(record.result))
    return problems + workload.check(runs)


def check_query(runs, records: list[dict], reference: str,
                expected_runs: int) -> list[str]:
    """Checks on one warm query: every run served from disk, same bytes."""
    problems = []
    stats = runs.cache_stats
    if stats.misses or stats.disk_hits != expected_runs:
        problems.append(f"cache not warm: {stats!r}")
    if len(records) != expected_runs:
        problems.append(f"{len(records)} records, expected {expected_runs}")
    if canonical(records) != reference:
        problems.append("warm records differ from the cold records")
    return problems


# -- result-derived counts ----------------------------------------------------------------

def cell_results(runs):
    """Every :class:`CellResult` of a run set (metro cells included)."""
    for record in runs.records:
        result = record.result
        if isinstance(result, MetroResult):
            for entry in result.cells:
                yield entry.result
        else:
            yield result


def result_counts(runs) -> dict[str, float]:
    """Per-operation counts read from the results themselves."""
    devices = vector = switches = iterations = 0
    requests = denied = handovers = visits = 0
    for result in cell_results(runs):
        devices += len(result.devices)
        vector += result.vector_devices
        switches += result.total_switches
        iterations += result.learning_summary()["learn_iterations"]
        requests += result.dormancy_requests
        denied += result.dormancy_denied
    for record in runs.records:
        if isinstance(record.result, MetroResult):
            handovers += record.result.handovers
            visits += sum(entry.visits for entry in record.result.cells)
    return {
        "sim.vector_ratio": vector / devices if devices else 0.0,
        "rrc.switches": switches,
        "learning.iterations": iterations,
        "basestation.dormancy_requests": requests,
        "basestation.denial_ratio": denied / requests if requests else 0.0,
        "metro.handovers": handovers,
        "metro.visits": visits,
    }


def total_packets(runs) -> int:
    return sum(record.result.total_packets for record in runs.records)


def disk_bytes(directory: Path | None) -> int:
    if directory is None:
        return 0
    return sum(path.stat().st_size for path in Path(directory).glob("*.pkl"))
