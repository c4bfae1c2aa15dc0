"""Canonical golden-record builders for the regression suite.

A *golden record* pins one canonical simulation down to the last float:
the builders here rerun a small, fixed grid of single-UE and cell-scale
simulations and flatten every number that matters — per-run energy
breakdowns, switch counts, delays, per-device and per-cohort cell records
— into a deterministic, JSON-able payload.  ``tools/refresh_golden.py``
writes those payloads to ``tests/golden/*.json`` and
``tests/integration/test_golden.py`` re-derives them on every run and
compares the rendered JSON **byte for byte**, so any change that moves a
seed-equivalent result — an accidental float reordering, a changed seed
derivation, a refactor that silently drifts the kernel — fails loudly
instead of shipping.

Keeping the builders in the library (rather than in the test) means the
refresh tool and the test cannot disagree about what "the canonical runs"
are.  Floats are serialised through :func:`json.dumps`, whose ``repr``-
based float formatting is shortest-round-trip exact in Python 3 — byte
equality of the rendered text is float equality of every value.

The grids are deliberately small (seconds of runtime) but cross every
layer: two applications × two carriers × four schemes for the single-UE
suite; homogeneous cells under two dormancy policies; scenario cells
(heterogeneous cohorts, diurnal shaping, mixed policies) for the scenario
suite; and small metros (shuffle and commuter mobility) pinning the
handover layer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

__all__ = [
    "GOLDEN_BUILDERS",
    "build_golden",
    "render_golden",
]

#: The fixed single-UE grid: small enough to run in seconds, wide enough
#: to cross both RRC machine shapes (3-state HSPA, 2-state LTE), the
#: baseline, a fixed timer, MakeIdle and the MakeIdle+MakeActive combo.
_SINGLE_APPS = ("email", "im")
_SINGLE_CARRIERS = ("att_hspa", "verizon_lte")
_SINGLE_SCHEMES = (
    "status_quo",
    "fixed_4.5s",
    "makeidle",
    "makeidle+makeactive_learn",
)
_SINGLE_DURATION_S = 600.0
_SINGLE_SEED = 0

_CELL_DEVICES = 8
_CELL_DURATION_S = 400.0
_SCENARIO_DEVICES = 9


def _single_ue_records() -> list[dict[str, Any]]:
    """The canonical single-UE grid, flattened."""
    from ..api.spec import PolicySpec, RunSpec, TraceSpec, execute

    records: list[dict[str, Any]] = []
    for app in _SINGLE_APPS:
        for carrier in _SINGLE_CARRIERS:
            for scheme in _SINGLE_SCHEMES:
                spec = RunSpec(
                    trace=TraceSpec(kind="application", name=app,
                                    duration_s=_SINGLE_DURATION_S,
                                    seed=_SINGLE_SEED),
                    carrier=carrier,
                    policy=PolicySpec(scheme=scheme).resolved(100),
                )
                result = execute(spec)
                records.append({
                    "trace": app,
                    "carrier": carrier,
                    "scheme": scheme,
                    "breakdown": result.breakdown.as_dict(),
                    "switch_count": result.switch_count,
                    "promotion_count": result.promotion_count,
                    "effective_packets": len(result.effective_trace),
                    "delayed_sessions": len(result.delays),
                    "mean_delay_s": result.mean_delay,
                    "median_delay_s": result.median_delay,
                })
    return records


def _device_record(device) -> dict[str, Any]:
    """Flatten one cell device's result."""
    record = {
        "device_id": device.device_id,
        "policy": device.policy_name,
        "breakdown": device.breakdown.as_dict(),
        "packets": device.packets,
        "dormancy_requests": device.dormancy_requests,
        "dormancy_granted": device.dormancy_granted,
        "dormancy_denied": device.dormancy_denied,
        "delayed_sessions": device.delayed_sessions,
        "total_session_delay_s": device.total_session_delay_s,
    }
    if device.cohort:
        record["cohort"] = device.cohort
    return record


def _cell_record(spec) -> dict[str, Any]:
    """Run one cell spec and flatten its aggregate + per-device results."""
    from ..api.cells import execute_cell

    result = execute_cell(spec)
    record = {
        "cell": spec.cell.label,
        "carrier": spec.carrier,
        "scheme": spec.policy.scheme,
        "dormancy": spec.dormancy.label,
        "duration_s": result.duration_s,
        "total_energy_j": result.total_energy_j,
        "total_switches": result.total_switches,
        "rrc_messages": result.signaling.messages,
        "dormancy_requests": result.dormancy_requests,
        "dormancy_denied": result.dormancy_denied,
        "peak_active_devices": result.peak_active_devices,
        "peak_switches_per_minute": result.peak_switches_per_minute,
        "devices": [_device_record(device) for device in result.devices],
    }
    cohorts = result.cohorts()
    if cohorts:
        record["cohorts"] = {
            label: breakdown.as_dict()
            for label, breakdown in result.cohort_breakdown().items()
        }
    return record


def _small_cell_records() -> list[dict[str, Any]]:
    """Canonical homogeneous cells: two schemes × two dormancy policies."""
    from ..api.cells import CellRunSpec, DormancySpec, cell

    population = cell(
        devices=_CELL_DEVICES, apps=("im", "email", "news"),
        duration=_CELL_DURATION_S,
    )
    from ..api.spec import PolicySpec

    records = []
    for scheme in ("status_quo", "makeidle"):
        for dormancy in (DormancySpec(), DormancySpec("rate_limited", 10.0)):
            records.append(_cell_record(CellRunSpec(
                cell=population,
                carrier="att_hspa",
                policy=PolicySpec(scheme=scheme).resolved(100),
                dormancy=dormancy,
            )))
    return records


def _scenario_cell_records() -> list[dict[str, Any]]:
    """Canonical scenario cells: shaped heterogeneous + mixed-policy runs."""
    from ..api.cells import CellRunSpec, DormancySpec, cell
    from ..api.spec import PolicySpec

    records = []
    for scenario in ("office_day", "mixed_policy"):
        for scheme in ("status_quo", "makeidle"):
            records.append(_cell_record(CellRunSpec(
                cell=cell(devices=_SCENARIO_DEVICES, scenario=scenario,
                          duration=_CELL_DURATION_S),
                carrier="att_hspa",
                policy=PolicySpec(scheme=scheme).resolved(100),
                dormancy=DormancySpec(),
            )))
    return records


_HOT_PATH_DEVICES = 1000
_HOT_PATH_SCENARIO_DEVICES = 300
_HOT_PATH_DURATION_S = 120.0
_HOT_PATH_CHUNK_S = 60.0


def _hex(value: float) -> str:
    """Exact (lossless) float serialisation for digest material."""
    return float(value).hex()


def _hot_path_records() -> list[dict[str, Any]]:
    """Digest-pinned kernel-scale cells: 1k homogeneous + scenario.

    These are the throughput-benchmark shapes (streamed 1k-device cell,
    chunked generation) at a scale where full per-device JSON would be
    megabytes.  Every per-device record is folded into one sha256 digest
    over a canonical ``float.hex`` serialisation instead — ``float.hex``
    is lossless, so digest equality is float equality of every per-device
    value, and the hot-path kernel rewrite is held byte-identical at the
    scale it is benchmarked at.
    """
    from ..api.cells import CellRunSpec, DormancySpec, cell, execute_cell
    from ..api.spec import PolicySpec

    grid = (
        (
            "streamed_1k",
            cell(devices=_HOT_PATH_DEVICES, apps=("im", "email"),
                 duration=_HOT_PATH_DURATION_S, chunk_s=_HOT_PATH_CHUNK_S),
        ),
        (
            "scenario_office_day",
            cell(devices=_HOT_PATH_SCENARIO_DEVICES, scenario="office_day",
                 duration=_HOT_PATH_DURATION_S, chunk_s=_HOT_PATH_CHUNK_S),
        ),
    )
    records = []
    for label, population in grid:
        spec = CellRunSpec(
            cell=population,
            carrier="att_hspa",
            policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
            dormancy=DormancySpec(),
        )
        result = execute_cell(spec)
        device_hash = hashlib.sha256()
        for device in result.devices:
            device_hash.update(repr((
                device.device_id,
                device.policy_name,
                device.cohort,
                tuple(sorted(
                    (key, _hex(value))
                    for key, value in device.breakdown.as_dict().items()
                )),
                device.packets,
                device.dormancy_requests,
                device.dormancy_granted,
                device.dormancy_denied,
                device.delayed_sessions,
                _hex(device.total_session_delay_s),
            )).encode("utf-8"))
        switch_hash = hashlib.sha256(
            repr([_hex(t) for t in result.switch_times]).encode("utf-8")
        )
        records.append({
            "cell": label,
            "carrier": spec.carrier,
            "scheme": spec.policy.scheme,
            "dormancy": spec.dormancy.label,
            "devices": len(result.devices),
            "total_packets": result.total_packets,
            "total_switches": result.total_switches,
            "rrc_messages": result.signaling.messages,
            "peak_active_devices": result.peak_active_devices,
            "peak_switches_per_minute": result.peak_switches_per_minute,
            "duration_s_hex": _hex(result.duration_s),
            "total_energy_j_hex": _hex(result.total_energy_j),
            "device_digest": device_hash.hexdigest(),
            "switch_times_digest": switch_hash.hexdigest(),
        })
    return records


_TOURNAMENT_DEVICES = 9
_TOURNAMENT_DURATION_S = 400.0
#: Shard counts the tournament cell is pinned at.  Equal device digests
#: across these records *are* the streaming-learning shard contract: the
#: per-UE learner state never crosses a shard boundary.
_TOURNAMENT_SHARDS = (1, 3)


def _learning_tournament_records() -> list[dict[str, Any]]:
    """Digest-pinned policy-tournament cell at K ∈ {1, 3} shards.

    One ``learning_rollout`` scenario cell — a Learn-α MakeActive fleet, a
    histogram-predictor pilot cohort and a control cohort on the policy
    axis — executed single-process and sharded.  Per-device records
    (including the ``learn_*`` learning-curve columns) are folded into a
    sha256 digest over the lossless ``float.hex`` serialisation; the two
    records sharing one ``device_digest`` pins the streaming learning
    contract: sharding must not move a single learned float.
    """
    from ..api.cells import CellRunSpec, DormancySpec, cell, execute_cell
    from ..api.spec import PolicySpec

    records = []
    for shards in _TOURNAMENT_SHARDS:
        spec = CellRunSpec(
            cell=cell(devices=_TOURNAMENT_DEVICES, scenario="learning_rollout",
                      duration=_TOURNAMENT_DURATION_S),
            carrier="att_hspa",
            policy=PolicySpec(scheme="makeidle+makeactive_learn").resolved(100),
            dormancy=DormancySpec(),
            shards=shards,
        )
        result = execute_cell(spec)
        device_hash = hashlib.sha256()
        for device in result.devices:
            device_hash.update(repr((
                device.device_id,
                device.policy_name,
                device.cohort,
                tuple(sorted(
                    (key, _hex(value))
                    for key, value in device.breakdown.as_dict().items()
                )),
                device.packets,
                device.dormancy_requests,
                device.dormancy_granted,
                device.dormancy_denied,
                device.delayed_sessions,
                _hex(device.total_session_delay_s),
                device.learn_iterations,
                _hex(device.learn_delay_first_s),
                _hex(device.learn_delay_final_s),
            )).encode("utf-8"))
        switch_hash = hashlib.sha256(
            repr([_hex(t) for t in result.switch_times]).encode("utf-8")
        )
        summary = result.learning_summary()
        records.append({
            "cell": "learning_rollout_tournament",
            "carrier": spec.carrier,
            "scheme": spec.policy.scheme,
            "dormancy": spec.dormancy.label,
            "shards": shards,
            "devices": len(result.devices),
            "total_packets": result.total_packets,
            "total_switches": result.total_switches,
            "rrc_messages": result.signaling.messages,
            "peak_switches_per_minute": result.peak_switches_per_minute,
            "duration_s_hex": _hex(result.duration_s),
            "total_energy_j_hex": _hex(result.total_energy_j),
            "learning_devices": summary["learning_devices"],
            "learn_iterations": summary["learn_iterations"],
            "mean_delay_first_s_hex": _hex(summary["mean_delay_first_s"]),
            "mean_delay_final_s_hex": _hex(summary["mean_delay_final_s"]),
            "device_digest": device_hash.hexdigest(),
            "switch_times_digest": switch_hash.hexdigest(),
        })
    return records


_METRO_SHUFFLE_DEVICES = 10
_METRO_SHUFFLE_DURATION_S = 3600.0
_METRO_COMMUTER_DEVICES = 6
#: Long enough to cross the commuter departure time (8 h), so the
#: commuter preset contributes real mid-stream handovers to the record.
_METRO_COMMUTER_DURATION_S = 36000.0
_METRO_CHUNK_S = 300.0


def _metro_small_records() -> list[dict[str, Any]]:
    """Digest-pinned small metros: shuffle 4-cell + commuter 2-cell.

    Pins the whole metro layer — mobility timelines, visit windowing,
    the handover close-out, hierarchical merge and the global end time —
    down to the float.  Per-visit device results are folded into one
    sha256 digest per cell over a lossless ``float.hex`` serialisation
    (the :func:`_hot_path_records` convention), with handover/arrival
    counts and exact-hex energy totals kept in the clear.
    """
    from ..api.metro import MetroRunSpec, execute_metro, metro
    from ..api.spec import PolicySpec

    grid = (
        ("metro_4cell", _METRO_SHUFFLE_DEVICES, _METRO_SHUFFLE_DURATION_S,
         "status_quo"),
        ("metro_4cell", _METRO_SHUFFLE_DEVICES, _METRO_SHUFFLE_DURATION_S,
         "makeidle"),
        ("commuter_2cell", _METRO_COMMUTER_DEVICES,
         _METRO_COMMUTER_DURATION_S, "makeidle"),
    )
    records = []
    for name, devices, duration_s, policy_scheme in grid:
        spec = MetroRunSpec(
            metro=metro(name, devices=devices, duration=duration_s,
                        chunk_s=_METRO_CHUNK_S),
            carrier="att_hspa",
            policy=PolicySpec(scheme=policy_scheme).resolved(100),
        )
        result = execute_metro(spec)
        cells = []
        for entry in result.cells:
            device_hash = hashlib.sha256()
            for device in entry.result.devices:
                device_hash.update(repr((
                    device.device_id,
                    device.policy_name,
                    device.cohort,
                    tuple(sorted(
                        (key, _hex(value))
                        for key, value in device.breakdown.as_dict().items()
                    )),
                    device.packets,
                    device.dormancy_requests,
                    device.dormancy_granted,
                    device.dormancy_denied,
                    device.delayed_sessions,
                    _hex(device.total_session_delay_s),
                )).encode("utf-8"))
            cells.append({
                "cell": entry.name,
                "dormancy": entry.dormancy,
                "visits": entry.visits,
                "departures": entry.departures,
                "arrivals": entry.arrivals,
                "total_packets": entry.result.total_packets,
                "total_switches": entry.result.total_switches,
                "rrc_messages": entry.result.signaling.messages,
                "dormancy_requests": entry.result.dormancy_requests,
                "dormancy_denied": entry.result.dormancy_denied,
                "peak_active_devices": entry.result.peak_active_devices,
                "total_energy_j_hex": _hex(entry.result.total_energy_j),
                "device_digest": device_hash.hexdigest(),
            })
        records.append({
            "metro": name,
            "carrier": spec.carrier,
            "scheme": policy_scheme,
            "devices": devices,
            "handovers": result.handovers,
            "duration_s_hex": _hex(result.duration_s),
            "total_energy_j_hex": _hex(result.total_energy_j),
            "cells": cells,
        })
    return records


#: Golden suite name -> payload builder.  Adding a suite here makes it
#: refreshable by ``tools/refresh_golden.py`` and checked by
#: ``tests/integration/test_golden.py`` with no further wiring.
GOLDEN_BUILDERS: dict[str, Callable[[], list[dict[str, Any]]]] = {
    "single_ue": _single_ue_records,
    "small_cell": _small_cell_records,
    "scenario_cell": _scenario_cell_records,
    "hot_path_1k": _hot_path_records,
    "learning_tournament": _learning_tournament_records,
    "metro_small": _metro_small_records,
}

def build_golden(name: str) -> dict[str, Any]:
    """Build one golden suite's payload (records plus provenance header).

    The payload never records which kernel ran a shard: both kernels
    render every suite byte-identically, which the golden tests check by
    building each suite twice — once as selected, once on the scalar
    kernel alone.
    """
    try:
        builder = GOLDEN_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown golden suite {name!r}; known: {sorted(GOLDEN_BUILDERS)}"
        ) from None
    return {
        "suite": name,
        "refresh_with": "python tools/refresh_golden.py",
        "records": builder(),
    }


def render_golden(payload: dict[str, Any]) -> str:
    """Render a payload to the canonical JSON text compared byte-for-byte."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
