"""Golden-record regression suite: canonical results compared byte-for-byte.

Each suite in ``tests/golden/*.json`` pins a small canonical grid of runs
— single-UE sweeps, homogeneous cells, scenario cells — down to the exact
float.  The test rebuilds every payload from scratch through the public
API (:mod:`repro.reporting.golden` owns the builders, shared with the
refresh tool) and compares the rendered JSON text with the checked-in
file **byte for byte**: shortest-round-trip float formatting makes byte
equality float equality, so any drift in seed-equivalent results — a
reordered float fold, a changed seed derivation, a kernel refactor with a
subtly different close — fails here before it ships.

If a change is *supposed* to move these numbers, regenerate with::

    PYTHONPATH=src python tools/refresh_golden.py

and justify the refresh in the commit message.
"""

from __future__ import annotations

import builtins
import difflib
import importlib
import json
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import repro
from repro.energy import model as energy_model
from repro.folds import left_fold
from repro.reporting.golden import GOLDEN_BUILDERS, build_golden, render_golden

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def _drift(suite: str, actual: str, rebuilt_as: str) -> str:
    """The first differences from the checked-in file, or ``""`` if none."""
    expected = (GOLDEN_DIR / f"{suite}.json").read_text(encoding="utf-8")
    if actual == expected:
        return ""
    diff = difflib.unified_diff(
        expected.splitlines(), actual.splitlines(),
        fromfile=f"tests/golden/{suite}.json (checked in)",
        tofile=f"{suite} ({rebuilt_as})", lineterm="", n=2,
    )
    return "\n".join(list(diff)[:60])


@pytest.mark.parametrize("suite", sorted(GOLDEN_BUILDERS))
def test_golden_records_are_byte_exact(suite):
    path = GOLDEN_DIR / f"{suite}.json"
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "`PYTHONPATH=src python tools/refresh_golden.py`"
    )
    preview = _drift(suite, render_golden(build_golden(suite)), "rebuilt")
    if preview:
        pytest.fail(
            f"golden suite {suite!r} drifted from the checked-in record.\n"
            "If this change is intentional, refresh with "
            "`PYTHONPATH=src python tools/refresh_golden.py` and explain "
            f"why in the commit message.\nFirst differences:\n{preview}"
        )


@pytest.mark.parametrize("suite", sorted(GOLDEN_BUILDERS))
def test_golden_records_are_byte_exact_on_the_scalar_kernel(suite,
                                                            scalar_kernel):
    """Every suite again with the scalar kernel forced on every shard.

    Same checked-in files, same comparison — only the kernel differs
    wherever the selection rule would have picked the vector kernel.
    This is the kernel contract at its sharpest: the numpy kernel is not
    *approximately* the scalar kernel, it is the same floats in the same
    order.
    """
    with scalar_kernel():
        actual = render_golden(build_golden(suite))
    preview = _drift(suite, actual, "rebuilt, scalar kernel")
    if preview:
        pytest.fail(
            f"the kernels disagree on golden suite {suite!r} — the "
            "byte-identity contract is broken; fix the kernel (never "
            f"refresh goldens for this).\nFirst differences:\n{preview}"
        )


@pytest.mark.parametrize("suite", sorted(GOLDEN_BUILDERS))
def test_golden_files_are_canonically_rendered(suite):
    """The checked-in files themselves are canonical JSON (round-trip stable).

    Guards against hand-edits: re-rendering the *parsed* file must
    reproduce the file, so every golden file was produced by the tool.
    """
    path = GOLDEN_DIR / f"{suite}.json"
    text = path.read_text(encoding="utf-8")
    assert render_golden(json.loads(text)) == text


def test_golden_suites_cover_every_builder():
    """Every registered builder has a checked-in file, and nothing extra."""
    files = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert files == set(GOLDEN_BUILDERS)


@pytest.mark.parametrize(
    "suite", ("learning_tournament", "single_ue", "small_cell")
)
def test_makeidle_reference_loop_matches_golden_records(suite, monkeypatch):
    """Without numpy MakeIdle scans its candidates one at a time.

    That loop is the reference the one-pass numpy search is held to; these
    suites pin MakeIdle's decisions, so they must not move on either path.
    """
    monkeypatch.setattr(energy_model, "_np", None)
    # The shared evaluators are rebuilt without numpy, and dropped again
    # before numpy returns.
    energy_model.wait_evaluator.cache_clear()
    try:
        preview = _drift(suite, render_golden(build_golden(suite)),
                         "rebuilt, MakeIdle reference loop")
    finally:
        energy_model.wait_evaluator.cache_clear()
    assert not preview, preview


def _compensated_sum(iterable, /, start=0):
    """The builtin ``sum()`` of Python >= 3.12: float additions compensated.

    Neumaier summation, as CPython 3.12 does it for exact ``int``/``float``
    items; anything else is left to the builtin.
    """
    items = list(iterable)
    numbers = [start, *items]
    if any(type(x) not in (int, float) for x in numbers) or all(
        type(x) is int for x in numbers
    ):
        return builtins.sum(items, start)
    total = float(start)
    compensation = 0.0
    for item in items:
        x = float(item)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.mark.parametrize(
    "suite", ("learning_tournament", "scenario_cell", "single_ue", "small_cell")
)
def test_golden_records_do_not_depend_on_builtin_sum(suite, monkeypatch):
    """Float totals are explicit left folds, never the builtin ``sum()``.

    From Python 3.12 on ``sum()`` compensates float additions, so a total
    that went through it drifts by an ulp on newer interpreters.  Shadow
    ``sum`` with that compensated version in every ``repro`` module and
    rebuild: only integer sums may still reach it.
    """
    assert _compensated_sum([0.1] * 10) != left_fold([0.1] * 10)
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    preview = _drift(suite, render_golden(build_golden(suite)),
                     "rebuilt, compensated sum()")
    assert not preview, preview
