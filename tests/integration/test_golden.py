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

import difflib
import json
from pathlib import Path

import pytest

from repro.reporting.golden import GOLDEN_BUILDERS, build_golden, render_golden

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@pytest.mark.parametrize("suite", sorted(GOLDEN_BUILDERS))
def test_golden_records_are_byte_exact(suite):
    path = GOLDEN_DIR / f"{suite}.json"
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "`PYTHONPATH=src python tools/refresh_golden.py`"
    )
    expected = path.read_text(encoding="utf-8")
    actual = render_golden(build_golden(suite))
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(), actual.splitlines(),
                fromfile=f"tests/golden/{suite}.json (checked in)",
                tofile=f"{suite} (rebuilt)", lineterm="", n=2,
            )
        )
        preview = "\n".join(diff.splitlines()[:60])
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
    path = GOLDEN_DIR / f"{suite}.json"
    expected = path.read_text(encoding="utf-8")
    with scalar_kernel():
        actual = render_golden(build_golden(suite))
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(), actual.splitlines(),
                fromfile=f"tests/golden/{suite}.json (checked in)",
                tofile=f"{suite} (rebuilt, scalar kernel)", lineterm="",
                n=2,
            )
        )
        preview = "\n".join(diff.splitlines()[:60])
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
