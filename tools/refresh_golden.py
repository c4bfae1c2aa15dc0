#!/usr/bin/env python3
"""Regenerate the golden-record regression files under tests/golden/.

Run this ONLY when a change is *supposed* to move canonical results (a new
seed derivation, an intentional model fix) — and say so in the commit
message.  ``tests/integration/test_golden.py`` compares the files byte for
byte against freshly rebuilt payloads, so an un-refreshed drift fails CI.

Usage::

    PYTHONPATH=src python tools/refresh_golden.py            # all suites
    PYTHONPATH=src python tools/refresh_golden.py single_ue  # one suite
    PYTHONPATH=src python tools/refresh_golden.py --check    # compare only

``--check`` rebuilds and compares without writing anything: it prints the
first differing lines of every drifted suite and exits 1.  It needs neither
pytest nor numpy, so it golden-checks the no-numpy fallbacks (scalar
kernel, ``array.array`` columns, the MakeIdle reference loop) on any
interpreter.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.reporting.golden import (  # noqa: E402  (path bootstrap above)
    GOLDEN_BUILDERS,
    build_golden,
    render_golden,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "suites", nargs="*", choices=[*sorted(GOLDEN_BUILDERS), []],
        help="suites to refresh (default: all)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the checked-in files, write nothing; exit 1 on drift",
    )
    args = parser.parse_args(argv)
    suites = args.suites or sorted(GOLDEN_BUILDERS)
    if args.check:
        return check(suites)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in suites:
        path = GOLDEN_DIR / f"{name}.json"
        text = render_golden(build_golden(name))
        changed = not path.exists() or path.read_text(encoding="utf-8") != text
        path.write_text(text, encoding="utf-8")
        status = "updated" if changed else "unchanged"
        records = text.count('"scheme"')
        print(f"{path.relative_to(REPO_ROOT)}: {status} "
              f"({len(text)} bytes, {records} scheme entries)")
    return 0


def check(suites: list[str]) -> int:
    """Rebuild ``suites`` and compare with the checked-in files; 1 on drift."""
    drifted = 0
    for name in suites:
        path = GOLDEN_DIR / f"{name}.json"
        expected = path.read_text(encoding="utf-8") if path.exists() else ""
        actual = render_golden(build_golden(name))
        if actual == expected:
            print(f"{path.relative_to(REPO_ROOT)}: ok")
            continue
        drifted += 1
        print(f"{path.relative_to(REPO_ROOT)}: DRIFTED")
        diff = difflib.unified_diff(
            expected.splitlines(), actual.splitlines(),
            fromfile=f"tests/golden/{name}.json (checked in)",
            tofile=f"{name} (rebuilt)", lineterm="", n=1,
        )
        for line in list(diff)[:20]:
            print(f"    {line}")
    print(f"{len(suites) - drifted} of {len(suites)} suites match")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
