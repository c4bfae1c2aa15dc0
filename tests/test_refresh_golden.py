"""Tests for the golden refresh tool's ``--check`` mode (tools/refresh_golden.py)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "refresh_golden.py"
_spec = importlib.util.spec_from_file_location("refresh_golden", _TOOL)
tool = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("refresh_golden", tool)
_spec.loader.exec_module(tool)


def test_check_passes_on_the_checked_in_records(capsys):
    golden = tool.GOLDEN_DIR / "single_ue.json"
    before = golden.read_bytes()
    assert tool.main(["--check", "single_ue"]) == 0
    out = capsys.readouterr().out
    assert "single_ue.json: ok" in out
    assert "1 of 1 suites match" in out
    assert golden.read_bytes() == before


def test_check_reports_drift_and_writes_nothing(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "tests" / "golden"
    golden.mkdir(parents=True)
    text = (tool.GOLDEN_DIR / "single_ue.json").read_text(encoding="utf-8")
    drifted = text.replace('"switch_count": ', '"switch_count": 1', 1)
    (golden / "single_ue.json").write_text(drifted, encoding="utf-8")
    monkeypatch.setattr(tool, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(tool, "GOLDEN_DIR", golden)

    assert tool.main(["--check", "single_ue"]) == 1
    out = capsys.readouterr().out
    assert "single_ue.json: DRIFTED" in out
    assert '-      "switch_count": 13,' in out  # the checked-in line
    assert '+      "switch_count": 3,' in out  # the rebuilt one
    assert "0 of 1 suites match" in out
    assert (golden / "single_ue.json").read_text(encoding="utf-8") == drifted
