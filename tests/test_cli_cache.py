"""Tests for the sweep command's persistent result cache flags."""

import pytest

from repro.cli import main

SWEEP = [
    "sweep", "--apps", "im", "--duration", "300",
    "--carriers", "att_hspa", "--schemes", "status_quo,makeidle",
]


def _stats_line(err):
    lines = [l for l in err.splitlines() if l.startswith("runs:")]
    assert lines, f"no cache-stats line in stderr: {err!r}"
    return lines[-1]


class TestSweepCacheDir:
    def test_second_sweep_simulates_nothing(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")

        assert main(SWEEP + ["--cache-dir", cache_dir]) == 0
        first = capsys.readouterr()
        assert "simulated: 2" in _stats_line(first.err)

        # A fresh invocation (fresh runner, fresh in-memory cache): every
        # run must come off the persistent tier.
        assert main(SWEEP + ["--cache-dir", cache_dir]) == 0
        second = capsys.readouterr()
        line = _stats_line(second.err)
        assert "simulated: 0" in line
        assert "disk hits: 2" in line
        # Identical results either way.
        assert second.out == first.out

    def test_env_var_enables_the_tier(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RRC_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(SWEEP) == 0
        capsys.readouterr()
        assert main(SWEEP) == 0
        assert "simulated: 0" in _stats_line(capsys.readouterr().err)

    def test_no_disk_cache_overrides_the_env(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_RRC_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(SWEEP + ["--no-disk-cache"]) == 0
        capsys.readouterr()
        assert main(SWEEP + ["--no-disk-cache"]) == 0
        # Without the tier, the second process-equivalent re-simulates.
        assert "simulated: 2" in _stats_line(capsys.readouterr().err)
        assert not (tmp_path / "env-cache").exists()

    def test_corrupt_cache_file_resimulates_cleanly(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(SWEEP + ["--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr()
        for entry in cache_dir.glob("*.pkl"):
            entry.write_bytes(b"garbage")
        assert main(SWEEP + ["--cache-dir", str(cache_dir)]) == 0
        second = capsys.readouterr()
        assert "simulated: 2" in _stats_line(second.err)
        assert second.out == first.out


class TestShardedSweepCacheDir:
    def test_warm_pool_sweep_counts_disk_hits(self, capsys, tmp_path):
        sweep = ["sweep", "--cell", "--devices", "4", "--apps", "im",
                 "--carriers", "att_hspa", "--schemes", "fixed",
                 "--duration", "120", "--shards", "2",
                 "--cache-dir", str(tmp_path / "cache")]
        assert main(sweep) == 0
        first = capsys.readouterr()
        assert "simulated: 2" in _stats_line(first.err)
        assert main(sweep) == 0
        second = capsys.readouterr()
        line = _stats_line(second.err)
        assert "simulated: 0" in line
        assert "disk hits: 2" in line
        assert second.out == first.out
