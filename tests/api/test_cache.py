"""Tests for the deduplicating result cache and its counters."""

from __future__ import annotations

from repro.api import ResultCache, SerialRunner, plan
from repro.api.spec import PolicySpec, RunSpec, TraceSpec, app, inline
from repro.traces import Packet, PacketTrace


def _email_spec(**overrides) -> RunSpec:
    defaults = dict(
        trace=app("email", duration=600.0, seed=0),
        carrier="att_hspa",
        policy=PolicySpec("status_quo"),
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestCacheKeys:
    def test_same_triple_same_key(self):
        assert _email_spec().cache_key == _email_spec().cache_key

    def test_seed_changes_generated_trace_key(self):
        a = _email_spec()
        b = _email_spec(trace=app("email", duration=600.0, seed=1))
        assert a.cache_key != b.cache_key

    def test_policy_window_distinguishes_keys(self):
        a = _email_spec(policy=PolicySpec("makeidle", window_size=50))
        b = _email_spec(policy=PolicySpec("makeidle", window_size=100))
        assert a.cache_key != b.cache_key

    def test_equal_inline_traces_share_a_key(self):
        packets = [Packet(0.0, 100), Packet(10.0, 200)]
        a = _email_spec(trace=inline(PacketTrace(packets, name="t")))
        b = _email_spec(trace=inline(PacketTrace(list(packets), name="t")))
        assert a.cache_key == b.cache_key

    def test_different_inline_traces_do_not_collide(self):
        a = _email_spec(trace=inline(PacketTrace([Packet(0.0, 100)])))
        b = _email_spec(trace=inline(PacketTrace([Packet(0.0, 101)])))
        assert a.cache_key != b.cache_key


class TestCounters:
    def test_miss_then_hits(self):
        cache = ResultCache()
        sentinel = object()
        assert cache.lookup("k") is None
        cache.put("k", sentinel)  # type: ignore[arg-type]
        for _ in range(2):
            result = cache.lookup("k")
        assert result is sentinel
        assert cache.misses == 1
        assert cache.hits == 2
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == 2 / 3

    def test_clear_resets_everything(self):
        cache = ResultCache()
        cache.put("k", "v")  # type: ignore[arg-type]
        cache.lookup("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0


class TestDuplicateEliminationInPlans:
    def test_status_quo_simulated_once_per_trace_carrier(self):
        # Two drivers' worth of sweeps sharing one runner: the status-quo
        # column of the second sweep is entirely served from the cache.
        runner = SerialRunner()
        base = plan().apps("im", duration=600.0).carriers("att_hspa")
        first = runner.run(base.policies("status_quo", "makeidle"))
        second = runner.run(base.policies("status_quo", "oracle"))
        assert first.cache_stats.misses == 2
        assert second.cache_stats.misses == 1  # only the oracle run is new
        status_quo_record = next(
            r for r in second if r.scheme == "status_quo"
        )
        assert status_quo_record.from_cache


class TestBoundedCache:
    def test_fifo_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)  # type: ignore[arg-type]
        cache.put("b", 2)  # type: ignore[arg-type]
        cache.put("c", 3)  # type: ignore[arg-type]
        assert len(cache) == 2
        assert "a" not in cache
        assert "b" in cache
        assert "c" in cache

    def test_max_entries_validation(self):
        import pytest

        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_pool_runner_survives_tiny_cache(self):
        from repro.api import ProcessPoolRunner

        sweep = (plan().apps("im", "email", duration=600.0)
                 .carriers("att_hspa")
                 .policies("status_quo", "makeidle"))
        runner = ProcessPoolRunner(jobs=2, cache=ResultCache(max_entries=1))
        runs = runner.run(sweep)
        assert len(runs) == 4
        assert all(r.result is not None for r in runs)
