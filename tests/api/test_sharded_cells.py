"""Sharded cell execution through the api layer: execute_cell(shards=...),
the plan-level .shards() axis, the pool runner's shard fan-out, and the CLI
--shards flag."""

from __future__ import annotations

import pytest

from repro.api import (
    CellRunSpec,
    PolicySpec,
    ProcessPoolRunner,
    SerialRunner,
    cell,
    execute_cell,
    execute_cell_shard,
    plan,
    shard_sizes,
)
from repro.api.cells import DormancySpec
from repro.basestation import merge_cell_shards
from repro.cli import main


def _spec(devices=11, dormancy=DormancySpec(), shards=1, scheme="makeidle"):
    return CellRunSpec(
        cell=cell(devices=devices, apps=("im", "email"), duration=300.0),
        carrier="att_hspa",
        policy=PolicySpec(scheme=scheme).resolved(100),
        dormancy=dormancy,
        shards=shards,
    )


class TestShardSizes:
    def test_balanced_contiguous_partition(self):
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(10, 1) == [10]
        assert shard_sizes(7, 7) == [1] * 7

    def test_validation(self):
        with pytest.raises(ValueError, match="devices must be >= 1"):
            shard_sizes(0, 1)
        with pytest.raises(ValueError, match="shards must be in"):
            shard_sizes(5, 6)
        with pytest.raises(ValueError, match="shards must be in"):
            shard_sizes(5, 0)


class TestExecuteCellSharded:
    @pytest.mark.parametrize("dormancy", [
        DormancySpec(),
        DormancySpec("reject_all"),
        DormancySpec("rate_limited", 5.0),
    ])
    @pytest.mark.parametrize("shards", [2, 7])
    def test_byte_identical_per_device_records(self, dormancy, shards):
        reference = execute_cell(_spec(dormancy=dormancy))
        sharded = execute_cell(_spec(dormancy=dormancy), shards=shards)
        assert sharded.devices == reference.devices
        assert sharded.signaling == reference.signaling
        assert sharded.duration_s == reference.duration_s
        assert sharded.switch_times == reference.switch_times

    def test_shards_clamped_to_device_count(self):
        spec = _spec(devices=3, shards=50)
        assert spec.effective_shards == 3
        result = execute_cell(spec)
        assert len(result.devices) == 3

    def test_spec_shards_honoured_without_override(self):
        result = execute_cell(_spec(shards=2))
        assert result.devices == execute_cell(_spec()).devices

    def test_shard_index_validation(self):
        with pytest.raises(ValueError, match="shard index"):
            execute_cell_shard(_spec(shards=2), 2)

    def test_manual_shard_fanout_matches_execute(self):
        spec = _spec(shards=3)
        merged = merge_cell_shards(
            [execute_cell_shard(spec, index) for index in range(3)]
        )
        assert merged.devices == execute_cell(spec).devices

    def test_load_aware_budget_is_partitioned(self):
        # Not byte-identical (documented approximation) but the sharded
        # run must still arbitrate: with a tight budget, denials happen.
        sharded = execute_cell(
            _spec(devices=12, dormancy=DormancySpec("load_aware", 4.0)),
            shards=3,
        )
        assert sharded.dormancy_requests > 0
        assert sharded.dormancy_denied > 0

    def test_cache_key_carries_effective_shard_count(self):
        assert _spec(shards=1).cache_key != _spec(shards=4).cache_key
        # Clamped counts collapse to the same key.
        assert (_spec(devices=3, shards=50).cache_key
                == _spec(devices=3, shards=3).cache_key)

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            _spec(shards=0)


class TestShardsAxis:
    def _plan(self):
        return (
            plan()
            .cells(cell(devices=6, apps=("im",), duration=200.0))
            .carriers("att_hspa")
            .policies("status_quo", "makeidle")
        )

    def test_axis_expands_grid(self):
        p = self._plan().shards(1, 4)
        assert len(p) == 4
        assert sorted({spec.shards for spec in p.build()}) == [1, 4]

    def test_round_trips_through_dict(self):
        p = self._plan().dormancy("accept_all").shards(2)
        clone = type(p).from_dict(p.to_dict())
        assert clone.shard_counts == (2,)
        assert clone.build() == p.build()

    def test_single_ue_plan_rejects_shards(self):
        p = plan().apps("im").carriers("att_hspa").policies("status_quo")
        with pytest.raises(ValueError, match="only applies to cell plans"):
            p.shards(2).build()

    def test_validates_counts(self):
        with pytest.raises(ValueError, match=">= 1"):
            plan().shards(0)
        with pytest.raises(TypeError, match="must be int"):
            plan().shards(2.5)

    def test_from_dict_applies_the_same_validation(self):
        base = self._plan().to_dict()
        # A wrong JSON type is refused when the plan is read, as a
        # ValueError naming the key, before the fluent method sees it.
        with pytest.raises(ValueError, match=r"plan key 'shards' must be "
                                             r"list\[integer\], got \[2\.5\]"):
            plan().from_dict({**base, "shards": [2.5]})
        with pytest.raises(ValueError, match=">= 1"):
            plan().from_dict({**base, "shards": [0]})

    def test_records_report_effective_shard_count(self):
        # A requested count beyond the population clamps; rows must not
        # claim a precision that never executed.
        p = (
            plan()
            .cells(cell(devices=2, apps=("im",), duration=200.0))
            .carriers("att_hspa")
            .policies("makeidle")
            .shards(50)
        )
        runs = SerialRunner().run(p)
        assert runs.records[0].shards == 2
        assert runs.to_records(None)[0]["shards"] == 2

    def test_describe_mentions_shard_counts(self):
        description = self._plan().shards(1, 2).describe()
        assert "2 shard count(s)" in description

    def test_pool_runner_matches_serial_runner(self):
        p = self._plan().shards(2)
        serial = SerialRunner().run(p)
        pooled = ProcessPoolRunner(jobs=2).run(p)
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial.records, pooled.records):
            assert a.spec == b.spec
            assert a.result.devices == b.result.devices
            assert a.result.load_samples == b.result.load_samples
            assert (a.result.peak_active_devices
                    == b.result.peak_active_devices)

    def test_records_carry_shards_and_group_per_count(self):
        runs = SerialRunner().run(self._plan().shards(1, 2))
        rows = runs.to_records()
        assert sorted(row["shards"] for row in rows) == [1, 1, 2, 2]
        # Each shard count normalises against its own baseline record.
        for row in rows:
            if row["scheme"] != "status_quo":
                assert "saved_percent" in row
        by_shards = runs.group_by("shards")
        assert sorted(by_shards) == [1, 2]


class TestCliShards:
    def test_requires_cell(self, capsys):
        code = main([
            "sweep", "--apps", "im", "--shards", "2", "--duration", "120",
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_sharded_cell_sweep_runs(self, capsys):
        code = main([
            "sweep", "--cell", "--devices", "6", "--apps", "im",
            "--carriers", "att_hspa", "--schemes", "makeidle",
            "--shards", "2", "--duration", "120",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards" in out
