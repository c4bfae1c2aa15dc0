"""MetroSpec / MetroRunSpec / plan-axis tests for the metro API layer."""

from __future__ import annotations

import pytest

from repro.api import (
    ExperimentPlan,
    MetroRunSpec,
    MetroSpec,
    Metro,
    MetroCell,
    get_metro,
    metro,
    plan,
)
from repro.api.spec import PolicySpec
from repro.metro import ShuffleMobility


def _inline_metro() -> Metro:
    return Metro(
        name="inline_duo",
        cells=(MetroCell(name="a"), MetroCell(name="b")),
        mobility=ShuffleMobility(mean_residency_s=120.0),
    )


class TestMetroSpec:
    def test_helper_resolves_presets(self):
        spec = metro("commuter_2cell", devices=50, duration=1800.0)
        assert spec.metro is get_metro("commuter_2cell")
        assert spec.devices == 50
        assert spec.duration_s == 1800.0

    def test_validation(self):
        with pytest.raises(ValueError, match="devices"):
            metro("metro_4cell", devices=0)
        with pytest.raises(ValueError, match="duration_s"):
            MetroSpec(metro=get_metro("metro_4cell"), duration_s=0.0)
        with pytest.raises(ValueError, match="chunk_s"):
            MetroSpec(metro=get_metro("metro_4cell"), chunk_s=0.0)

    def test_label_is_seed_independent(self):
        base = metro("metro_4cell", devices=100)
        assert base.label == base.with_seed(3).label
        assert base.label.startswith("metro_4cell100-")

    def test_explicit_name_wins(self):
        spec = metro("metro_4cell", name="rush_hour")
        assert spec.label == "rush_hour"

    def test_fingerprint_includes_seed(self):
        base = metro("metro_4cell")
        assert base.fingerprint != base.with_seed(3).fingerprint

    def test_preset_round_trip(self):
        spec = metro("commuter_2cell", devices=25, duration=7200.0, seed=4)
        clone = MetroSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_inline_metro_refuses_serialisation(self):
        spec = metro(_inline_metro(), devices=10)
        with pytest.raises(ValueError, match="not a registered preset"):
            spec.to_dict()

    def test_inline_metro_still_executes(self):
        # Inline topologies are first-class for the API, only plan
        # serialisation refuses them.
        spec = metro(_inline_metro(), devices=4, duration=600.0)
        assert spec.label.startswith("inline_duo4-")


class TestMetroRunSpec:
    def _run_spec(self, **kwargs) -> MetroRunSpec:
        defaults = dict(
            metro=metro("metro_4cell", devices=40),
            carrier="att_hspa",
            policy=PolicySpec(scheme="makeidle").resolved(100),
        )
        defaults.update(kwargs)
        return MetroRunSpec(**defaults)

    def test_carrier_validated_early(self):
        with pytest.raises(KeyError):
            self._run_spec(carrier="carrier_pigeon")

    def test_effective_shards_clamped_to_population(self):
        assert self._run_spec(shards=7).effective_shards == 7
        small = MetroRunSpec(
            metro=metro("metro_4cell", devices=3),
            carrier="att_hspa",
            policy=PolicySpec(scheme="makeidle").resolved(100),
            shards=8,
        )
        assert small.effective_shards == 3

    def test_n_cells(self):
        assert self._run_spec().n_cells == 4

    def test_cache_key_separates_axes(self):
        base = self._run_spec()
        assert base.cache_key == self._run_spec().cache_key
        assert base.cache_key != self._run_spec(carrier="verizon_lte").cache_key
        assert base.cache_key != self._run_spec(
            policy=PolicySpec(scheme="status_quo").resolved(100)
        ).cache_key
        assert base.cache_key != self._run_spec(shards=2).cache_key
        assert base.cache_key != self._run_spec(
            metro=metro("metro_4cell", devices=41)
        ).cache_key

    def test_no_status_quo_dormancy_collapse(self):
        """Unlike cells, station policies always shape the metro key."""
        status_quo = self._run_spec(
            policy=PolicySpec(scheme="status_quo").resolved(100)
        )
        assert status_quo.metro.metro.fingerprint in (
            status_quo.cache_key[0][1],
        )


class TestMetroPlanAxis:
    def _metro_plan(self) -> ExperimentPlan:
        return (plan()
                .metros("commuter_2cell", "metro_4cell", devices=20,
                        duration=1200.0)
                .carriers("att_hspa")
                .policies("status_quo", "makeidle"))

    def test_len_and_describe(self):
        p = self._metro_plan()
        assert p.is_metro_plan
        assert len(p) == 2 * 1 * 2
        assert "2 metro(s)" in p.describe()

    def test_build_yields_metro_run_specs(self):
        specs = self._metro_plan().build()
        assert all(isinstance(s, MetroRunSpec) for s in specs)
        assert {s.label for s in specs} == {
            metro("commuter_2cell", devices=20, duration=1200.0).label,
            metro("metro_4cell", devices=20, duration=1200.0).label,
        }

    def test_shards_axis_expands(self):
        p = self._metro_plan().shards(1, 2)
        assert len(p) == 8
        assert {s.shards for s in p.build()} == {1, 2}

    def test_seeds_reseed_the_metro(self):
        p = self._metro_plan().repeat(seeds=(1, 2))
        specs = p.build()
        assert len(specs) == 8
        assert {s.metro.seed for s in specs} == {1, 2}

    def test_rejects_mixing_with_trace_axis(self):
        p = plan().apps("im").metros("metro_4cell").carriers("att_hspa") \
                  .policies("status_quo")
        with pytest.raises(ValueError, match="cannot mix a metro axis"):
            p.build()

    def test_rejects_mixing_with_cell_axis(self):
        from repro.api import cell

        p = plan().cells(cell(devices=4)).metros("metro_4cell") \
                  .carriers("att_hspa").policies("status_quo")
        with pytest.raises(ValueError, match="cannot mix a metro axis"):
            p.build()

    def test_rejects_dormancy_axis(self):
        p = self._metro_plan().dormancy("accept_all")
        with pytest.raises(ValueError, match="station[\\s\\S]*MetroCell"):
            p.build()

    def test_rejects_non_spec_entries(self):
        with pytest.raises(TypeError, match="MetroSpec or a preset"):
            plan().metros(42)

    def test_plan_round_trip(self):
        p = self._metro_plan().shards(2)
        clone = ExperimentPlan.from_dict(p.to_dict())
        assert clone.build() == p.build()


class TestBlockMajorExecution:
    """A UE-block task walks each UE's mobility timeline exactly once."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("name, duration", [
        ("metro_4cell", 1800.0),
        ("commuter_2cell", 32_400.0),
    ])
    def test_each_timeline_walked_once(self, monkeypatch, name, duration,
                                       shards):
        import repro.metro.execution as execution
        from repro.api import execute_metro
        from repro.metro import CommuterMobility

        walks: list[int] = []
        for model in (ShuffleMobility, CommuterMobility):
            def counted(self, index, *args, _moves=model.moves):
                walks.append(index)
                return _moves(self, index, *args)

            monkeypatch.setattr(model, "moves", counted)
        syntheses: list[int] = []
        synthesise = execution.stream_application_packets

        def counted_stream(*args, **kwargs):
            syntheses.append(kwargs["seed"])
            return synthesise(*args, **kwargs)

        monkeypatch.setattr(execution, "stream_application_packets",
                            counted_stream)

        result = execute_metro(MetroRunSpec(
            metro=metro(name, devices=40, duration=duration, seed=3),
            carrier="att_hspa",
            policy=PolicySpec(scheme="fixed_4.5s").resolved(100),
            shards=shards,
        ))
        assert result.handovers > 0
        assert sorted(walks) == list(range(40))
        # One synthesis per visit: the block pass adds no stream.
        assert len(syntheses) == sum(entry.visits for entry in result.cells)
