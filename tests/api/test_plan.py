"""Tests for the fluent ExperimentPlan builder and its grid expansion."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    EmptyAxisError,
    ExperimentPlan,
    PolicySpec,
    TraceSpec,
    inline,
    load_plan,
    plan,
    save_plan,
)
from repro.core import SCHEME_ORDER
from repro.traces import Packet, PacketTrace


class TestFluentBuilder:
    def test_plan_starts_empty(self):
        p = plan()
        assert len(p) == 0
        assert p.trace_specs == ()

    def test_methods_return_new_plans(self):
        base = plan().apps("email")
        extended = base.carriers("att_hspa")
        assert base.carrier_keys == ()
        assert extended.carrier_keys == ("att_hspa",)

    def test_template_reuse(self):
        template = plan().apps("email").policies("status_quo", "makeidle")
        att = template.carriers("att_hspa")
        lte = template.carriers("verizon_lte")
        assert att.carrier_keys == ("att_hspa",)
        assert lte.carrier_keys == ("verizon_lte",)

    def test_carrier_aliases_normalised_eagerly(self):
        p = plan().carriers("lte", "vzw_3g", "att")
        assert p.carrier_keys == ("verizon_lte", "verizon_3g", "att_hspa")

    def test_unknown_carrier_rejected_at_declaration(self):
        with pytest.raises(KeyError):
            plan().carriers("sprint_5g")

    def test_unknown_scheme_rejected_at_declaration(self):
        with pytest.raises(ValueError):
            plan().policies("quantum_idle")

    def test_packet_trace_auto_wrapped_inline(self):
        trace = PacketTrace([Packet(0.0, 100)], name="tiny")
        p = plan().traces(trace)
        assert p.trace_specs[0].kind == "inline"
        assert p.trace_specs[0].label == "tiny"


class TestExpansion:
    def test_grid_size_is_axis_product(self):
        p = (plan()
             .apps("email", "im", "news")
             .carriers("att_hspa", "verizon_lte")
             .policies("status_quo", "makeidle"))
        assert len(p) == 12
        assert len(p.build()) == 12

    def test_seed_repeats_multiply_grid_and_reseed_traces(self):
        p = (plan()
             .apps("email")
             .carriers("att_hspa")
             .policies("status_quo")
             .repeat(seeds=(3, 4, 5)))
        specs = p.build()
        assert len(specs) == 3
        assert [s.seed for s in specs] == [3, 4, 5]
        assert [s.trace.seed for s in specs] == [3, 4, 5]

    def test_inline_trace_is_not_reseeded(self):
        trace = PacketTrace([Packet(0.0, 100)], name="tiny")
        p = (plan().traces(trace).carriers("att_hspa")
             .policies("status_quo").repeat(seeds=(1, 2)))
        specs = p.build()
        assert specs[0].trace.fingerprint == specs[1].trace.fingerprint

    def test_empty_axis_raises_with_axis_name(self):
        with pytest.raises(EmptyAxisError) as err:
            plan().carriers("att_hspa").policies("status_quo").build()
        assert err.value.axis == "traces"
        with pytest.raises(EmptyAxisError) as err:
            plan().apps("email").policies("status_quo").build()
        assert err.value.axis == "carriers"
        with pytest.raises(EmptyAxisError) as err:
            plan().apps("email").carriers("att_hspa").build()
        assert err.value.axis == "policies"

    def test_window_size_fills_unset_policy_windows(self):
        p = (plan().apps("email").carriers("att_hspa")
             .policies("makeidle", PolicySpec("makeidle", window_size=25))
             .window_size(50))
        windows = [s.policy.window_size for s in p.build()]
        assert windows == [50, 25]

    def test_expansion_is_deterministic(self):
        p = (plan().apps("email", "im").carriers("att_hspa", "verizon_lte")
             .policies("status_quo", "makeidle").repeat(seeds=(0, 1)))
        assert p.build() == p.build()


class TestSerialisation:
    def test_round_trip(self):
        p = (plan()
             .apps("email", duration=1800.0, seed=2)
             .users("verizon_3g", (1, 2), hours_per_day=0.5)
             .carriers("att_hspa", "verizon_lte")
             .policies("status_quo", "makeidle")
             .window_size(50)
             .repeat(seeds=(0, 1))
             .labelled("round-trip"))
        restored = ExperimentPlan.from_dict(p.to_dict())
        assert restored == p
        assert restored.build() == p.build()

    def test_inline_trace_refuses_serialisation(self):
        trace = PacketTrace([Packet(0.0, 100)])
        p = plan().traces(trace).carriers("att_hspa").policies("status_quo")
        with pytest.raises(ValueError):
            p.to_dict()


class TestPaperSweepDeclarations:
    """The acceptance criterion: paper sweeps in <= 10 lines each."""

    def test_fig9_per_app_savings_plan(self):
        fig9 = (plan()
                .apps("news", "im", "microblog", "game", "email", "social",
                      "finance", duration=1800.0)
                .carriers("att_hspa")
                .policies("status_quo", *SCHEME_ORDER)
                .window_size(100))
        assert len(fig9) == 7 * 1 * 7

    def test_fig17_18_cross_carrier_plan(self):
        fig17 = (plan()
                 .users("verizon_3g", hours_per_day=2.0)
                 .carriers("tmobile_3g", "att_hspa", "verizon_3g", "verizon_lte")
                 .policies("status_quo", *SCHEME_ORDER)
                 .window_size(100))
        assert len(fig17) == 6 * 4 * 7

    def test_trace_spec_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(kind="pcap")  # no path
        with pytest.raises(ValueError):
            TraceSpec(kind="teleport")
        with pytest.raises(ValueError):
            inline(None)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            TraceSpec(kind="application", name="netflix")
        with pytest.raises(ValueError):
            TraceSpec(kind="user", name="mars_base")
        with pytest.raises(ValueError):
            TraceSpec(duration_s=0.0)
        with pytest.raises(ValueError, match="user_id must be >= 1"):
            TraceSpec(kind="user", name="verizon_3g", user_id=0)

    @pytest.mark.parametrize("kind", ("default", "user", "tcpdump"))
    def test_trace_spec_builds_deterministically(self, kind, tmp_path):
        if kind == "default":
            spec = TraceSpec()
        elif kind == "user":
            spec = TraceSpec(kind="user", name="verizon_3g", user_id=1,
                             duration_s=1800.0)
        else:
            log = tmp_path / "log.txt"
            log.write_text(
                "0.0 IP 10.0.0.2.1 > 8.8.8.8.53: tcp 100\n"
                "5.0 IP 8.8.8.8.53 > 10.0.0.2.1: tcp 200\n",
                encoding="utf-8",
            )
            spec = TraceSpec(kind="tcpdump", path=str(log))
        trace = spec.build()
        assert len(trace) > 0
        if kind == "tcpdump":
            assert len(trace) == 2
        assert spec.build() == trace


class TestPlanPersistence:
    def test_save_and_load_plan_round_trip(self, tmp_path):
        from repro.api import plan
        from repro.api import load_plan, save_plan

        original = (plan()
                    .apps("email", duration=900.0, seed=3)
                    .carriers("att_hspa", "verizon_lte")
                    .policies("status_quo", "makeidle")
                    .window_size(40)
                    .repeat(seeds=(0, 1))
                    .labelled("persisted"))
        path = tmp_path / "plan.json"
        save_plan(original, path)
        restored = load_plan(path)
        assert restored == original
        assert restored.build() == original.build()

    def test_load_plan_rejects_non_object(self, tmp_path):
        import pytest

        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        from repro.api import load_plan

        with pytest.raises(ValueError):
            load_plan(path)


def _plan_files():
    """One saved plan per workload kind, as plain JSON dicts."""
    return {
        "single_ue": (plan().apps("im", duration=300.0)
                      .carriers("att_hspa").policies("status_quo", "makeidle")),
        "office_day": (plan().scenarios("office_day", devices=4,
                                        duration=120.0)
                       .carriers("att_hspa").policies("status_quo")
                       .dormancy("rate_limited").shards(2)),
        "mixed_policy": (plan().scenarios("mixed_policy", devices=4,
                                          duration=120.0)
                         .carriers("att_hspa").policies("status_quo")),
        "metro": (plan().metros("metro_4cell", devices=8, duration=120.0)
                  .carriers("att_hspa").policies("status_quo")),
    }


#: Where an unknown key goes: (plan file, path to the entry, key).
_UNKNOWN_KEYS = {
    "plan": ("single_ue", (), "carrier"),
    "plan_engines": ("office_day", (), "engines"),
    "plan_engine": ("office_day", (), "engine"),
    "trace": ("single_ue", ("traces", 0), "durations"),
    "policy": ("single_ue", ("policies", 0), "window"),
    "cell": ("office_day", ("cells", 0), "devcies"),
    "cell_engine": ("office_day", ("cells", 0), "engine"),
    "dormancy": ("office_day", ("dormancy", 0), "params"),
    "metro": ("metro", ("metros", 0), "mobility"),
    "metro_engine": ("metro", ("metros", 0), "engine"),
    "scenario": ("office_day", ("cells", 0, "scenario"), "cohort"),
    "cohort": ("office_day", ("cells", 0, "scenario", "cohorts", 0),
               "weights"),
    "cohort_policy": ("mixed_policy",
                      ("cells", 0, "scenario", "cohorts", 0, "policy"),
                      "factory"),
    "archetype": ("office_day",
                  ("cells", 0, "scenario", "cohorts", 0, "archetype"),
                  "intensities"),
    "shape": ("office_day", ("cells", 0, "scenario", "shape"), "segment"),
}


def _with_unknown_key(where: str) -> tuple[dict, str]:
    name, path, key = _UNKNOWN_KEYS[where]
    data = json.loads(json.dumps(_plan_files()[name].to_dict()))
    entry = data
    for step in path:
        entry = entry[step]
    entry[key] = "vector" if key.startswith("engine") else 1
    return data, key


#: Where a value of the wrong JSON type goes, at least one per entry kind:
#: (entry kind, plan file, path to the entry, key, value).
_WRONG_TYPES = {
    "plan": ("plan", "single_ue", (), "window_size", "100"),
    "plan_seeds": ("plan", "single_ue", (), "seeds", ["x"]),
    "plan_carriers": ("plan", "single_ue", (), "carriers", [7]),
    "trace": ("trace", "single_ue", ("traces", 0), "duration_s", None),
    "policy": ("policy", "single_ue", ("policies", 0), "window_size", "5"),
    "cell": ("cell", "office_day", ("cells", 0), "devices", "4"),
    "dormancy": ("dormancy", "office_day", ("dormancy", 0), "param", "5"),
    "metro": ("metro", "metro", ("metros", 0), "devices", 8.0),
    "scenario": ("scenario", "office_day", ("cells", 0, "scenario"),
                 "name", 3),
    "cohort": ("cohort", "office_day",
               ("cells", 0, "scenario", "cohorts", 0), "weight", True),
    "cohort_policy": ("policy", "mixed_policy",
                      ("cells", 0, "scenario", "cohorts", 0, "policy"),
                      "window_size", 5.5),
    "archetype": ("archetype", "office_day",
                  ("cells", 0, "scenario", "cohorts", 0, "archetype"),
                  "apps", "im"),
    "shape": ("shape", "office_day", ("cells", 0, "scenario", "shape"),
              "segments", [[7.0, "x"]]),
}


def _with_wrong_type(where: str) -> dict:
    _kind, name, path, key, value = _WRONG_TYPES[where]
    data = json.loads(json.dumps(_plan_files()[name].to_dict()))
    entry = data
    for step in path:
        entry = entry[step]
    assert key in entry
    entry[key] = value
    return data


class TestStrictPlanFiles:
    """A plan file is read through the same validators as a plan built in
    Python, and any key no ``to_dict`` writes is refused by name."""

    @pytest.mark.parametrize("name", sorted(_plan_files()))
    def test_saved_plans_load_back_equal(self, name, tmp_path):
        original = _plan_files()[name]
        path = tmp_path / "plan.json"
        save_plan(original, path)
        assert load_plan(path) == original

    def test_carrier_alias_matches_the_fluent_method(self, tmp_path):
        declared = (plan().apps("im", duration=300.0).carriers("lte")
                    .policies("status_quo", "makeidle"))
        data = declared.to_dict()
        data["carriers"] = ["lte"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        loaded = load_plan(path)
        assert loaded == declared
        assert ([s.cache_key for s in loaded.build()]
                == [s.cache_key for s in declared.build()])

    @pytest.mark.parametrize("field, value, message", [
        ("window_size", 1, "window_size must be >= 2"),
        ("shards", [0], "shard counts must be >= 1"),
    ])
    def test_fluent_validation_applies(self, field, value, message):
        data = _plan_files()["office_day"].to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_dict(data)

    @pytest.mark.parametrize("where", sorted(_UNKNOWN_KEYS))
    def test_unknown_key_is_named(self, where, tmp_path):
        data, key = _with_unknown_key(where)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match=f"unknown .*'{key}'") as info:
            load_plan(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("where", sorted(_WRONG_TYPES))
    def test_wrong_type_is_named(self, where, tmp_path):
        kind, _name, _path, key, value = _WRONG_TYPES[where]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_with_wrong_type(where)), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_plan(path)
        message = str(info.value)
        assert message.startswith(f"{kind} key '{key}' must be ")
        assert message.endswith(f"got {value!r}")

    @pytest.mark.parametrize("name, path, key, value", [
        ("single_ue", ("traces", 0), "duration_s", float("nan")),
        ("single_ue", ("traces", 0), "duration_s", float("inf")),
        ("office_day", ("cells", 0), "duration_s", float("nan")),
        ("office_day", ("cells", 0), "duration_s", float("inf")),
        ("office_day", ("cells", 0), "chunk_s", float("nan")),
        ("metro", ("metros", 0), "duration_s", float("nan")),
        ("metro", ("metros", 0), "chunk_s", float("nan")),
    ], ids=["trace_nan", "trace_inf", "cell_nan", "cell_inf", "cell_chunk_nan",
            "metro_nan", "metro_chunk_nan"])
    def test_non_finite_durations_are_refused(self, name, path, key, value,
                                              tmp_path):
        # Python's json reads NaN and Infinity, and both are JSON-typed
        # numbers; the spec's own rule refuses them.
        data = json.loads(json.dumps(_plan_files()[name].to_dict()))
        entry = data
        for step in path:
            entry = entry[step]
        entry[key] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(data), encoding="utf-8")
        rule = "positive and finite" if key == "duration_s" else "positive"
        with pytest.raises(ValueError, match=f"{key} must be {rule}, got"):
            load_plan(plan_path)

    @pytest.mark.parametrize("declare", [
        lambda: plan().apps("im", duration=float("nan")),
        lambda: plan().users("verizon_3g", (1,),
                             hours_per_day=float("inf")),
        lambda: plan().scenarios("office_day", duration=float("inf")),
        lambda: plan().scenarios("office_day", chunk_s=float("nan")),
        lambda: plan().metros("metro_4cell", duration=float("nan")),
    ], ids=["app", "user", "scenario", "scenario_chunk", "metro"])
    def test_fluent_methods_refuse_non_finite_durations(self, declare):
        with pytest.raises(ValueError, match="must be positive"):
            declare()

    def test_entry_must_be_an_object(self):
        data = _plan_files()["office_day"].to_dict()
        data["cells"] = [4]
        with pytest.raises(ValueError, match="cell entry must be a JSON "
                                             "object, got int"):
            ExperimentPlan.from_dict(data)


def _tail_free_policy():
    from repro.core import FixedTimerPolicy

    return FixedTimerPolicy(1.0)


class TestFactoryPolicies:
    def test_factory_gets_its_own_scheme_label(self):
        spec = PolicySpec(factory=_tail_free_policy)
        assert spec.scheme == "_tail_free_policy"
        assert spec.key[0] == "factory"

    def test_factory_never_masquerades_as_baseline(self):
        from repro.api import SerialRunner

        p = (plan().apps("im", duration=600.0).carriers("att_hspa")
             .policies("status_quo", PolicySpec(factory=_tail_free_policy)))
        runs = SerialRunner().run(p)
        table = runs.savings()
        per_scheme = next(iter(table.values()))
        assert set(per_scheme) == {"_tail_free_policy"}

    def test_explicit_factory_label_kept(self):
        spec = PolicySpec(scheme="tail_free", factory=_tail_free_policy)
        assert spec.scheme == "tail_free"
