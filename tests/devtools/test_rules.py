"""Per-rule fixture tests: every rule fires on its positive fixture at a
scoped path, stays quiet on its negative fixture, and stays quiet when the
positive fixture sits outside the rule's scope."""

from __future__ import annotations

import pytest

from repro.devtools.lint import ALL_RULES, build_rules, rule_ids

from .conftest import RULE_OUT_OF_SCOPE, RULE_TARGETS, fixture_text, lint_source

EXPECTED_RULES = (
    "seed-stride",
    "left-fold",
    "kernel-nondeterminism",
    "unordered-iteration",
    "float-eq",
    "registry-bypass",
    "hot-path-slots",
    "shared-mutable-policy",
)


def test_rule_registry_is_complete():
    assert tuple(rule_ids()) == EXPECTED_RULES
    assert len(ALL_RULES) >= 8


def test_every_rule_carries_contract_and_hint():
    for cls in ALL_RULES:
        assert cls.contract.startswith("DESIGN.md"), cls.id
        assert cls.hint, cls.id
        assert cls.title, cls.id
        assert cls.scope, cls.id


#: Each rule at its RULE_TARGETS path, plus further paths a widened scope
#: must cover: left-fold the learning layer's float totals, the
#: scenario layer's cohort weight total and the figure drivers' pooled
#: delays, hot-path-slots the packet copies every stream makes.
POSITIVE_CASES = [
    pytest.param(rule_id, RULE_TARGETS[rule_id], id=rule_id)
    for rule_id in EXPECTED_RULES
] + [
    pytest.param("left-fold", "src/repro/learning/fixture_mod.py",
                 id="left-fold-learning"),
    pytest.param("left-fold", "src/repro/scenarios/fixture_mod.py",
                 id="left-fold-scenarios"),
    pytest.param("left-fold", "src/repro/analysis/fixture_mod.py",
                 id="left-fold-analysis"),
    pytest.param("hot-path-slots", "src/repro/traces/packet.py",
                 id="hot-path-slots-packet"),
]


@pytest.mark.parametrize(("rule_id", "target"), POSITIVE_CASES)
def test_positive_fixture_fires(tmp_path, rule_id, target):
    result = lint_source(tmp_path, target, fixture_text(rule_id, "bad"))
    fired = {f.rule for f in result.violations}
    assert rule_id in fired
    finding = next(f for f in result.violations if f.rule == rule_id)
    assert finding.contract.startswith("DESIGN.md")
    assert finding.hint
    assert finding.line >= 1
    assert finding.path == target
    # context is the stripped flagged source line (baseline match key)
    assert finding.context
    assert finding.context in fixture_text(rule_id, "bad")


@pytest.mark.parametrize("rule_id", EXPECTED_RULES)
def test_negative_fixture_is_clean(tmp_path, rule_id):
    result = lint_source(
        tmp_path, RULE_TARGETS[rule_id], fixture_text(rule_id, "good")
    )
    assert result.violations == []
    assert result.files_checked == 1


@pytest.mark.parametrize("rule_id", EXPECTED_RULES)
def test_positive_fixture_out_of_scope_is_quiet(tmp_path, rule_id):
    result = lint_source(
        tmp_path,
        RULE_OUT_OF_SCOPE[rule_id],
        fixture_text(rule_id, "bad"),
        select=[rule_id],
    )
    assert {f.rule for f in result.violations} == set()


def test_multiple_findings_in_one_file(tmp_path):
    result = lint_source(
        tmp_path,
        "src/repro/sim/fixture_mod.py",
        fixture_text("hot-path-slots", "bad"),
    )
    messages = [f.message for f in result.violations]
    assert any("does not declare" in m for m in messages)
    assert any("dataclasses.replace" in m for m in messages)


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    result = lint_source(
        tmp_path, "src/repro/sim/broken.py", "def broken(:\n    pass\n"
    )
    assert [f.rule for f in result.violations] == ["parse-error"]
    assert result.exit_code == 1


def test_build_rules_select_and_ignore():
    only = build_rules(select=["left-fold"])
    assert [r.id for r in only] == ["left-fold"]
    rest = build_rules(ignore=["left-fold"])
    assert "left-fold" not in [r.id for r in rest]
    assert len(rest) == len(ALL_RULES) - 1
    with pytest.raises(ValueError):
        build_rules(select=["no-such-rule"])
    with pytest.raises(ValueError):
        build_rules(ignore=["no-such-rule"])
