"""hot-path-slots: kernel dataclasses are slotted; no replace() on hot paths.

The contract (DESIGN.md §2.2, the PR 5 hot-path overhaul): objects the
kernel allocates per event or per packet declare ``__slots__`` (or
``@dataclass(slots=True)``) so attribute access stays a fixed-offset load
and per-instance dicts never appear in the hot path; and
``dataclasses.replace`` — which re-runs ``__init__`` and field validation
per call — is banned in packet-block paths, where blocks are built once
and shifted by direct construction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import ParsedModule, Rule, imported_names

_SLOTS_SCOPE = ("src/repro/sim/", "src/repro/rrc/tables.py")
_REPLACE_SCOPE = (
    "src/repro/sim/",
    "src/repro/traces/streaming.py",
    "src/repro/traces/packet.py",
    "src/repro/metro/streams.py",
)


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return dec
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return dec
    return None


def _declares_slots(node: ast.ClassDef, decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        for kw in decorator.keywords:
            if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        if isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class HotPathSlotsRule(Rule):
    id = "hot-path-slots"
    title = "unslotted kernel dataclass / replace() on a packet-block path"
    contract = "DESIGN.md §2.2"
    hint = (
        "declare @dataclass(slots=True) (or __slots__) on kernel "
        "dataclasses; build shifted packets by direct construction instead "
        "of dataclasses.replace"
    )
    scope = _SLOTS_SCOPE + _REPLACE_SCOPE

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        relpath = module.relpath
        in_slots_scope = any(
            relpath == p or relpath.startswith(p) for p in _SLOTS_SCOPE
        )
        in_replace_scope = any(
            relpath == p or relpath.startswith(p) for p in _REPLACE_SCOPE
        )
        replace_aliases = imported_names(module.tree, "dataclasses", "replace")
        for node in ast.walk(module.tree):
            if in_slots_scope and isinstance(node, ast.ClassDef):
                decorator = _dataclass_decorator(node)
                if decorator is not None and not _declares_slots(node, decorator):
                    yield self.finding(
                        module,
                        node,
                        f"kernel dataclass {node.name} does not declare "
                        "slots=True",
                    )
            elif in_replace_scope and isinstance(node, ast.Call):
                func = node.func
                is_replace = (
                    isinstance(func, ast.Name) and func.id in replace_aliases
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "replace"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "dataclasses"
                )
                if is_replace:
                    yield self.finding(
                        module,
                        node,
                        "dataclasses.replace on a packet-block path — "
                        "construct the shifted record directly",
                    )
