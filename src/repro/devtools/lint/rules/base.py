"""Rule base class and the AST helpers the contract rules share.

Every rule is pure static analysis over one parsed module: it never imports
the code under analysis, so the linter runs on interpreters where the
library's optional dependencies (numpy) are absent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..findings import Finding


@dataclass(frozen=True, slots=True)
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    relpath: str  # POSIX path relative to the lint root
    source: str
    lines: tuple[str, ...]
    tree: ast.Module

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """A determinism-contract check.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` is a tuple of repo-relative POSIX prefixes (directories end
    with ``/``); a rule only sees modules whose path starts with one of
    them, so rules stay scoped to the subsystems whose contract they
    enforce.
    """

    id: str = ""
    title: str = ""
    contract: str = ""  # DESIGN.md section (or PR contract) enforced
    hint: str = ""
    scope: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.scope:
            return True
        return any(
            relpath == prefix or relpath.startswith(prefix)
            for prefix in self.scope
        )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ParsedModule,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=lineno,
            col=col,
            message=message,
            hint=self.hint if hint is None else hint,
            contract=self.contract,
            context=module.line_text(lineno),
        )


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def call_name(node: ast.Call) -> str:
    """The called name: ``f(...)`` -> ``"f"``, ``m.f(...)`` -> ``"m.f"``.

    Deeper attribute chains keep only the last two components
    (``a.b.c(...)`` -> ``"b.c"``), which is what the rules match on.
    """
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            return f"{base.id}.{func.attr}"
        if isinstance(base, ast.Attribute):
            return f"{base.attr}.{func.attr}"
        return func.attr
    return ""


def walk_skipping_calls(
    node: ast.AST, skip_call_names: frozenset[str]
) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into calls of the given names.

    Used by the seed-stride rule: a seed mentioned *inside* a
    ``crc32(f"...{seed}...")`` argument is the sanctioned idiom and must
    not count as an arithmetic participant.
    """
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, ast.Call):
                name = call_name(child)
                if name in skip_call_names or name.split(".")[-1] in skip_call_names:
                    continue
            stack.append(child)


def imported_names(tree: ast.Module, module_name: str, symbol: str) -> set[str]:
    """Local names bound to ``from module_name import symbol`` (with aliases)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module_name:
            for alias in node.names:
                if alias.name == symbol:
                    names.add(alias.asname or alias.name)
    return names
