"""left-fold: identity-critical modules accumulate with explicit left folds.

The contract (DESIGN.md §§2.1, 5): every float total that reaches a record
is produced by a strict left fold — ``+=`` in source order,
``repro.folds.left_fold`` or ``np.add.accumulate`` — because the shard
merge *replays* the same IEEE-754 additions in the same order, and the
MakeIdle and learning layers' decisions must not move between
interpreters.  ``math.fsum`` (compensated) and ``np.sum`` (pairwise)
produce different partial sums, and so does the builtin ``sum()`` from
Python 3.12 on, where it compensates float additions (Neumaier); so inside
the scoped modules every reduction must either spell the fold out or carry
a pragma explaining why it is exempt (e.g. exact integer arithmetic).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import ParsedModule, Rule, call_name

_BANNED_CALLS = frozenset({"sum", "fsum", "math.fsum", "np.sum", "numpy.sum"})
_BANNED_ATTRS = frozenset({"sum", "fsum", "nansum", "cumsum"})


class LeftFoldRule(Rule):
    id = "left-fold"
    title = "reduction bypasses the strict left-fold contract"
    contract = "DESIGN.md §2.1, §5"
    hint = (
        "accumulate with an explicit `+=` loop or np.add.accumulate (strict "
        "left fold, same IEEE-754 partial sums the shard merge replays); "
        "integer reductions are exact — pragma them with that reason"
    )
    scope = (
        "src/repro/sim/",
        "src/repro/basestation/",
        "src/repro/metro/execution.py",
        "src/repro/core/",
        "src/repro/learning/",
        "src/repro/energy/",
        "src/repro/rrc/",
        "src/repro/scenarios/",
        "src/repro/metrics/",
        "src/repro/traces/stats.py",
        "src/repro/analysis/",
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            tail = name.split(".")[-1]
            if name in _BANNED_CALLS or (
                isinstance(node.func, ast.Attribute) and tail in _BANNED_ATTRS
            ):
                yield self.finding(
                    module,
                    node,
                    f"`{name}(...)` in an identity-critical module — the "
                    "accumulation order is the contract, not an "
                    "implementation detail",
                )
