"""The strict left fold behind every identity-critical float total.

Byte-identity (docs/DESIGN.md §2.1) pins the order of float additions, not
just their operands: a total is ``((0 + v0) + v1) + ...`` in iteration
order.  The builtin ``sum()`` is that fold only up to Python 3.11 — from
3.12 on it compensates float additions (Neumaier summation) — and
``math.fsum`` / ``np.sum`` round differently too.  Float totals under
``repro.core``, ``repro.learning``, ``repro.energy``, ``repro.rrc``,
``repro.scenarios``, ``repro.metrics`` and ``repro.traces.stats`` therefore
go through :func:`left_fold`; the repro-lint ``left-fold`` rule keeps
``sum()`` out of those modules.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["left_fold"]


def left_fold(values: Iterable[float]) -> float:
    """``((0 + v0) + v1) + ...``: the total of ``values`` in iteration order.

    Exactly what ``sum(values)`` returned up to Python 3.11, including the
    integer ``0`` of an empty input (``0 + x`` is ``0.0 + x`` for a float).
    """
    total = 0
    for value in values:
        total += value
    return total
