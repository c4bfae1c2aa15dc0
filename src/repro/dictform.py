"""Strict reading of the plain-dict form that specs serialise to.

A plan file is outside input.  Every ``from_dict`` a plan file reaches reads
its mapping through :func:`strict_fields`, so a key that no ``to_dict``
writes (a typo such as ``"devcies"``, or a retired option) fails with a
``ValueError`` that names it, instead of being ignored or surfacing as a
``TypeError`` from a constructor.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = ["strict_fields"]


def strict_fields(
    data: Any, allowed: Iterable[str], what: str
) -> dict[str, Any]:
    """A copy of ``data`` after checking it maps only ``allowed`` keys.

    ``what`` names the entry in the error, e.g. ``"cell"``.
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"a {what} entry must be a JSON object, got {type(data).__name__}"
        )
    known = set(allowed)
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return dict(data)
