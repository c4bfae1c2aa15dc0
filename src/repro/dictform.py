"""Strict reading of the plain-dict form that specs serialise to.

A plan file is outside input.  Every ``from_dict`` a plan file reaches reads
its mapping through :func:`strict_fields`, which refuses two kinds of entry
with a ``ValueError`` before any constructor sees a value:

* a key that no ``to_dict`` writes (a typo such as ``"devcies"``, or a
  retired option) — the error names it;
* a value whose JSON type is not the one ``to_dict`` writes for its key
  (``"4"`` for a device count, ``null`` for a duration, ``[7]`` for the
  carrier list) — the error names the entry kind, the key and the value,
  instead of a ``TypeError`` from a constructor or a crash mid-run.

A field's type is one of ``"integer"``, ``"number"`` (an integer or a
float, never ``true``/``false``), ``"string"``, ``"boolean"`` and
``"object"``; ``"list[T]"`` is a list of ``T``, and a bare ``"list"`` one
whose entries the caller reads with their own ``from_dict``.  A trailing
``?`` also admits ``null``, for fields whose value may be ``None``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

__all__ = ["strict_fields"]

_SCALAR_TYPES: dict[str, Callable[[Any], bool]] = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, Mapping),
}


def _matches(value: Any, kind: str) -> bool:
    """Whether ``value`` is of the JSON field type ``kind``."""
    if kind.endswith("?"):
        return value is None or _matches(value, kind[:-1])
    if kind == "list":
        return isinstance(value, (list, tuple))
    if kind.startswith("list[") and kind.endswith("]"):
        return isinstance(value, (list, tuple)) and all(
            _matches(item, kind[5:-1]) for item in value
        )
    return _SCALAR_TYPES[kind](value)


def strict_fields(
    data: Any, fields: Mapping[str, str], what: str
) -> dict[str, Any]:
    """A copy of ``data`` after checking its keys and value types.

    ``fields`` maps every key ``to_dict`` writes to its JSON type;
    ``what`` names the entry in the error, e.g. ``"cell"``.
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"a {what} entry must be a JSON object, got {type(data).__name__}"
        )
    unknown = [key for key in data if key not in fields]
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(fields))}"
        )
    for key, value in data.items():
        kind = fields[key]
        if not _matches(value, kind):
            expected = (f"{kind[:-1]} or null" if kind.endswith("?")
                        else kind)
            raise ValueError(
                f"{what} key {key!r} must be {expected}, got {value!r}"
            )
    return dict(data)
