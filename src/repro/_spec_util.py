"""Shared helpers for the factories' ``spec_of`` canonicalizers.

The spec-string grammar is the contract between the factories and the
parallel farm's content addressing, so its two failure modes live here,
once:

* a parameter the grammar has no syntax for (``require_defaults``);
* a float that would lose precision in its printed form (``fmt_num``);
* the shared ``key=value,key=value`` parameter form (``parse_kv``);
* the JSON spelling of a content key's preimage (``canonical_json``).
"""

from __future__ import annotations

import json
from typing import Callable, TypeVar

__all__ = ["canonical_json", "fmt_num", "parse_kv", "require_defaults"]

T = TypeVar("T")


def parse_kv(rest: str, coerce: "Callable[[str], T]" = float) -> "dict[str, T]":
    """Parse the ``key=value,key=value`` parameter form shared by the
    strategy and keyword-style workload spec grammars."""
    kwargs: dict[str, T] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            kwargs[key.strip()] = coerce(val)
    return kwargs


def fmt_num(value: float) -> str:
    """Exact spec-string form of a numeric parameter.

    Prefers the compact ``%g`` form but falls back to ``repr`` whenever
    ``%g``'s 6 significant digits would not round-trip — two strategies
    differing in the 7th digit must not collapse to one canonical spec
    (and hence one cache key).  ``repr`` of a float always round-trips
    exactly, so the canonical form is lossless for every value.
    """
    compact = f"{value:g}"
    if float(compact) == value:
        return compact
    return repr(float(value))


def require_defaults(obj: object, **attrs: object) -> None:
    """Raise unless every named attribute still holds its default.

    Used by ``spec_of`` for parameters the spec grammar cannot express:
    such objects have no canonical spelling, and callers (the parallel
    farm) fall back to in-process execution.
    """
    for attr, default in attrs.items():
        if getattr(obj, attr) != default:
            raise ValueError(
                f"{type(obj).__name__}.{attr}={getattr(obj, attr)!r} has no "
                f"spec-string syntax (only the default {default!r} round-trips)"
            )


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` as one
#: shared encoder: ``json.dumps`` builds a new one per call, and
#: ``encode`` keeps no state between calls.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode_str = json.encoder.encode_basestring_ascii


def canonical_json(value: object) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``.

    The spelling every content hash digests.  An exact ``str`` or
    ``int`` (a spec string, a PE, a seed) skips the encoder; every other
    value, ``bool`` and numpy scalars included, goes through it, so this
    spells and raises exactly as ``json.dumps`` does.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return repr(value)
    return _CANONICAL_ENCODER.encode(value)
