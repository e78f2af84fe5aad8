"""cache-key-drift — every scenario field reaches the content hash.

The result cache, the farm dedup, and the sharded-equality harness all
key on ``Scenario.content_hash()`` — SHA-256 over ``canonical_dict()``
as JSON text.
A field added to :class:`~repro.scenario.Scenario` (or to the nested
:class:`Arrivals` / :class:`SimConfig` records) that never reaches the
canonical form is the worst kind of bug: two *different* scenarios
share a hash, and the cache serves one's results for the other.  It is
also silent — every suite passes, until someone varies the new field
and gets stale numbers.

Statically checkable because the serializers are literal-keyed:

* every ``Scenario`` field's name appears as a string constant inside
  ``canonical_dict`` (``seed`` instead must be folded by
  ``canonical()`` — it is hashed via the effective config);
* where ``Scenario`` has a ``canonical_json`` — the text the hash
  digests, spliced from literal pieces instead of dumped from the dict
  — every field but ``seed`` appears there as a JSON key (``"name":``
  inside a string constant), so the two forms cannot drift apart;
* every ``Arrivals`` field appears in its ``to_dict``;
* every ``SimConfig`` field has a ``_CFG_COERCE`` coercer or explicit
  special-case handling (its name as a string constant) in the config
  module — otherwise scenario specs cannot round-trip the field and
  the spec spelling diverges from the run config.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterable

from ..findings import Finding
from . import RULES, Rule
from ._ast_util import resolve_module_dict

_SCENARIO = "repro/scenario/scenario.py"
_ARRIVALS = "repro/scenario/arrivals.py"
_CONFIG = "repro/oracle/config.py"


def _class_fields(node: ast.ClassDef) -> list[tuple[str, int]]:
    """Dataclass fields: annotated names in the class body, in order."""
    out: list[tuple[str, int]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.append((stmt.target.id, stmt.lineno))
    return out


def _method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _string_constants(node: ast.AST) -> set[str]:
    return {
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }


def _json_keys(node: ast.AST) -> set[str]:
    """The keys a JSON text builder writes: each ``"name":`` in its constants."""
    return {key for text in _string_constants(node) for key in re.findall(r'"(\w+)":', text)}


def _class_in(index, ctx, name: str) -> ast.ClassDef | None:
    for info in index.classes.get(name, ()):
        if info.rel == ctx.rel:
            return info.node
    return None


class CacheKeyDrift(Rule):
    id = "cache-key-drift"
    hint = (
        "emit the field in the canonical serializer (and bump SPEC_SCHEMA "
        "if the canonical form changes)"
    )

    def _check_serialized(
        self,
        ctx,
        cls: ast.ClassDef,
        method_name: str,
        exempt: set[str],
        emits: Callable[[ast.AST], set[str]] = _string_constants,
    ) -> Iterable[Finding]:
        method = _method(cls, method_name)
        if method is None:
            yield self.finding(
                ctx,
                cls.lineno,
                cls.col_offset,
                f"{cls.name} has no {method_name}() — nothing feeds the "
                f"content hash",
            )
            return
        emitted = emits(method)
        for name, lineno in _class_fields(cls):
            if name in exempt or name in emitted:
                continue
            yield self.finding(
                ctx,
                lineno,
                0,
                f"{cls.name} field {name!r} never appears in "
                f"{method_name}() — scenarios differing only in "
                f"{name!r} share a cache key",
            )

    def check_project(self, index) -> Iterable[Finding]:
        out: list[Finding] = []

        scenario_ctx = index.find_file(_SCENARIO)
        if scenario_ctx is not None:
            cls = _class_in(index, scenario_ctx, "Scenario")
            if cls is not None:
                # seed is hashed via canonical(): it must be folded into
                # the effective config there, not emitted directly.
                out.extend(
                    self._check_serialized(
                        scenario_ctx, cls, "canonical_dict", exempt={"seed"}
                    )
                )
                # The hashed text, where it is spliced rather than dumped
                # from canonical_dict; the seed is spliced into the
                # config's text.
                if _method(cls, "canonical_json") is not None:
                    out.extend(
                        self._check_serialized(
                            scenario_ctx,
                            cls,
                            "canonical_json",
                            exempt={"seed"},
                            emits=_json_keys,
                        )
                    )
                canonical = _method(cls, "canonical")
                folds_seed = canonical is not None and any(
                    isinstance(sub, ast.keyword) and sub.arg == "seed"
                    for sub in ast.walk(canonical)
                )
                if not folds_seed:
                    out.append(
                        self.finding(
                            scenario_ctx,
                            cls.lineno if canonical is None else canonical.lineno,
                            0,
                            "Scenario.canonical() no longer folds the seed "
                            "(no seed= keyword) — seeded scenarios would "
                            "share one cache key",
                            hint="fold seed into the effective config and "
                            "null it in the canonical form",
                        )
                    )

        arrivals_ctx = index.find_file(_ARRIVALS)
        if arrivals_ctx is not None:
            cls = _class_in(index, arrivals_ctx, "Arrivals")
            if cls is not None:
                out.extend(
                    self._check_serialized(arrivals_ctx, cls, "to_dict", exempt=set())
                )

        config_ctx = index.find_file(_CONFIG)
        if config_ctx is not None:
            cls = _class_in(index, config_ctx, "SimConfig")
            coerce = resolve_module_dict(config_ctx.tree, "_CFG_COERCE")
            if cls is not None and coerce is not None:
                known = _string_constants(config_ctx.tree)
                for name, lineno in _class_fields(cls):
                    if name not in known:
                        out.append(
                            self.finding(
                                config_ctx,
                                lineno,
                                0,
                                f"SimConfig field {name!r} has no "
                                f"_CFG_COERCE coercer and no special-case "
                                f"handling — specs cannot round-trip it",
                                hint="add a coercer to _CFG_COERCE (or "
                                "explicit special-casing like costs/"
                                "pe_speeds)",
                            )
                        )
        return out


@RULES.register(
    "cache-key-drift",
    metadata={
        "summary": "every Scenario/Arrivals/SimConfig field reaches the "
        "canonical form, so the content hash distinguishes all scenarios",
    },
)
def _build(rest: str = "") -> CacheKeyDrift:
    return CacheKeyDrift()
