"""undo-coverage — every stats counter the kernel mutates is undo-logged.

The sharded PDES engine (:mod:`repro.pdes.shard`) rolls back optimistic
work by replaying an undo log; ``ShardStats`` intercepts counter writes
via ``__setattr__`` for exactly the names in its ``_LOGGED_COUNTERS``
frozenset.  A counter that exists on
:class:`repro.oracle.stats.StatsCollector` but is *missing* from that
set silently survives rollback with a corrupted value — the sharded
run still completes and still matches event counts, just with wrong
statistics.  That drift is invisible to the golden suites until a
Table-1 column moves.

Three checks, all cross-file:

* every zero-initialized ``StatsCollector`` counter appears in
  ``_LOGGED_COUNTERS``;
* every ``_LOGGED_COUNTERS`` entry still has a matching collector
  field (stale entries mask the first check);
* every ``stats.<name> += ...`` in kernel code targets a registered
  counter (classes that opt out with ``shardable = False`` are exempt
  — they never run sharded).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..sources import SHARD_MODULE, read_logged_counters
from . import RULES, Rule
from ._ast_util import enclosing_class, in_scope

_STATS = "repro/oracle/stats.py"
_SCOPE = ("repro/oracle/", "repro/core/", "repro/pdes/")


def _collector_counters(ctx) -> dict[str, int]:
    """``self.<name> = 0`` assignments in ``StatsCollector.__init__``."""
    out: dict[str, int] = {}
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "StatsCollector"):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"):
                continue
            for sub in ast.walk(stmt):
                if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
                    continue
                target, value = sub.targets[0], sub.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(value, ast.Constant)
                    and value.value == 0
                    and isinstance(value.value, int)
                    and not isinstance(value.value, bool)
                ):
                    out[target.attr] = sub.lineno
    return out


def _stats_target(node: ast.AugAssign) -> str | None:
    """``X`` when the target is ``stats.X`` / ``<expr>.stats.X``."""
    target = node.target
    if not isinstance(target, ast.Attribute):
        return None
    value = target.value
    if isinstance(value, ast.Name) and value.id == "stats":
        return target.attr
    if isinstance(value, ast.Attribute) and value.attr == "stats":
        return target.attr
    return None


class UndoCoverage(Rule):
    id = "undo-coverage"
    hint = (
        "add the counter to _LOGGED_COUNTERS in repro/pdes/shard.py so "
        "ShardStats undo-logs it (and keep both lists in sync)"
    )

    def check_project(self, index) -> Iterable[Finding]:
        shard = index.find_file(SHARD_MODULE)
        stats = index.find_file(_STATS)
        if shard is None or stats is None:
            return []
        logged_info = read_logged_counters(shard)
        if logged_info is None:
            return [
                self.finding(
                    shard.rel,
                    1,
                    0,
                    "could not locate a literal _LOGGED_COUNTERS set in "
                    "the shard module",
                    hint="keep _LOGGED_COUNTERS a literal frozenset so "
                    "coverage is statically checkable",
                )
            ]
        logged, logged_line = logged_info
        counters = _collector_counters(stats)

        out: list[Finding] = []
        for name in sorted(set(counters) - logged):
            out.append(
                self.finding(
                    stats.rel,
                    counters[name],
                    0,
                    f"StatsCollector counter {name!r} is not in "
                    f"_LOGGED_COUNTERS — sharded rollback corrupts it",
                )
            )
        for name in sorted(logged - set(counters)):
            out.append(
                self.finding(
                    shard.rel,
                    logged_line,
                    0,
                    f"_LOGGED_COUNTERS entry {name!r} has no matching "
                    f"StatsCollector counter (stale entry)",
                    hint="remove the stale entry or restore the counter",
                )
            )

        # Kernel-side increments must target registered counters.
        for ctx in index.files.values():
            if not in_scope(ctx.rel, _SCOPE):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.AugAssign):
                    continue
                name = _stats_target(node)
                if name is None or name in logged:
                    continue
                cls = enclosing_class(node)
                if cls is not None:
                    shardable = index.mro_attr(cls.name, "shardable")
                    if (
                        isinstance(shardable, ast.Constant)
                        and shardable.value is False
                    ):
                        continue
                out.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"stats.{name} is mutated in kernel code but not "
                        f"undo-logged ({name!r} not in _LOGGED_COUNTERS)",
                    )
                )
        return out


@RULES.register(
    "undo-coverage",
    metadata={
        "summary": "every StatsCollector counter kernel code mutates is in "
        "shard.py's _LOGGED_COUNTERS, so sharded rollback restores it",
    },
)
def _build(rest: str = "") -> UndoCoverage:
    return UndoCoverage()
