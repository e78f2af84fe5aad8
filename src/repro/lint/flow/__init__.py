"""``repro.lint.flow`` — interprocedural effect inference.

The flow engine turns the repo's central correctness claim — *a
strategy declared* ``shardable = True`` *really is shard-local* — from
a reviewed convention into a proof obligation.  It builds a call graph
over the kernel packages, extracts per-function effect summaries
(machine-state reads/writes, RNG draws, wall-clock reads, ``stats``
counter mutations, event scheduling, set-iteration order taint) with
*parameterized localities*, propagates them to an interprocedural
fixpoint, and instantiates every strategy entry point (hooks plus
scheduled callbacks) with its acting PE.

Layers (each its own module):

* :mod:`.model` — effects, localities, summaries, traces;
* :mod:`.extract` — intraprocedural extraction (the Machine primitive
  table, scheduling-site semantics, per-PE vs. strategy-global state);
* :mod:`.project` — call-graph tables, MRO resolution, the fixpoint;
* :mod:`.strategies` — entry-point instantiation and the shardability
  verdict;
* :mod:`.taint` — determinism taint and set-returning-helper summaries.

What counts as a wall-clock read, a module-RNG draw or a set comes from
:mod:`repro.lint.sources`, the same definitions the point rules use.
Two lint rules sit on top (``shardable-contract`` and
``determinism-taint``), and ``unordered-iteration`` asks the
return-set fixpoint whether a call's result is a set.  The proof runs
in ``repro lint``, not at run time: the PDES layer trusts the declared
``shardable`` flag that the lint gate has already proved.
"""

from __future__ import annotations

from .model import ACTING, Effect, GLOBAL, Loc, OTHER, Step, Summary, Trace
from .project import Closure, FlowProject, flow_for
from .strategies import (
    HOOKS,
    PREAMBLE,
    StrategyReport,
    Violation,
    analyze_strategy,
    discover_strategies,
    logged_counters,
)

__all__ = [
    "ACTING",
    "Closure",
    "Effect",
    "FlowProject",
    "GLOBAL",
    "HOOKS",
    "Loc",
    "OTHER",
    "PREAMBLE",
    "Step",
    "StrategyReport",
    "Summary",
    "Trace",
    "Violation",
    "analyze_strategy",
    "discover_strategies",
    "flow_for",
    "logged_counters",
    "strategy_reports",
]


def strategy_reports(index: "object") -> "dict[str, StrategyReport]":
    """Analyze every registered strategy (cached on the index)."""
    from ..context import ProjectIndex

    assert isinstance(index, ProjectIndex)
    cached = getattr(index, "_strategy_reports", None)
    if isinstance(cached, dict):
        return cached
    project = flow_for(index)
    reports: "dict[str, StrategyReport]" = {}
    for name, cls, _rel, _line in discover_strategies(index):
        reports[name] = analyze_strategy(project, index, name, cls)
    index._strategy_reports = reports  # type: ignore[attr-defined]
    return reports

