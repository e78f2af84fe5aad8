"""Call-graph tables and the interprocedural effect fixpoint.

:class:`FlowProject` is the whole-project view: every class and
module-level function in the kernel packages (``repro/core``,
``repro/oracle``, ``repro/pdes``, ``repro/topology``), a name-based MRO
per class, and lazily extracted :class:`~.model.Summary` objects.

The central operation is :meth:`FlowProject.closures_for`: given an
analysis class (virtual dispatch context — ``self.f()`` resolves
through *that* class's MRO, so a hook inherited from ``CWN`` is
analyzed with ``AdaptiveCWN``'s overrides in force) and a set of root
functions, it computes each reachable function's **closure**: the base
effects plus every callee effect, with parameterized localities
substituted through each call edge's argument bindings, iterated to a
fixpoint.  Schedule edges are *not* inlined — the callback's effects do
not happen inside the scheduling function — they are lifted alongside,
so entry-point analysis (:mod:`.strategies`) can instantiate each
scheduled callback with the acting PE its site binds.

Termination: the locality domain is finite (acting / other / global /
param×name×index over program-bounded names), effects are a growing
set in that finite domain, and traces only ever shrink.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..context import ProjectIndex
from ..sources import KERNEL_SCOPE, Sources
from .extract import extract
from .model import (
    Bindings,
    Binding,
    Effect,
    Step,
    Summary,
    Trace,
    bind_call,
    join_trace,
    substitute_binding,
    substitute_loc,
)

__all__ = ["Closure", "FlowProject", "ResolvedSched"]


@dataclass(frozen=True)
class ResolvedSched:
    """A schedule edge with its callback resolved to a summary key."""

    target: str
    site_loc: Tuple[object, ...]
    #: callee parameter -> binding (in the *owning* function's space)
    bindings: Tuple[Tuple[str, object], ...]
    trace: Trace

    @staticmethod
    def canon_binding(binding: Binding) -> object:
        if isinstance(binding, dict):
            return tuple(sorted(binding.items()))
        return binding

    @classmethod
    def make(
        cls,
        target: str,
        site_loc: Tuple[object, ...],
        bindings: Bindings,
        trace: Trace,
    ) -> "ResolvedSched":
        items = tuple(
            sorted((k, cls.canon_binding(v)) for k, v in bindings.items())
        )
        return cls(target, site_loc, items, trace)

    def as_bindings(self) -> Bindings:
        out: Bindings = {}
        for name, value in self.bindings:
            if isinstance(value, tuple) and value and isinstance(value[0], tuple):
                out[name] = dict(value)  # re-inflate per-element bindings
            else:
                out[name] = value  # type: ignore[assignment]
        return out

    def identity(self) -> Tuple[object, ...]:
        return (self.target, self.site_loc, self.bindings)


@dataclass
class Closure:
    """One function's interprocedural facts (parameterized)."""

    effects: Dict[Effect, Trace] = field(default_factory=dict)
    scheds: Dict[Tuple[object, ...], ResolvedSched] = field(default_factory=dict)

    def add_effect(self, effect: Effect, trace: Trace) -> bool:
        old = self.effects.get(effect)
        if old is None:
            self.effects[effect] = trace
            return True
        if len(trace) < len(old):
            self.effects[effect] = trace
        return False

    def add_sched(self, sched: ResolvedSched) -> bool:
        key = sched.identity()
        if key not in self.scheds:
            self.scheds[key] = sched
            return True
        return False


class FlowProject:
    """Tables + summary/closure caches over one :class:`ProjectIndex`."""

    def __init__(
        self, index: ProjectIndex, prefixes: Tuple[str, ...] = KERNEL_SCOPE
    ) -> None:
        self.index = index
        #: class name -> base-class names (first definition wins)
        self.class_bases: Dict[str, Tuple[str, ...]] = {}
        #: (class name, method name) -> (node, rel)
        self.methods: Dict[Tuple[str, str], Tuple[ast.FunctionDef, str]] = {}
        #: module-level function name -> [(node, rel), ...]
        self.functions: Dict[str, List[Tuple[ast.FunctionDef, str]]] = {}
        self._summaries: Dict[str, Summary] = {}
        self._synthetic: Dict[str, Summary] = {}
        self._mro: Dict[str, Tuple[str, ...]] = {}
        self._closures: Dict[Tuple[str, str], Closure] = {}
        self._sources: Dict[str, Sources] = {}
        for rel, ctx in sorted(index.files.items()):
            if not rel.startswith(prefixes):
                continue
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.FunctionDef):
                    self.functions.setdefault(stmt.name, []).append((stmt, rel))
                elif isinstance(stmt, ast.ClassDef):
                    if stmt.name not in self.class_bases:
                        bases = []
                        for b in stmt.bases:
                            if isinstance(b, ast.Name):
                                bases.append(b.id)
                            elif isinstance(b, ast.Attribute):
                                bases.append(b.attr)
                        self.class_bases[stmt.name] = tuple(bases)
                    for sub in stmt.body:
                        if isinstance(sub, ast.FunctionDef):
                            self.methods.setdefault(
                                (stmt.name, sub.name), (sub, rel)
                            )

    # -- resolution ----------------------------------------------------------

    def mro(self, cls: str) -> Tuple[str, ...]:
        """Name-based linearization (DFS, duplicates dropped)."""
        cached = self._mro.get(cls)
        if cached is not None:
            return cached
        out: List[str] = []

        def visit(name: str, seen: Set[str]) -> None:
            if name in seen:
                return
            seen.add(name)
            if name not in out:
                out.append(name)
            for base in self.class_bases.get(name, ()):
                visit(base, seen)

        visit(cls, set())
        self._mro[cls] = tuple(out)
        return self._mro[cls]

    def sources(self, rel: str) -> Sources:
        """The clock/RNG recognizer of one file (built once)."""
        cached = self._sources.get(rel)
        if cached is None:
            cached = self._sources[rel] = Sources(self.index.files[rel].tree)
        return cached

    def summary(self, node: ast.FunctionDef, rel: str, owner: Optional[str]) -> Summary:
        qual = f"{owner}.{node.name}" if owner else node.name
        key = f"{rel}:{qual}"
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        summary = extract(node, rel, owner, self.sources(rel))
        self._summaries[key] = summary
        for synthetic in summary.synthetics:
            self._synthetic[synthetic.key] = synthetic
        return summary

    def resolve_method(self, ctx_cls: str, meth: str) -> Optional[Summary]:
        for cls in self.mro(ctx_cls):
            entry = self.methods.get((cls, meth))
            if entry is not None:
                node, rel = entry
                return self.summary(node, rel, cls)
        return None

    def resolve_super(
        self, ctx_cls: str, owner: Optional[str], meth: str
    ) -> Optional[Summary]:
        chain = self.mro(ctx_cls)
        start = 0
        if owner in chain:
            start = chain.index(owner) + 1
        for cls in chain[start:]:
            entry = self.methods.get((cls, meth))
            if entry is not None:
                node, rel = entry
                return self.summary(node, rel, cls)
        return None

    def resolve_edge(
        self, ctx_cls: str, owner: Optional[str], target: Tuple[str, str]
    ) -> List[Summary]:
        kind, name = target
        if kind == "self":
            found = self.resolve_method(ctx_cls, name)
            return [found] if found is not None else []
        if kind == "super":
            found = self.resolve_super(ctx_cls, owner, name)
            return [found] if found is not None else []
        if kind == "func":
            return [
                self.summary(node, rel, None)
                for node, rel in self.functions.get(name, ())
            ]
        if kind == "synthetic":
            found = self._synthetic.get(name)
            return [found] if found is not None else []
        return []

    def summary_by_key(self, key: str) -> Optional[Summary]:
        return self._summaries.get(key) or self._synthetic.get(key)

    # -- the fixpoint --------------------------------------------------------

    def closures_for(
        self, ctx_cls: str, roots: Sequence[Summary]
    ) -> Dict[str, Closure]:
        """Closures for ``roots`` and everything they reach (memoized)."""
        # reachable set, stopping at already-final closures
        reach: Dict[str, Summary] = {}
        frontier: List[Summary] = list(roots)
        while frontier:
            s = frontier.pop()
            if s.key in reach or (ctx_cls, s.key) in self._closures:
                continue
            reach[s.key] = s
            for edge in s.calls:
                frontier.extend(self.resolve_edge(ctx_cls, s.owner, edge.target))
            for sched in s.scheds:
                frontier.extend(self.resolve_edge(ctx_cls, s.owner, sched.target))

        work: Dict[str, Closure] = {}
        for key, s in reach.items():
            closure = Closure(effects=dict(s.effects))
            for sched in s.scheds:
                for target in self.resolve_edge(ctx_cls, s.owner, sched.target):
                    bindings = bind_call(target.params, sched.args, sched.kwargs)
                    closure.add_sched(
                        ResolvedSched.make(
                            target.key,
                            sched.site_loc,
                            bindings,
                            (
                                Step(
                                    s.qual,
                                    s.rel,
                                    sched.line,
                                    sched.note or f"schedules {target.qual}",
                                ),
                            ),
                        )
                    )
            work[key] = closure

        def closure_of(key: str) -> Optional[Closure]:
            return work.get(key) or self._closures.get((ctx_cls, key))

        changed = True
        passes = 0
        while changed and passes < 100:
            changed = False
            passes += 1
            for key, s in reach.items():
                mine = work[key]
                for edge in s.calls:
                    for target in self.resolve_edge(ctx_cls, s.owner, edge.target):
                        theirs = closure_of(target.key)
                        if theirs is None or theirs is mine:
                            continue
                        bindings = bind_call(target.params, edge.args, edge.kwargs)
                        step = Step(
                            s.qual, s.rel, edge.line,
                            edge.note or f"calls {target.qual}",
                        )
                        for effect, trace in list(theirs.effects.items()):
                            lifted = Effect(
                                effect.kind,
                                effect.what,
                                substitute_loc(effect.loc, bindings),
                            )
                            if mine.add_effect(lifted, join_trace(step, trace)):
                                changed = True
                        for sched in list(theirs.scheds.values()):
                            inner = sched.as_bindings()
                            lifted_sched = ResolvedSched.make(
                                sched.target,
                                substitute_loc(sched.site_loc, bindings),
                                {
                                    p: substitute_binding(v, bindings)
                                    for p, v in inner.items()
                                },
                                join_trace(step, sched.trace),
                            )
                            if mine.add_sched(lifted_sched):
                                changed = True

        for key, closure in work.items():
            self._closures[(ctx_cls, key)] = closure
        return {
            key: self._closures[(ctx_cls, key)]
            for key in set(reach) | {r.key for r in roots}
            if (ctx_cls, key) in self._closures
        }

    def closure(self, ctx_cls: str, summary: Summary) -> Closure:
        return self.closures_for(ctx_cls, [summary])[summary.key]


def flow_for(index: ProjectIndex) -> FlowProject:
    """The (cached) :class:`FlowProject` of one lint pass's index."""
    cached = getattr(index, "_flow_project", None)
    if isinstance(cached, FlowProject):
        return cached
    project = FlowProject(index)
    index._flow_project = project  # type: ignore[attr-defined]
    return project

