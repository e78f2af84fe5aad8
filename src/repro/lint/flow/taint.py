"""Determinism taint and return-type (set) summaries.

Two lighter companions to the effect engine, over the same function
tables:

**Determinism taint** tracks values *derived from* nondeterministic
sources — wall-clock reads, module-state RNG draws, hash-order set
iteration — through local assignments and function returns, and reports
them when they reach a determinism-critical sink: a ``SimResult(...)``
field, an undo-logged ``stats.<counter>`` write, or a cache-key hash.
Each finding carries the full propagation chain for ``--explain``.  The
sources are the ones the point rules see (:mod:`repro.lint.sources`),
so ``from time import perf_counter`` and ``import time as t`` taint a
value as surely as ``time.perf_counter()`` does.

**Return-set summaries** let ``unordered-iteration`` see sets that
cross a call: a helper that *returns* a set is invisible to local type
inference, so ``for x in neighbors_of(n)`` would iterate in hash order
unflagged.  A small fixpoint marks every function whose return value
may be a set (directly, or by returning another set-returning call),
and the rule treats such a call's result as a set.

Both analyses resolve ``self.m()`` through the *defining* class's MRO
(no per-subclass contexts — precision strategies need, taint does not).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..context import FileContext, ProjectIndex
from ..rules._ast_util import dotted, enclosing_function
from ..sources import SetTypes, scope_nodes
from .model import Step, Trace, join_trace
from .project import FlowProject, flow_for

__all__ = [
    "FuncRef",
    "TaintFinding",
    "TaintAnalysis",
    "returns_set_keys",
    "set_returning_call",
]

#: hash constructors / digest helpers that make a cache key
_HASH_CALLS = {
    "sha256",
    "sha1",
    "md5",
    "blake2b",
    "blake2s",
    "content_hash",
}


#: (rel, owner-or-None, function name) — one analyzed function
FuncRef = Tuple[str, Optional[str], str]


def _functions(ctx: FileContext) -> Iterator[Tuple[Optional[str], ast.FunctionDef]]:
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield None, stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    yield stmt.name, sub


def _call_ref(
    project: FlowProject, ctx_rel: str, owner: Optional[str], call: ast.Call
) -> List[FuncRef]:
    """Resolve a call expression to analyzed-function references."""
    func = call.func
    if isinstance(func, ast.Name):
        return [
            (rel, None, func.id) for _, rel in project.functions.get(func.id, ())
        ]
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and owner is not None
    ):
        for cls in project.mro(owner):
            entry = project.methods.get((cls, func.attr))
            if entry is not None:
                _, rel = entry
                return [(rel, cls, func.attr)]
    return []


# -- return-set summaries ----------------------------------------------------


def returns_set_keys(project: FlowProject) -> Set[FuncRef]:
    """Every analyzed function whose return value may be a set."""
    cached = getattr(project, "_returns_set", None)
    if isinstance(cached, set):
        return cached

    base: Set[FuncRef] = set()
    deps: Dict[FuncRef, Set[FuncRef]] = {}
    for rel in sorted(project.index.files):
        ctx = project.index.files[rel]
        for owner, node in _functions(ctx):
            ref: FuncRef = (ctx.rel, owner, node.name)
            sets = SetTypes(node)
            name_from_call: Dict[str, List[FuncRef]] = {}
            for sub in scope_nodes(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    if isinstance(target, ast.Name) and isinstance(
                        sub.value, ast.Call
                    ):
                        refs = _call_ref(project, ctx.rel, owner, sub.value)
                        if refs:
                            name_from_call[target.id] = refs
            for sub in scope_nodes(node):
                if not isinstance(sub, ast.Return) or sub.value is None:
                    continue
                value = sub.value
                if sets.is_set(value):
                    base.add(ref)
                elif isinstance(value, ast.Call):
                    deps.setdefault(ref, set()).update(
                        _call_ref(project, ctx.rel, owner, value)
                    )
                elif isinstance(value, ast.Name) and value.id in name_from_call:
                    deps.setdefault(ref, set()).update(name_from_call[value.id])

    out = set(base)
    changed = True
    while changed:
        changed = False
        for ref, targets in deps.items():
            if ref not in out and targets & out:
                out.add(ref)
                changed = True
    project._returns_set = out  # type: ignore[attr-defined]
    return out


def set_returning_call(
    index: ProjectIndex,
    ctx: FileContext,
    owner: Optional[str],
    call: ast.Call,
) -> Optional[str]:
    """The name of the set-returning function this call resolves to (or None)."""
    project = flow_for(index)
    known = returns_set_keys(project)
    for ref in _call_ref(project, ctx.rel, owner, call):
        if ref in known:
            return ref[2]
    return None


# -- determinism taint -------------------------------------------------------


@dataclass(frozen=True)
class TaintFinding:
    """A nondeterministic value reaching a determinism-critical sink."""

    rel: str
    line: int
    col: int
    sink: str
    source: str
    chain: Trace


class TaintAnalysis:
    """Module-wide taint pass (see the module docstring)."""

    def __init__(self, project: FlowProject, scope: Tuple[str, ...]) -> None:
        self.project = project
        self.scope = scope
        #: FuncRef -> source chain when the return value may be tainted
        self.tainted_returns: Dict[FuncRef, Trace] = {}
        self._compute_returns()

    # A function's return is tainted when it returns a source
    # expression, a tainted local, or a tainted-returning call.
    def _compute_returns(self) -> None:
        changed = True
        passes = 0
        while changed and passes < 20:
            changed = False
            passes += 1
            for rel in sorted(self.project.index.files):
                if not rel.startswith(self.scope):
                    continue
                ctx = self.project.index.files[rel]
                for owner, node in _functions(ctx):
                    ref: FuncRef = (ctx.rel, owner, node.name)
                    if ref in self.tainted_returns:
                        continue
                    env = self._local_taint(ctx, owner, node)
                    for sub in ast.walk(node):
                        if not isinstance(sub, ast.Return) or sub.value is None:
                            continue
                        chain = self._expr_taint(ctx, owner, node, env, sub.value)
                        if chain is not None:
                            step = Step(
                                self._qual(owner, node.name),
                                ctx.rel,
                                sub.lineno,
                                "returned from here",
                            )
                            self.tainted_returns[ref] = join_trace(step, chain)
                            changed = True
                            break

    def _qual(self, owner: Optional[str], name: str) -> str:
        return f"{owner}.{name}" if owner else name

    def _source(
        self, ctx: FileContext, node: ast.expr
    ) -> Optional[Tuple[str, Step]]:
        """A direct nondeterminism source inside this expression."""
        sources = self.project.sources(ctx.rel)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                clock = sources.clock(sub)
                if clock is not None:
                    return (
                        f"wall clock ({clock})",
                        Step("", ctx.rel, sub.lineno, f"{clock}() read here"),
                    )
                rng = sources.rng_draw(sub)
                if rng is not None:
                    return (
                        f"module RNG state ({rng})",
                        Step("", ctx.rel, sub.lineno, f"{rng}() drawn here"),
                    )
        return None

    def _local_taint(
        self, ctx: FileContext, owner: Optional[str], node: ast.FunctionDef
    ) -> Dict[str, Tuple[str, Trace]]:
        """name -> (source description, chain) for tainted locals."""
        # the env is flat over nested defs, but each def keeps its own sets
        sets: Dict[ast.AST, SetTypes] = {node: SetTypes(node)}

        def sets_at(scope: ast.AST) -> SetTypes:
            if scope not in sets:
                sets[scope] = SetTypes(scope, sets_at(enclosing_function(scope) or node))
            return sets[scope]

        env: Dict[str, Tuple[str, Trace]] = {}
        for _ in range(2):  # two passes resolve forward chains enough
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    if not isinstance(target, ast.Name):
                        continue
                    chain = self._expr_taint(ctx, owner, node, env, sub.value)
                    if chain is not None:
                        src = env.get(target.id)
                        step = Step(
                            self._qual(owner, node.name),
                            ctx.rel,
                            sub.lineno,
                            f"assigned to {target.id}",
                        )
                        desc = chain[-1].note if chain else "nondeterministic"
                        if src is None:
                            env[target.id] = (desc, join_trace(step, chain))
                    else:
                        env.pop(target.id, None)
                elif isinstance(sub, ast.AugAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    # accumulation (`parts += str(item)`) keeps and
                    # spreads taint — never clears it
                    chain = self._expr_taint(ctx, owner, node, env, sub.value)
                    if chain is not None and sub.target.id not in env:
                        step = Step(
                            self._qual(owner, node.name),
                            ctx.rel,
                            sub.lineno,
                            f"accumulated into {sub.target.id}",
                        )
                        desc = chain[-1].note if chain else "nondeterministic"
                        env[sub.target.id] = (desc, join_trace(step, chain))
                elif isinstance(sub, (ast.For, ast.AsyncFor)):
                    scope = enclosing_function(sub) or node
                    if sets_at(scope).is_set(sub.iter) and isinstance(sub.target, ast.Name):
                        step = Step(
                            self._qual(owner, node.name),
                            ctx.rel,
                            sub.iter.lineno,
                            "bound by set iteration (hash order)",
                        )
                        env.setdefault(
                            sub.target.id, ("set iteration order", (step,))
                        )
        return env

    def _expr_taint(
        self,
        ctx: FileContext,
        owner: Optional[str],
        func: ast.FunctionDef,
        env: Dict[str, Tuple[str, Trace]],
        node: ast.expr,
    ) -> Optional[Trace]:
        """The taint chain of an expression (None when clean)."""
        direct = self._source(ctx, node)
        if direct is not None:
            _, step = direct
            return (step,)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in env:
                return env[sub.id][1]
            if isinstance(sub, ast.Call):
                for ref in _call_ref(self.project, ctx.rel, owner, sub):
                    chain = self.tainted_returns.get(ref)
                    if chain is not None:
                        step = Step(
                            self._qual(owner, func.name),
                            ctx.rel,
                            sub.lineno,
                            f"call to {self._qual(ref[1], ref[2])} returns a "
                            f"tainted value",
                        )
                        return join_trace(step, chain)
        return None

    # -- sinks ---------------------------------------------------------------

    def findings(self, logged: Optional[Set[str]]) -> List[TaintFinding]:
        out: List[TaintFinding] = []
        for rel in sorted(self.project.index.files):
            if not rel.startswith(self.scope):
                continue
            ctx = self.project.index.files[rel]
            for owner, node in _functions(ctx):
                env = self._local_taint(ctx, owner, node)
                for sub in ast.walk(node):
                    out.extend(
                        self._check_sinks(ctx, owner, node, env, sub, logged)
                    )
        out.sort(key=lambda f: (f.rel, f.line, f.col, f.sink))
        return out

    def _check_sinks(
        self,
        ctx: FileContext,
        owner: Optional[str],
        func: ast.FunctionDef,
        env: Dict[str, Tuple[str, Trace]],
        node: ast.AST,
        logged: Optional[Set[str]],
    ) -> Iterator[TaintFinding]:
        # sink 1: SimResult(...) fields
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            last = name.rsplit(".", 1)[-1] if name else None
            if last == "SimResult":
                for kw in node.keywords:
                    chain = self._expr_taint(ctx, owner, func, env, kw.value)
                    if chain is not None:
                        yield TaintFinding(
                            ctx.rel,
                            node.lineno,
                            node.col_offset,
                            f"SimResult field {kw.arg!r}",
                            chain[-1].note,
                            chain,
                        )
                for arg in node.args:
                    chain = self._expr_taint(ctx, owner, func, env, arg)
                    if chain is not None:
                        yield TaintFinding(
                            ctx.rel,
                            node.lineno,
                            node.col_offset,
                            "SimResult field",
                            chain[-1].note,
                            chain,
                        )
            # sink 3: cache-key hashes
            elif last in _HASH_CALLS:
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    chain = self._expr_taint(ctx, owner, func, env, arg)
                    if chain is not None:
                        yield TaintFinding(
                            ctx.rel,
                            node.lineno,
                            node.col_offset,
                            f"cache key ({last})",
                            chain[-1].note,
                            chain,
                        )
        # sink 2: undo-logged stats counters
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                value = target.value
                is_stats = (
                    isinstance(value, ast.Name) and value.id == "stats"
                ) or (isinstance(value, ast.Attribute) and value.attr == "stats")
                if not is_stats:
                    continue
                if logged is not None and target.attr not in logged:
                    continue
                chain = self._expr_taint(ctx, owner, func, env, node.value)
                if chain is not None:
                    yield TaintFinding(
                        ctx.rel,
                        node.lineno,
                        node.col_offset,
                        f"undo-logged counter stats.{target.attr}",
                        chain[-1].note,
                        chain,
                    )
