"""Intraprocedural effect extraction — one function at a time.

The extractor walks a function body **in program order**, maintaining a
small locality environment (local name → :data:`~.model.Loc`), and
produces a :class:`~.model.Summary`: base effects parameterized over
the function's own parameters, plus symbolic call edges and schedule
edges for the interprocedural fixpoint to resolve.

What it understands:

* the Machine primitive API (``machine.load_of(pe)`` reads the live
  load *of the PE the first argument names* — the table below maps
  each primitive to an effect kind and the argument that carries its
  locality);
* per-PE strategy state (``self._cursor[pe]`` — locality from the
  first subscript applied to the attribute) vs. strategy-global scalar
  state (``self._inbox`` — locality :data:`~.model.GLOBAL`);
* RNG streams (``machine.rngs[pe]`` is the acting stream when ``pe``
  is; a ``self.rng.random()`` draw is a shared stream);
* ``stats.<name>`` counter mutations;
* engine scheduling (``engine.schedule/after/tick``): the
  caller gets a ``schedule`` effect at the *site's* locality, and the
  callback becomes a :class:`~.model.SchedEdge` whose acting PE is the
  site PE — including ``lambda pe=pe: ...`` default-binding, local
  closures, and tuple payloads (``after``'s and a tick's ``payload=``
  bind the callback's first parameter alike);
* wall-clock reads, module-RNG draws and hash-order set iteration, as
  :mod:`repro.lint.sources` defines them for every rule (imports
  resolved, so ``from time import perf_counter`` is a clock read and
  ``random.Random(seed)`` is not a draw).

Everything it does not understand defaults conservatively to
:data:`~.model.OTHER` — the analysis may over-report, never
under-report, non-local effects.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..rules._ast_util import dotted
from ..sources import SetTypes, Sources, order_sensitive
from .model import (
    ACTING,
    Binding,
    CallEdge,
    Effect,
    GLOBAL,
    Loc,
    OTHER,
    SchedEdge,
    Step,
    Summary,
    param_loc,
)

__all__ = ["extract"]

#: Machine primitives: attr -> (effect kind, index of the locality arg).
#: ``None`` index = machine-global.
MACHINE_API: Dict[str, Tuple[str, Optional[int]]] = {
    "load_of": ("read", 0),
    "known_load": ("read", 0),
    "known_loads_of": ("read", 0),
    "enqueue": ("write", 0),
    "take_shippable": ("write", 0),
    "load_changed": ("write", 0),
    "goal_created": ("write", 0),
    "send_goal": ("send", 0),
    "post_word": ("send", 0),
    "post_to_neighbors": ("send", 0),
    "respond": ("send", 0),
    "finished": ("write", None),
}

#: Machine methods that read only static structure (safe anywhere).
MACHINE_PURE = {
    "neighbors",
    "distance",
    "next_hop",
    "diameter",
    "mean_distance",
    "channels_between",
}

#: engine methods that insert events; the value is the action-arg index
SCHED_METHODS = {"schedule": 1, "after": 1, "tick": 1}

#: container methods that mutate their receiver in place
MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

#: instance-RNG draw methods (a draw from a strategy-owned stream)
RNG_METHODS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "normalvariate",
    "randint",
    "random",
    "randrange",
    "sample",
    "shuffle",
    "uniform",
}

#: identity-preserving wrappers ``loc(f(x)) == loc(x)``
_TRANSPARENT_CALLS = {"int", "abs"}


class _Extractor:
    """One pass over one function body (see the module docstring)."""

    def __init__(
        self,
        summary: Summary,
        env: Dict[str, Loc],
        mach: Set[str],
        eng: Set[str],
        sets: SetTypes,
        sources: Sources,
        self_name: Optional[str],
    ) -> None:
        self.s = summary
        self.env = env
        self.mach = mach  # names aliasing self.machine
        self.eng = eng  # names aliasing <machine>.engine
        self.sets = sets
        self.sources = sources
        self.self_name = self_name
        self.calls: List[CallEdge] = []
        self.scheds: List[SchedEdge] = []
        self.synthetics: List[Summary] = []
        self.nested: Dict[str, ast.FunctionDef] = {}

    # -- bookkeeping ---------------------------------------------------------

    def emit(self, node: ast.AST, effect: Effect, note: str) -> None:
        line = int(getattr(node, "lineno", self.s.line))
        self.s.add_effect(effect, (Step(self.s.qual, self.s.rel, line, note),))

    def loc_of(self, node: ast.expr) -> Loc:
        """The locality an expression's *value* names (best effort)."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, OTHER)
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _TRANSPARENT_CALLS
                and node.args
            ):
                return self.loc_of(node.args[0])
        return OTHER

    def binding_of(self, node: ast.expr, site_name: Optional[str] = None) -> Binding:
        """An argument's binding; tuple literals bind per element."""
        if isinstance(node, ast.Tuple):
            return {
                i: self._sched_loc(elt, site_name)
                for i, elt in enumerate(node.elts)
            }
        return self._sched_loc(node, site_name)

    def _sched_loc(self, node: ast.expr, site_name: Optional[str]) -> Loc:
        if (
            site_name is not None
            and isinstance(node, ast.Name)
            and node.id == site_name
        ):
            # the callback runs *at this PE's site* — inside it, this
            # value names the acting PE
            return ACTING
        return self.loc_of(node)

    def _is_machine(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.mach
        name = dotted(node)
        return name is not None and (
            name == "self.machine" or name.endswith(".machine")
        )

    def _is_engine(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.eng or node.id == "engine"
        if isinstance(node, ast.Attribute) and node.attr == "engine":
            return True
        return False

    def _self_attr(self, node: ast.expr) -> Optional[str]:
        """``X`` when the expression is ``self.X`` (and not the machine)."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == (self.self_name or "self")
            and node.attr != "machine"
        ):
            return node.attr
        return None

    def _subscript_base(
        self, node: ast.expr
    ) -> Optional[Tuple[str, ast.expr]]:
        """``(attr, first-index-expr)`` for ``self.X[i]`` / ``self.X[i][j]``."""
        if not isinstance(node, ast.Subscript):
            return None
        inner = node
        while isinstance(inner.value, ast.Subscript):
            inner = inner.value
        attr = self._self_attr(inner.value)
        if attr is None:
            return None
        return attr, inner.slice

    def _stats_attr(self, node: ast.expr) -> Optional[str]:
        """``X`` when the expression is ``<...>.stats.X`` / ``stats.X``."""
        if not isinstance(node, ast.Attribute):
            return None
        value = node.value
        if isinstance(value, ast.Name) and value.id == "stats":
            return node.attr
        if isinstance(value, ast.Attribute) and value.attr == "stats":
            return node.attr
        return None

    # -- statements ----------------------------------------------------------

    def block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested[node.name] = node  # analyzed only if scheduled
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, ast.Assign):
            self.expr(node.value)
            for target in node.targets:
                self._assign(target, node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.expr(node.value)
                self._assign(node.target, node.value)
            return
        if isinstance(node, ast.AugAssign):
            self.expr(node.value)
            self._augment(node)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self.expr(node.iter)
            if self.sets.is_set(node.iter):
                self.emit(
                    node.iter,
                    Effect("set-iter", "set iteration"),
                    "for-loop iterates a set in hash order",
                )
            self._bind_names(node.target, OTHER)
            self.block(node.body)
            self.block(node.orelse)
            return
        if isinstance(node, ast.While):
            self.expr(node.test)
            self.block(node.body)
            self.block(node.orelse)
            return
        if isinstance(node, ast.If):
            self.expr(node.test)
            self.block(node.body)
            self.block(node.orelse)
            return
        if isinstance(node, ast.With):
            for item in node.items:
                self.expr(item.context_expr)
            self.block(node.body)
            return
        if isinstance(node, ast.Try):
            self.block(node.body)
            for handler in node.handlers:
                self.block(handler.body)
            self.block(node.orelse)
            self.block(node.finalbody)
            return
        if isinstance(node, (ast.Return, ast.Expr)) and node.value is not None:
            self.expr(node.value)
            return
        if isinstance(node, ast.Raise):
            if node.exc is not None:
                self.expr(node.exc)
            return
        if isinstance(node, ast.Assert):
            self.expr(node.test)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                sub = self._subscript_base(target)
                if sub is not None:
                    attr, idx = sub
                    self.emit(
                        target,
                        Effect("write", f"self.{attr}[·]", self.loc_of(idx)),
                        f"del self.{attr}[...]",
                    )
            return
        # default: walk any embedded expressions conservatively
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child)

    def _bind_names(self, target: ast.expr, loc: Loc) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = loc
            self.mach.discard(target.id)
            self.eng.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_names(elt, loc)

    def _assign(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            self.env[name] = self.loc_of(value)
            self.mach.discard(name)
            self.eng.discard(name)
            if dotted(value) == "self.machine" or (
                isinstance(value, ast.Name) and value.id in self.mach
            ):
                self.mach.add(name)
            elif isinstance(value, ast.Attribute) and value.attr == "engine":
                self.eng.add(name)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            src = self.loc_of(value)
            for i, elt in enumerate(target.elts):
                if isinstance(elt, ast.Name):
                    if src and src[0] == "param" and len(src) > 2 and src[2] is None:
                        self.env[elt.id] = (src[0], src[1], i)
                    else:
                        self.env[elt.id] = OTHER
                else:
                    self._assign(elt, value)
            return
        stats = self._stats_attr(target)
        if stats is not None:
            self.emit(
                target, Effect("counter", stats), f"stats.{stats} = ..."
            )
            return
        sub = self._subscript_base(target)
        if sub is not None:
            attr, idx = sub
            self.emit(
                target,
                Effect("write", f"self.{attr}[·]", self.loc_of(idx)),
                f"self.{attr}[...] = ...",
            )
            self.expr(idx)
            return
        attr_name = self._self_attr(target)
        if attr_name is not None:
            self.emit(
                target,
                Effect("write", f"self.{attr_name}", GLOBAL),
                f"self.{attr_name} = ...",
            )
            return
        if isinstance(target, ast.Subscript):
            self.expr(target.value)
            self.expr(target.slice)

    def _augment(self, node: ast.AugAssign) -> None:
        target = node.target
        stats = self._stats_attr(target)
        if stats is not None:
            self.emit(target, Effect("counter", stats), f"stats.{stats} += ...")
            return
        sub = self._subscript_base(target)
        if sub is not None:
            attr, idx = sub
            self.emit(
                target,
                Effect("write", f"self.{attr}[·]", self.loc_of(idx)),
                f"self.{attr}[...] += ...",
            )
            return
        attr_name = self._self_attr(target)
        if attr_name is not None:
            # write-only accumulation: a diagnostic counter, not shared
            # decision state — reported but never a violation
            self.emit(
                target,
                Effect("augment", f"self.{attr_name}"),
                f"self.{attr_name} += ...",
            )

    # -- expressions ---------------------------------------------------------

    def expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Lambda):
            self._lambda_inline(node)
            return
        if isinstance(node, ast.Subscript):
            self._subscript(node, write=False)
            return
        if isinstance(node, ast.Attribute):
            attr_name = self._self_attr(node)
            if attr_name is not None:
                self.emit(
                    node,
                    Effect("read", f"self.{attr_name}", GLOBAL),
                    f"reads self.{attr_name}",
                )
            self.expr(node.value)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in node.generators:
                self.expr(gen.iter)
                if self.sets.is_set(gen.iter):
                    self.emit(
                        gen.iter,
                        Effect("set-iter", "set iteration"),
                        "comprehension iterates a set in hash order",
                    )
                self._bind_names(gen.target, OTHER)
                for cond in gen.ifs:
                    self.expr(cond)
            if isinstance(node, ast.DictComp):
                self.expr(node.key)
                self.expr(node.value)
            else:
                self.expr(node.elt)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child)

    def _subscript(self, node: ast.Subscript, write: bool) -> None:
        # machine.rngs[X] / machine.pes[X]
        value = node.value
        if isinstance(value, ast.Attribute) and self._is_machine(value.value):
            if value.attr == "rngs":
                self.emit(
                    node,
                    Effect("rng", "machine.rngs", self.loc_of(node.slice)),
                    "draws from machine.rngs[...]",
                )
                self.expr(node.slice)
                return
            if value.attr == "pes":
                self.emit(
                    node,
                    Effect(
                        "write" if write else "read",
                        "machine.pes",
                        self.loc_of(node.slice),
                    ),
                    "touches machine.pes[...]",
                )
                self.expr(node.slice)
                return
        sub = self._subscript_base(node)
        if sub is not None:
            attr, idx = sub
            self.emit(
                node,
                Effect(
                    "write" if write else "read",
                    f"self.{attr}[·]",
                    self.loc_of(idx),
                ),
                f"touches self.{attr}[...]",
            )
            self.expr(idx)
            return
        self.expr(node.value)
        self.expr(node.slice)

    def _call(self, node: ast.Call) -> None:
        func = node.func

        clock = self.sources.clock(node)
        if clock is not None:
            self.emit(node, Effect("clock", clock), f"reads the wall clock ({clock})")
            self._walk_args(node)
            return

        rng = self.sources.rng_draw(node)
        if rng is not None:
            self.emit(
                node,
                Effect("rng", rng, GLOBAL),
                f"draws from module RNG state ({rng})",
            )
            self._walk_args(node)
            return

        reducer = order_sensitive(node)
        if reducer is not None and self.sets.is_set(node.args[0]):
            self.emit(
                node.args[0],
                Effect("set-iter", "set iteration"),
                f"{reducer}() consumes a set in hash order",
            )

        if isinstance(func, ast.Attribute):
            # engine.schedule / after / tick
            if func.attr in SCHED_METHODS and self._is_engine(func.value):
                self._schedule(node, func.attr)
                return
            # machine primitives
            if self._is_machine(func.value):
                self._machine_call(node, func.attr)
                return
            # super().m(...)
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                self.calls.append(
                    CallEdge(
                        ("super", func.attr),
                        node.lineno,
                        tuple(self.binding_of(a) for a in node.args),
                        tuple(
                            (kw.arg, self.binding_of(kw.value))
                            for kw in node.keywords
                            if kw.arg
                        ),
                        note=f"super().{func.attr}(...)",
                    )
                )
                self._walk_args(node)
                return
            # self.m(...) — a method call on the analysis class
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == (self.self_name or "self")
            ):
                if func.attr == "machine":
                    pass
                self.calls.append(
                    CallEdge(
                        ("self", func.attr),
                        node.lineno,
                        tuple(self.binding_of(a) for a in node.args),
                        tuple(
                            (kw.arg, self.binding_of(kw.value))
                            for kw in node.keywords
                            if kw.arg
                        ),
                        note=f"self.{func.attr}(...)",
                    )
                )
                self._walk_args(node)
                return
            # draws / mutations on self-owned state
            self_attr = self._self_attr(func.value)
            if self_attr is not None:
                if func.attr in RNG_METHODS:
                    self.emit(
                        node,
                        Effect("rng", f"self.{self_attr}", GLOBAL),
                        f"draws from strategy-owned stream self.{self_attr}",
                    )
                elif func.attr in MUTATING_METHODS:
                    self.emit(
                        node,
                        Effect("write", f"self.{self_attr}", GLOBAL),
                        f"self.{self_attr}.{func.attr}(...) mutates it",
                    )
                else:
                    self.emit(
                        node,
                        Effect("read", f"self.{self_attr}", GLOBAL),
                        f"reads self.{self_attr}",
                    )
                self._walk_args(node)
                return
            sub = self._subscript_base(func.value)
            if sub is not None:
                attr, idx = sub
                kind = "write" if func.attr in MUTATING_METHODS else "read"
                if func.attr in RNG_METHODS:
                    self.emit(
                        node,
                        Effect("rng", f"self.{attr}[·]", self.loc_of(idx)),
                        f"draws from per-PE stream self.{attr}[...]",
                    )
                else:
                    self.emit(
                        node,
                        Effect(kind, f"self.{attr}[·]", self.loc_of(idx)),
                        f"self.{attr}[...].{func.attr}(...)",
                    )
                self.expr(idx)
                self._walk_args(node)
                return
            # RNG methods on a machine.rngs[...] receiver are handled by
            # the subscript walk below; everything else: recurse.
            self.expr(func.value)
            self._walk_args(node)
            return

        if isinstance(func, ast.Name):
            if func.id not in _TRANSPARENT_CALLS:
                self.calls.append(
                    CallEdge(
                        ("func", func.id),
                        node.lineno,
                        tuple(self.binding_of(a) for a in node.args),
                        tuple(
                            (kw.arg, self.binding_of(kw.value))
                            for kw in node.keywords
                            if kw.arg
                        ),
                        note=f"{func.id}(...)",
                    )
                )
            self._walk_args(node)
            return

        self.expr(func)
        self._walk_args(node)

    def _walk_args(self, node: ast.Call) -> None:
        for arg in node.args:
            self.expr(arg)
        for kw in node.keywords:
            self.expr(kw.value)

    def _machine_call(self, node: ast.Call, attr: str) -> None:
        if attr in MACHINE_PURE:
            self._walk_args(node)
            return
        spec = MACHINE_API.get(attr)
        if spec is None:
            # unknown machine method: assume it touches non-local state
            self.emit(
                node,
                Effect("read", f"machine.{attr}", OTHER),
                f"calls unrecognized machine API machine.{attr}(...) "
                f"(assumed non-local)",
            )
            self._walk_args(node)
            return
        kind, arg_idx = spec
        if arg_idx is None:
            loc: Loc = GLOBAL
        elif arg_idx < len(node.args):
            loc = self.loc_of(node.args[arg_idx])
        else:
            loc = OTHER
        self.emit(
            node,
            Effect(kind, f"machine.{attr}", loc),
            f"machine.{attr}(...) — locality from argument {arg_idx}",
        )
        self._walk_args(node)

    # -- scheduling ----------------------------------------------------------

    def _site(self, node: ast.Call) -> Tuple[Loc, Optional[str]]:
        """(site locality, site Name id) of a scheduling call."""
        site: Optional[ast.expr] = None
        for kw in node.keywords:
            if kw.arg == "site":
                site = kw.value
        if site is None:
            return GLOBAL, None  # site 0: the machine's global site
        expr = site
        if (
            isinstance(expr, ast.BinOp)
            and isinstance(expr.op, ast.Add)
        ):
            left, right = expr.left, expr.right
            if isinstance(left, ast.Constant) and left.value == 1:
                expr = right
            elif isinstance(right, ast.Constant) and right.value == 1:
                expr = left
        if isinstance(expr, ast.Constant):
            return GLOBAL, None
        loc = self.loc_of(expr)
        name = expr.id if isinstance(expr, ast.Name) else None
        return loc, name

    def _schedule(self, node: ast.Call, method: str) -> None:
        site_loc, site_name = self._site(node)
        self.emit(
            node,
            Effect("schedule", f"engine.{method}", site_loc),
            f"engine.{method}(..., site=...) inserts an event at that site",
        )
        action_idx = SCHED_METHODS[method]
        if action_idx >= len(node.args):
            return
        action = node.args[action_idx]

        payload: Optional[ast.expr] = None
        if method in ("schedule", "after") and len(node.args) > 2:
            payload = node.args[2]
        for kw in node.keywords:  # a tick takes its payload by keyword only
            if kw.arg == "payload":
                payload = kw.value
        payload_args: Tuple[Binding, ...] = ()
        if payload is not None and not (
            isinstance(payload, ast.Constant) and payload.value is None
        ):
            payload_args = (self.binding_of(payload, site_name),)

        # `self._method` callback
        self_attr = self._self_attr(action)
        if self_attr is not None and isinstance(action, ast.Attribute):
            self.scheds.append(
                SchedEdge(
                    ("self", self_attr),
                    node.lineno,
                    site_loc,
                    payload_args,
                    note=f"engine.{method} -> self.{self_attr}",
                )
            )
            return
        # pre-bound call: engine.after(d, self._make(pe)) — the called
        # method stands for the action, its arguments bound at the site
        if (
            isinstance(action, ast.Call)
            and isinstance(action.func, ast.Attribute)
            and self._self_attr(action.func) is not None
        ):
            meth = action.func.attr
            self.scheds.append(
                SchedEdge(
                    ("self", meth),
                    node.lineno,
                    site_loc,
                    tuple(self.binding_of(a, site_name) for a in action.args),
                    tuple(
                        (kw.arg, self.binding_of(kw.value, site_name))
                        for kw in action.keywords
                        if kw.arg
                    ),
                    note=f"engine.{method} -> self.{meth}(...)",
                )
            )
            return
        # lambda callback — extract inline as a synthetic summary whose
        # env rebinds the site name (and site-valued defaults) to ACTING
        if isinstance(action, ast.Lambda):
            self._synthetic_lambda(action, node.lineno, site_loc, site_name, payload_args)
            return
        # a local `def` closure scheduled by name
        if isinstance(action, ast.Name) and action.id in self.nested:
            self._synthetic_def(
                self.nested[action.id], node.lineno, site_loc, site_name
            )
            return
        # module-level function
        if isinstance(action, ast.Name):
            self.scheds.append(
                SchedEdge(
                    ("func", action.id),
                    node.lineno,
                    site_loc,
                    payload_args,
                    note=f"engine.{method} -> {action.id}",
                )
            )

    def _pass_through(self) -> Tuple[Tuple[str, Binding], ...]:
        """Identity bindings: the synthetic shares this function's params."""
        return tuple((p, param_loc(p)) for p in self.s.params)

    def _synthetic_env(self, site_name: Optional[str]) -> Dict[str, Loc]:
        env = dict(self.env)
        if site_name is not None:
            env[site_name] = ACTING
        return env

    def _synthetic_lambda(
        self,
        node: ast.Lambda,
        line: int,
        site_loc: Loc,
        site_name: Optional[str],
        payload_args: Tuple[Binding, ...],
    ) -> None:
        qual = f"{self.s.qual}.<lambda:{line}>"
        synthetic = Summary(qual, self.s.rel, line, self.s.owner, self.s.params)
        env = self._synthetic_env(site_name)
        lam_args = node.args
        defaults = lam_args.defaults
        positional = lam_args.args
        for i, arg in enumerate(positional):
            d = i - (len(positional) - len(defaults))
            if 0 <= d < len(defaults):
                env[arg.arg] = self._sched_loc(defaults[d], site_name)
            elif payload_args and i == 0 and not isinstance(
                payload_args[0], dict
            ):
                env[arg.arg] = payload_args[0]  # action(payload)
            else:
                env[arg.arg] = OTHER
        sub = _Extractor(
            synthetic, env, set(self.mach), set(self.eng), self.sets,
            self.sources, self.self_name,
        )
        sub.nested = dict(self.nested)
        sub.expr(node.body)
        sub.finish()
        self.synthetics.append(synthetic)
        self.synthetics.extend(synthetic.synthetics)
        self.scheds.append(
            SchedEdge(
                ("synthetic", synthetic.key),
                line,
                site_loc,
                kwargs=self._pass_through(),
                note="scheduled lambda",
            )
        )

    def _synthetic_def(
        self,
        node: ast.FunctionDef,
        line: int,
        site_loc: Loc,
        site_name: Optional[str],
    ) -> None:
        qual = f"{self.s.qual}.<{node.name}:{node.lineno}>"
        synthetic = Summary(qual, self.s.rel, node.lineno, self.s.owner, self.s.params)
        env = self._synthetic_env(site_name)
        for arg in node.args.args:
            env[arg.arg] = OTHER
        sub = _Extractor(
            synthetic, env, set(self.mach), set(self.eng),
            SetTypes(node, self.sets), self.sources, self.self_name,
        )
        sub.nested = dict(self.nested)
        sub.block(node.body)
        sub.finish()
        self.synthetics.append(synthetic)
        self.synthetics.extend(synthetic.synthetics)
        self.scheds.append(
            SchedEdge(
                ("synthetic", synthetic.key),
                line,
                site_loc,
                kwargs=self._pass_through(),
                note=f"scheduled closure {node.name}",
            )
        )

    def _lambda_inline(self, node: ast.Lambda) -> None:
        """A lambda in a non-schedule position (e.g. a ``min`` key):
        its body runs synchronously with unknown bindings."""
        saved = dict(self.env)
        for arg in node.args.args:
            self.env[arg.arg] = OTHER
        self.expr(node.body)
        self.env = saved

    def finish(self) -> None:
        self.s.calls = tuple(self.calls)
        self.s.scheds = tuple(self.scheds)
        self.s.synthetics = tuple(self.synthetics)


def extract(
    node: ast.FunctionDef, rel: str, owner: Optional[str], sources: Sources
) -> Summary:
    """Extract the :class:`Summary` of one function definition.

    ``sources`` is the recognizer of the file that defines ``node``.
    """
    args = node.args
    names = [a.arg for a in args.args]
    self_name: Optional[str] = None
    if owner is not None and names and names[0] in ("self", "cls"):
        self_name = names[0]
        names = names[1:]
    names += [a.arg for a in args.kwonlyargs]
    params = tuple(names)
    qual = f"{owner}.{node.name}" if owner else node.name
    summary = Summary(qual, rel, node.lineno, owner, params)
    env: Dict[str, Loc] = {p: param_loc(p) for p in params}
    extractor = _Extractor(
        summary, env, set(), set(), SetTypes(node), sources, self_name
    )
    extractor.block(node.body)
    extractor.finish()
    return summary
