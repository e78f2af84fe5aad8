"""The determinism facts the rules and the flow engine share, each defined once.

Every set-order, wall-clock and RNG question the linter asks is
answered here, so a point rule, the effect extractor and the taint pass
cannot disagree about what the code does:

* :data:`KERNEL_SCOPE` — the packages on the event path;
* :class:`SetTypes` — which expressions are statically sets (hash
  order), and :func:`order_sensitive` — which calls consume an iterable
  in order;
* :class:`Sources` — which calls read the host wall clock or draw from
  module-level RNG state, with the file's ``import m as a`` and
  ``from m import f as g`` bindings resolved wherever they appear;
* :func:`read_logged_counters` — the counters the shard boundary
  protocol undo-logs.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Callable, Dict, Iterator, Optional, Set, Tuple

from .context import FileContext
from .rules._ast_util import dotted

__all__ = [
    "KERNEL_SCOPE",
    "SHARD_MODULE",
    "SetTypes",
    "Sources",
    "is_module_rng",
    "order_sensitive",
    "read_logged_counters",
    "scope_nodes",
]

#: package-relative prefixes of the kernel (the event path)
KERNEL_SCOPE: Tuple[str, ...] = (
    "repro/oracle/",
    "repro/core/",
    "repro/pdes/",
    "repro/topology/",
)

#: calls whose result is statically a set
_SET_CALLS = frozenset({"set", "frozenset"})
#: set methods returning sets
_SET_METHODS = frozenset(
    {
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "copy",
    }
)
#: order-sensitive reducers that consume an iterable argument whole
_ORDER_SENSITIVE = frozenset({"sum", "tuple", "list", "join", "fsum", "accumulate"})

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` over one scope: nested defs are yielded, not entered."""
    todo = deque([scope])
    while todo:
        node = todo.popleft()
        yield node
        if node is scope or not isinstance(node, _DEFS):
            todo.extend(ast.iter_child_nodes(node))


def order_sensitive(call: ast.Call) -> Optional[str]:
    """The reducer's name when ``call`` consumes its first argument in order."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    return name if name in _ORDER_SENSITIVE and call.args else None


class SetTypes:
    """Which expressions are statically set-typed in one scope.

    Two passes, so ``a = {...}; b = a | other`` resolves; a name
    reassigned to a non-set is dropped.  A nested def is its own scope:
    it sees ``enclosing``'s names, and its own assignments stay inside
    it.  With a ``helper`` (call -> name of the set-returning function
    it resolves to), a helper's result counts as a set too.
    """

    def __init__(
        self,
        scope: ast.AST,
        enclosing: Optional["SetTypes"] = None,
        helper: Optional[Callable[[ast.Call], Optional[str]]] = None,
    ) -> None:
        self.helper = helper
        #: set-typed name -> what it holds (see :meth:`describe`)
        self.names: Dict[str, str] = dict(enclosing.names) if enclosing else {}
        for _ in range(2):
            for node in scope_nodes(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                else:
                    continue
                if isinstance(target, ast.Name):
                    what = self.describe(value)
                    if what is not None:
                        self.names[target.id] = what
                    else:
                        self.names.pop(target.id, None)

    def describe(self, node: ast.expr) -> Optional[str]:
        """``"a set"`` or ``"set-returning helper f()"``; None if not a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CALLS:
                return "a set"
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                inner = self.describe(func.value)
                if inner is not None:
                    return inner
            name = self.helper(node) if self.helper is not None else None
            return None if name is None else f"set-returning helper {name}()"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.describe(node.left) or self.describe(node.right)
        return None

    def is_set(self, node: ast.expr) -> bool:
        return self.describe(node) is not None


#: wall-clock reads, by qualified name
_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
#: the modules whose functions share process-global RNG state
_RNG_MODULES = ("random", "numpy.random")
#: module-RNG names that build a seeded generator rather than draw
_SEEDED = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    }
)


def is_module_rng(name: str) -> bool:
    """True when qualified ``name`` is a module-RNG function (not a seeded constructor)."""
    module, _, fn = name.rpartition(".")
    return module in _RNG_MODULES and bool(fn) and name not in _SEEDED


class Sources:
    """Wall-clock reads and module-RNG draws in one file.

    Names are resolved through every import in the file, so
    ``from time import perf_counter``, ``import time as t`` and
    ``import numpy.random as npr`` are recognized; a name no import
    binds is never a source.  ``random.Random(seed)`` and numpy's seeded
    constructors are not draws, but a bare ``default_rng()`` is: it
    seeds from OS entropy.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: local name -> the qualified module or function it is bound to
        self.bound: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.bound[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.bound[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def qualify(self, node: ast.expr) -> Optional[str]:
        """The imported dotted name ``node`` spells (None if not imported)."""
        name = dotted(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self.bound.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def clock(self, call: ast.Call) -> Optional[str]:
        """The wall-clock function ``call`` reads (or None)."""
        name = self.qualify(call.func)
        return name if name in _CLOCKS else None

    def rng_fn(self, node: ast.expr) -> Optional[str]:
        """The module-RNG function ``node`` names (or None)."""
        name = self.qualify(node)
        return name if name is not None and is_module_rng(name) else None

    def rng_draw(self, call: ast.Call) -> Optional[str]:
        """The module-RNG state ``call`` draws from (or None)."""
        name = self.qualify(call.func)
        if name == "numpy.random.default_rng" and not call.args and not call.keywords:
            return name
        return self.rng_fn(call.func)


#: the module whose ``_LOGGED_COUNTERS`` lists the undo-logged counters
SHARD_MODULE = "repro/pdes/shard.py"


def _string_set(value: ast.expr) -> Optional[Set[str]]:
    """String constants inside ``frozenset({...})`` / ``{...}`` literals."""
    if isinstance(value, ast.Call) and value.args:
        return _string_set(value.args[0])
    if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
        out: Set[str] = set()
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.add(elt.value)
            else:
                return None
        return out
    return None


def read_logged_counters(ctx: FileContext) -> Optional[Tuple[Set[str], int]]:
    """``_LOGGED_COUNTERS``'s names and line in ``ctx`` (None unless a literal)."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "_LOGGED_COUNTERS":
                names = _string_set(node.value)
                if names is not None:
                    return names, node.lineno
    return None
