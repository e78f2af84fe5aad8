"""fork-unsafe-state — no mutated module-level containers in worker code.

The one worker pool (:class:`repro.parallel.WorkerFleet`, behind both
the farm and ``repro serve``) forks worker processes; every module
already imported at fork time is shared copy-on-write.  A module-level
dict/list/set that code later mutates is a triple hazard: the mutation
dirties COW pages in every worker (memory blow-up), state written
before the fork leaks into all workers (cross-run contamination), and
state written after differs per worker (results depend on which worker
ran the scenario).  Constant module-level tables are fine — this rule
only fires when the module *also* mutates the container in place.

Deliberate process-global caches (read-mostly, deterministic contents)
belong in the committed baseline with a one-line justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from . import RULES, Rule
from ._ast_util import in_scope

_SCOPE = (
    "repro/oracle/",
    "repro/core/",
    "repro/pdes/",
    "repro/topology/",
    "repro/workload/",
    "repro/scenario/",
    "repro/parallel/",
    "repro/experiments/",
    # repro serve runs the farm's WorkerFleet, so everything the service
    # imports is forked into the same workers.
    "repro/serve/",
)

#: constructors whose result is a mutable container
_MUTABLE_CTORS = {
    "dict",
    "list",
    "set",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
}
#: methods that mutate a container in place
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}


def _mutable_kind(value: ast.expr) -> str | None:
    if isinstance(value, ast.Dict):
        return "dict"
    if isinstance(value, ast.List):
        return "list"
    if isinstance(value, ast.Set):
        return "set"
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in _MUTABLE_CTORS:
            return name
    return None


def _module_globals(tree: ast.Module) -> dict[str, tuple[str, int, int]]:
    """name -> (kind, line, col) for module-level mutable containers."""
    out: dict[str, tuple[str, int, int]] = {}
    for stmt in tree.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        kind = _mutable_kind(value)
        if kind is not None:
            out[target.id] = (kind, stmt.lineno, stmt.col_offset)
    return out


def _mutated_names(tree: ast.Module, names: set[str]) -> set[str]:
    """Which of ``names`` the module mutates in place somewhere."""
    hit: set[str] = set()

    def base_name(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
            return expr.value.id
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = base_name(target)
                if name in names:
                    hit.add(name)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = base_name(target)
                if name in names:
                    hit.add(name)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in names
            ):
                hit.add(func.value.id)
    return hit


class ForkUnsafeState(Rule):
    id = "fork-unsafe-state"
    hint = (
        "move the state onto an object created per run (after fork), or "
        "baseline it with a justification if it is deliberately "
        "process-global"
    )

    def check_file(self, ctx, index) -> Iterable[Finding]:
        if not in_scope(ctx.rel, _SCOPE):
            return []
        globals_ = _module_globals(ctx.tree)
        if not globals_:
            return []
        mutated = _mutated_names(ctx.tree, set(globals_))
        out: list[Finding] = []
        for name in sorted(mutated):
            kind, line, col = globals_[name]
            out.append(
                self.finding(
                    ctx,
                    line,
                    col,
                    f"module-level {kind} {name!r} is mutated in place — "
                    f"forked farm workers share it copy-on-write",
                )
            )
        return out


@RULES.register(
    "fork-unsafe-state",
    metadata={
        "summary": "no mutated module-level containers in farm-worker "
        "packages — COW sharing makes them a memory and isolation hazard",
    },
)
def _build(rest: str = "") -> ForkUnsafeState:
    return ForkUnsafeState()
