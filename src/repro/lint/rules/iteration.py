"""unordered-iteration — no set iteration in kernel event paths.

The engine's bit-identity guarantees (the golden kernel suite, the
sharded PDES equality) rest on every loop in the event path visiting
items in a deterministic order: iteration order can feed event keys,
float accumulation, and RNG draw sequences.  ``dict`` preserves
insertion order, but ``set``/``frozenset`` iterate in hash order —
which for strings depends on ``PYTHONHASHSEED`` and for ints on
insertion history.  Inside the kernel packages (``oracle``, ``core``,
``pdes``, ``topology``) a set may be *built* and membership-tested
freely, but never iterated raw: wrap it in ``sorted(...)``.

An iterable counts as a set when the function builds it (a literal, a
``set()`` call, a ``.copy()`` or union of known sets) or when it comes
from a set-returning helper::

    def frontier(self):
        return {c.dst for c in self.channels}
    ...
    for pe in self.frontier():   # hash order, invisible locally

The flow project's return-set fixpoint decides the helper case: it
marks every kernel function whose return value may be a set, directly
or by returning another set-returning function's result.

Order-insensitive consumers (``len``, ``min``, ``max``, ``any``,
``all``, ``sorted``, ``set``, ``frozenset``, ``bool``) are fine;
``sum`` is **not** exempt — float addition is order-sensitive.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..findings import Finding
from ..sources import KERNEL_SCOPE, SetTypes, order_sensitive, scope_nodes
from . import RULES, Rule
from ._ast_util import enclosing_class, in_scope


class UnorderedIteration(Rule):
    id = "unordered-iteration"
    hint = "wrap the set in sorted(...) (or keep a sorted tuple alongside)"

    def check_file(self, ctx, index) -> Iterable[Finding]:
        if not in_scope(ctx.rel, KERNEL_SCOPE):
            return []
        from ..flow.taint import set_returning_call

        out: list[Finding] = []

        def check(types: SetTypes, node: ast.expr, verb: str) -> None:
            what = types.describe(node)
            if what is not None:
                out.append(
                    self.finding(
                        ctx, node.lineno, node.col_offset, f"{verb} {what} in hash order"
                    )
                )

        def visit(scope: ast.AST, enclosing: Optional[SetTypes]) -> None:
            cls = enclosing_class(scope)
            owner = cls.name if cls is not None else None
            types = SetTypes(
                scope,
                enclosing,
                helper=lambda call: set_returning_call(index, ctx, owner, call),
            )
            for node in scope_nodes(scope):
                if node is not scope and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    visit(node, types)
                elif isinstance(node, ast.For):
                    check(types, node.iter, "for-loop iterates")
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ):
                    for gen in node.generators:
                        check(types, gen.iter, "comprehension iterates")
                elif isinstance(node, ast.Call):
                    name = order_sensitive(node)
                    if name is not None:
                        check(types, node.args[0], f"{name}() consumes")

        visit(ctx.tree, None)
        return out


@RULES.register(
    "unordered-iteration",
    metadata={
        "summary": "no raw set iteration in kernel event paths "
        "(oracle/core/pdes/topology), sets returned by helpers "
        "included — hash order can feed event keys",
    },
)
def _build(rest: str = "") -> UnorderedIteration:
    return UnorderedIteration()
