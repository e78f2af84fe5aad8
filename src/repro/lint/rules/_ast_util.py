"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast

__all__ = [
    "dotted",
    "enclosing_class",
    "enclosing_function",
    "import_aliases",
    "in_scope",
    "resolve_module_dict",
]


def in_scope(rel: str, prefixes: tuple[str, ...]) -> bool:
    """True when package-relative ``rel`` lives under one of ``prefixes``."""
    return rel.startswith(prefixes)


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module, module: str) -> set[str]:
    """Local names bound to ``module`` (``import x as y`` / ``from p import x``).

    ``module`` is matched by exact name or trailing segment, so
    ``from ..obs import telemetry as _telemetry`` binds ``_telemetry``
    for ``module="telemetry"`` and ``import numpy as np`` binds ``np``
    for ``module="numpy"``.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module or alias.name.split(".")[-1] == module:
                    names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == module:
                    names.add(alias.asname or alias.name)
    return names


def enclosing_function(node: ast.AST) -> ast.AST | None:
    """The nearest enclosing FunctionDef/AsyncFunctionDef/Lambda."""
    cur = getattr(node, "_lint_parent", None)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return cur
        cur = getattr(cur, "_lint_parent", None)
    return None


def enclosing_class(node: ast.AST) -> ast.ClassDef | None:
    """The nearest enclosing ClassDef."""
    cur = getattr(node, "_lint_parent", None)
    while cur is not None:
        if isinstance(cur, ast.ClassDef):
            return cur
        cur = getattr(cur, "_lint_parent", None)
    return None


def resolve_module_dict(tree: ast.Module, name: str) -> ast.Dict | None:
    """The module-level dict literal assigned to ``name`` (or None)."""
    for stmt in tree.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == name:
            if isinstance(value, ast.Dict):
                return value
    return None
