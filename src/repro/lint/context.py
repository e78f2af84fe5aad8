"""Parsed-source context shared by every rule.

The engine parses each file exactly once into a :class:`FileContext`
(source, AST with parent links, waiver comments) and aggregates them
into a :class:`ProjectIndex` — the cross-file view the contract rules
(undo-coverage, registry-contract, cache-key-drift) need: every class
definition in the tree with its base names and class-level attributes,
plus lookup of anchor modules by path suffix.

Paths are normalized to be *package-relative*: the reported path starts
at the last ``repro`` directory component (``repro/oracle/machine.py``),
so findings and baseline entries are stable whether the linter runs
over ``src/repro`` in the repo, an installed package, or a test fixture
tree that mimics the layout.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ClassInfo", "FileContext", "ProjectIndex", "parents", "rel_path"]

#: ``# lint: ok`` or ``# lint: ok[rule-a,rule-b] — reason`` waives the
#: findings of the named rules (or all rules) on that source line.
_WAIVER_RE = re.compile(r"#\s*lint:\s*ok(?:\[([A-Za-z0-9_,\- ]+)\])?")


def rel_path(path: Path) -> str:
    """Package-relative POSIX path (from the last ``repro`` component)."""
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def parents(tree: ast.AST) -> None:
    """Annotate every node with ``._lint_parent`` (None on the root)."""
    tree._lint_parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


@dataclass
class FileContext:
    """One parsed source file."""

    path: Path
    rel: str
    source: str
    lines: list[str]
    tree: ast.Module
    #: line -> rule ids waived there (``{"*"}`` = all rules)
    waivers: dict[int, set[str]]

    @classmethod
    def parse(cls, path: Path) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        parents(tree)
        lines = source.splitlines()
        waivers: dict[int, set[str]] = {}
        for lineno, text in enumerate(lines, start=1):
            m = _WAIVER_RE.search(text)
            if m is None:
                continue
            names = m.group(1)
            waived = (
                {"*"}
                if names is None
                else {n.strip() for n in names.split(",") if n.strip()}
            )
            waivers[lineno] = waived
        return cls(path, rel_path(path), source, lines, tree, waivers)

    def line_text(self, lineno: int) -> str:
        """Stripped source text of 1-based ``lineno`` (baseline anchor)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def waived(self, lineno: int, rule: str) -> bool:
        """True when a waiver on this line (or the one above) covers ``rule``.

        The line-above form supports statements too long to carry a
        trailing comment.
        """
        for at in (lineno, lineno - 1):
            names = self.waivers.get(at)
            if names and ("*" in names or rule in names):
                return True
        return False


@dataclass
class ClassInfo:
    """One class definition, as the contract rules see it."""

    name: str
    rel: str
    lineno: int
    #: last segment of each base expression ("Strategy" for base.Strategy)
    bases: tuple[str, ...]
    #: class-level simple assignments: name -> value expression
    attrs: dict[str, ast.expr]
    node: ast.ClassDef

    def attr_constant(self, name: str) -> object:
        """The literal value of class attribute ``name`` (or None)."""
        value = self.attrs.get(name)
        if isinstance(value, ast.Constant):
            return value.value
        return None


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


@dataclass
class ProjectIndex:
    """Every parsed file plus a cross-file class table."""

    files: dict[str, FileContext] = field(default_factory=dict)
    #: class name -> definitions (a name may repeat across modules)
    classes: dict[str, list[ClassInfo]] = field(default_factory=dict)

    def add(self, ctx: FileContext) -> None:
        self.files[ctx.rel] = ctx
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs: dict[str, ast.expr] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        attrs[target.id] = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    if isinstance(stmt.target, ast.Name):
                        attrs[stmt.target.id] = stmt.value
            bases = tuple(
                b for b in (_base_name(e) for e in node.bases) if b is not None
            )
            info = ClassInfo(node.name, ctx.rel, node.lineno, bases, attrs, node)
            self.classes.setdefault(node.name, []).append(info)

    def find_file(self, suffix: str) -> FileContext | None:
        """The file whose package-relative path ends with ``suffix``."""
        for rel, ctx in self.files.items():
            if rel.endswith(suffix):
                return ctx
        return None

    def is_subclass(self, cls: str, root: str, _seen: frozenset = frozenset()) -> bool:
        """Name-based transitive subclass test (``cls`` may equal ``root``)."""
        if cls == root:
            return True
        if cls in _seen:
            return False
        for info in self.classes.get(cls, ()):
            for base in info.bases:
                if self.is_subclass(base, root, _seen | {cls}):
                    return True
        return False

    def mro_attr(self, cls: str, attr: str) -> ast.expr | None:
        """``attr``'s defining expression, searching base classes by name."""
        queue = [cls]
        seen: set[str] = set()
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            for info in self.classes.get(name, ()):
                if attr in info.attrs:
                    return info.attrs[attr]
                queue.extend(info.bases)
        return None

    def topology_families(self) -> set[str]:
        """Every concrete ``family`` string defined on a Topology subclass."""
        out: set[str] = set()
        for infos in self.classes.values():
            for info in infos:
                if not self.is_subclass(info.name, "Topology"):
                    continue
                value = info.attr_constant("family")
                if isinstance(value, str) and value != "abstract":
                    out.add(value)
        return out
