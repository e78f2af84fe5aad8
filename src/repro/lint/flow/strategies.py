"""Strategy shardability: declared flags vs. inferred effects.

The PDES shardability contract (:mod:`repro.core.base`,
:mod:`repro.pdes.shard`) says a strategy may run sharded iff, during
the *event phase*, its hooks and their scheduled callbacks

* touch machine state (live loads, queues, sends) only for the acting
  PE,
* touch per-PE strategy state only in the acting PE's row,
* never read-and-write strategy-global scalar state,
* draw only from the acting PE's logged stream (``machine.rngs[pe]``),
* schedule events only at the acting PE's site,
* mutate only undo-logged ``stats`` counters,
* never read the wall clock or iterate a set in hash order.

``setup()``/``start()`` are the **preamble**: replicated identically on
every shard before the event phase (the shard worker runs them
everywhere, then prunes foreign-site events), so locality rules do not
apply there — but anything they *schedule* runs in the event phase at
the site it was scheduled at, and is checked with that site's PE as
acting.

:func:`analyze_strategy` instantiates every entry point, collects the
inferred per-entry effects (the golden effect-summary test pins these),
and derives violations.  A strategy declared ``shardable = True`` with
violations is a contract breach; one declared ``False`` with *no*
violations is a promotion candidate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..context import ProjectIndex
from ..sources import SHARD_MODULE, read_logged_counters
from .model import (
    ACTING,
    Bindings,
    Effect,
    GLOBAL,
    OTHER,
    Summary,
    Trace,
    describe_loc,
    substitute_loc,
)
from .project import FlowProject, ResolvedSched

__all__ = [
    "EntryEffects",
    "StrategyReport",
    "Violation",
    "analyze_strategy",
    "discover_strategies",
    "logged_counters",
]

#: the event hooks; the first parameter names the acting PE
HOOKS: Tuple[str, ...] = (
    "on_goal_created",
    "on_goal_message",
    "on_word",
    "on_idle",
    "on_load_changed",
)
#: replicated-preamble lifecycle methods (locality-exempt)
PREAMBLE: Tuple[str, ...] = ("setup", "start")


@dataclass(frozen=True)
class Violation:
    """One inferred effect that breaks the shardability contract."""

    entry: str
    effect: Effect
    reason: str
    trace: Trace

    def describe(self) -> str:
        return f"{self.entry}: {self.effect.describe()} — {self.reason}"


@dataclass
class EntryEffects:
    """The instantiated effects of one entry point (hook or callback)."""

    label: str
    phase: str  # "event" | "preamble"
    effects: Dict[Effect, Trace] = field(default_factory=dict)


@dataclass
class StrategyReport:
    """Everything the analysis inferred about one registered strategy."""

    name: str
    cls: str
    rel: str
    line: int
    declared: Optional[bool]
    entries: List[EntryEffects] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def inferred_shardable(self) -> bool:
        return not self.violations

    @property
    def promotion_candidate(self) -> bool:
        return self.declared is False and self.inferred_shardable

    @property
    def contract_breach(self) -> bool:
        return bool(self.declared) and not self.inferred_shardable

    def effect_lines(self) -> List[str]:
        """Stable ``entry: effect`` lines (the golden test pins these).

        Pure config reads (``self.x`` scalars never written in the
        event phase) are dropped — they are ubiquitous and carry no
        shardability signal; everything else is kept.
        """
        written: Set[str] = set()
        for entry in self.entries:
            for effect in entry.effects:
                if effect.kind == "write" and effect.what.startswith("self."):
                    written.add(effect.what)
        lines: Set[str] = set()
        for entry in self.entries:
            for effect in entry.effects:
                if (
                    effect.kind == "read"
                    and effect.what.startswith("self.")
                    and not effect.what.endswith("[·]")
                    and effect.what not in written
                ):
                    continue
                lines.add(f"{entry.label}: {effect.describe()}")
        return sorted(lines)


def logged_counters(index: ProjectIndex) -> Optional[Set[str]]:
    """``_LOGGED_COUNTERS`` from ``repro/pdes/shard.py`` (None if absent)."""
    shard = index.find_file(SHARD_MODULE)
    found = None if shard is None else read_logged_counters(shard)
    return None if found is None else found[0]


def discover_strategies(
    index: ProjectIndex,
) -> List[Tuple[str, str, str, int]]:
    """Registered strategies: ``(name, class, rel, register line)``."""
    out: List[Tuple[str, str, str, int]] = []
    seen: Set[Tuple[str, str]] = set()
    for rel in sorted(index.files):
        ctx = index.files[rel]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "register"
                and isinstance(func.value, ast.Name)
                and func.value.id == "STRATEGIES"
            ):
                continue
            if not (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            cls_name: Optional[str] = None
            for kw in node.keywords:
                if kw.arg == "cls" and isinstance(kw.value, ast.Name):
                    cls_name = kw.value.id
            if cls_name is None or (name, cls_name) in seen:
                continue
            seen.add((name, cls_name))
            out.append((name, cls_name, ctx.rel, node.lineno))
    return out


def _declared_shardable(index: ProjectIndex, cls: str) -> Optional[bool]:
    value = index.mro_attr(cls, "shardable")
    if isinstance(value, ast.Constant) and isinstance(value.value, bool):
        return value.value
    return None


def _class_site(index: ProjectIndex, cls: str) -> Tuple[str, int]:
    """Where to anchor findings: the strategy's own class definition."""
    for info in index.classes.get(cls, ()):  # first definition
        return info.rel, info.lineno
    return "", 0


def _entry_bindings(summary: Summary, acting_first: bool) -> Bindings:
    bindings: Bindings = {}
    for i, param in enumerate(summary.params):
        bindings[param] = ACTING if (acting_first and i == 0) else OTHER
    return bindings


def _instantiate(
    effects: Dict[Effect, Trace], bindings: Bindings
) -> Dict[Effect, Trace]:
    out: Dict[Effect, Trace] = {}
    for effect, trace in effects.items():
        lifted = Effect(
            effect.kind, effect.what, substitute_loc(effect.loc, bindings)
        )
        old = out.get(lifted)
        if old is None or len(trace) < len(old):
            out[lifted] = trace
    return out


def _check_entry(
    entry: EntryEffects,
    logged: Optional[Set[str]],
) -> List[Violation]:
    """Contract checks for one event-phase entry (see module docstring)."""
    out: List[Violation] = []
    if entry.phase != "event":
        return out
    for effect, trace in sorted(entry.effects.items()):
        loc = effect.loc
        kind, what = effect.kind, effect.what
        if kind in ("read", "write", "send") and what.startswith("machine."):
            if loc != ACTING:
                verb = {
                    "read": "reads machine state of",
                    "write": "mutates machine state of",
                    "send": "originates a message from",
                }[kind]
                out.append(
                    Violation(
                        entry.label,
                        effect,
                        f"{verb} a PE that is not provably the acting one "
                        f"({describe_loc(loc)})",
                        trace,
                    )
                )
        elif kind in ("read", "write") and what.endswith("[·]"):
            if loc != ACTING:
                out.append(
                    Violation(
                        entry.label,
                        effect,
                        f"touches another PE's row of per-PE strategy state "
                        f"({describe_loc(loc)})",
                        trace,
                    )
                )
        elif kind == "rng":
            if loc == GLOBAL:
                out.append(
                    Violation(
                        entry.label,
                        effect,
                        "draws from a shared/unlogged RNG stream — shards "
                        "interleave draws differently and desynchronize",
                        trace,
                    )
                )
            elif loc != ACTING:
                out.append(
                    Violation(
                        entry.label,
                        effect,
                        f"draws from another PE's logged stream "
                        f"({describe_loc(loc)}) — its owning shard never "
                        f"sees the draw",
                        trace,
                    )
                )
        elif kind == "clock":
            out.append(
                Violation(
                    entry.label,
                    effect,
                    "reads the wall clock in the event phase",
                    trace,
                )
            )
        elif kind == "schedule":
            if loc != ACTING:
                where = (
                    "the machine's global site (site 0)"
                    if loc == GLOBAL
                    else f"a site that is not the acting PE's "
                    f"({describe_loc(loc)})"
                )
                out.append(
                    Violation(
                        entry.label,
                        effect,
                        f"schedules an event at {where} — the owning shard "
                        f"never executes it",
                        trace,
                    )
                )
        elif kind == "counter":
            if logged is not None and what not in logged:
                out.append(
                    Violation(
                        entry.label,
                        effect,
                        f"mutates stats.{what}, which is not in "
                        f"_LOGGED_COUNTERS — rollback past K* corrupts it",
                        trace,
                    )
                )
        elif kind == "set-iter":
            out.append(
                Violation(
                    entry.label,
                    effect,
                    "iterates a set in hash order in the event phase",
                    trace,
                )
            )
    return out


def _shared_scalar_violations(entries: List[EntryEffects]) -> List[Violation]:
    """Strategy-global scalars both read and written in the event phase.

    A write-only scalar (``self.last = pe``) and an augment-only counter
    (``self.steals += 1``) are diagnostics; a scalar that is *read back*
    is decision state shared across PEs — shards diverge on it.
    """
    reads: Dict[str, Tuple[str, Trace]] = {}
    writes: Dict[str, Tuple[str, Effect, Trace]] = {}
    for entry in entries:
        if entry.phase != "event":
            continue
        for effect, trace in entry.effects.items():
            if not effect.what.startswith("self.") or effect.what.endswith("[·]"):
                continue
            if effect.kind == "read":
                reads.setdefault(effect.what, (entry.label, trace))
            elif effect.kind == "write":
                writes.setdefault(effect.what, (entry.label, effect, trace))
    out: List[Violation] = []
    for what in sorted(set(reads) & set(writes)):
        label, effect, trace = writes[what]
        out.append(
            Violation(
                label,
                effect,
                f"{what} is strategy-global scalar state both read and "
                f"written in the event phase — shards diverge on it",
                trace,
            )
        )
    return out


def analyze_strategy(
    project: FlowProject,
    index: ProjectIndex,
    name: str,
    cls: str,
) -> StrategyReport:
    """Infer the effect summaries and verdict for one strategy class."""
    rel, line = _class_site(index, cls)
    report = StrategyReport(
        name=name,
        cls=cls,
        rel=rel,
        line=line,
        declared=_declared_shardable(index, cls),
    )

    roots: List[Tuple[str, Summary, Bindings, str]] = []
    for hook in HOOKS:
        summary = project.resolve_method(cls, hook)
        if summary is None or summary.owner == "Strategy":
            continue  # unimplemented or the abstract no-op
        roots.append((hook, summary, _entry_bindings(summary, True), "event"))
    for meth in PREAMBLE:
        summary = project.resolve_method(cls, meth)
        if summary is None or summary.owner == "Strategy":
            continue
        roots.append((meth, summary, _entry_bindings(summary, False), "preamble"))

    closures = project.closures_for(cls, [s for _, s, _, _ in roots])

    logged = logged_counters(index)
    queue: List[Tuple[str, Summary, Bindings, str]] = list(roots)
    seen: Set[Tuple[str, Tuple[Tuple[str, object], ...]]] = set()
    while queue:
        label, summary, bindings, phase = queue.pop(0)
        ident = (
            summary.key,
            tuple(sorted(
                (k, ResolvedSched.canon_binding(v)) for k, v in bindings.items()
            )),
        )
        if ident in seen:
            continue
        seen.add(ident)
        closure = closures.get(summary.key)
        if closure is None:
            closure = project.closure(cls, summary)
            closures[summary.key] = closure
        entry = EntryEffects(label, phase, _instantiate(closure.effects, bindings))
        report.entries.append(entry)
        report.violations.extend(_check_entry(entry, logged))
        # every scheduled callback becomes a new event-phase entry whose
        # acting PE is the site PE
        for sched in closure.scheds.values():
            target = project.summary_by_key(sched.target)
            if target is None:
                continue
            inst: Bindings = {
                p: _subst_binding(v, bindings)
                for p, v in sched.as_bindings().items()
            }
            site = substitute_loc(sched.site_loc, bindings)
            # strip synthetic line suffixes (`<lambda:133>` -> `<lambda>`)
            # so golden effect pins survive unrelated line shifts
            short = re.sub(r":\d+>$", ">", target.qual.split(".")[-1])
            queue.append(
                (f"{label} -> {short}", target, inst, "event")
            )
            _ = site  # the schedule effect itself was checked above
    report.violations.extend(_shared_scalar_violations(report.entries))
    # deterministic order for reports and goldens
    report.violations.sort(key=lambda v: (v.entry, v.effect, v.reason))
    return report


def _subst_binding(binding: object, bindings: Bindings) -> object:
    from .model import substitute_binding

    return substitute_binding(binding, bindings)  # type: ignore[arg-type]


def render_trace(trace: Trace, indent: str = "    ") -> str:
    return "\n".join(f"{indent}{step.describe()}" for step in trace)
