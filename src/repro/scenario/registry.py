"""String-keyed plugin registries behind the ``make`` factories.

Every construction vocabulary in this library — strategies, topologies,
workloads — used to be a closed ``if kind == ...`` chain inside its
package's ``make`` function.  :class:`Registry` replaces those chains
with an open table: each spec *kind* (the part before the first ``:``)
maps to an :class:`Entry` holding

* a **builder** — parses the parameter part of the spec string and
  returns the constructed object;
* an optional **speller** — the inverse mapping, dispatched on the
  object's exact type, producing the canonical spec string the parallel
  farm's content-addressed cache keys on;
* **metadata** — open key/value annotations; the built-in entries carry
  a one-line ``summary``, a constructible ``example`` spec, and (for the
  paper's competitors) the Table-1 ``table1`` per-family parameters.

Registering a new kind is one decorator anywhere in the process::

    from repro.scenario import STRATEGIES

    @STRATEGIES.register("mystrat", cls=MyStrategy,
                         spell=lambda s: "mystrat",
                         metadata={"summary": "...", "example": "mystrat"})
    def _build(rest, family="grid"):
        return MyStrategy()

and the name is instantly understood by ``make_strategy``, every
:class:`~repro.scenario.Scenario`, the plan/farm pipeline, and the CLI
(``repro list`` / ``repro run``).  Out-of-tree packages register
through ``entry_points`` instead: expose a callable under the
registry's group (``repro.strategies``, ``repro.topologies``,
``repro.workloads``) and it is invoked with the registry the first
time an unknown name is looked up (or the names are listed).

Each registry also memoizes :meth:`Registry.canonical`: what a spec
string canonicalizes to.  Content hashing canonicalizes every part of
every scenario, and a sweep spells the same few topologies, workloads
and strategies over and over, so a process builds each spelling's
object once, not once per hash.  The memo holds at most
:data:`CANONICAL_CAPACITY` spellings and is emptied by every
:meth:`~Registry.add` and :meth:`~Registry.remove` (entry-point
discovery registers through ``add``).  It relies on one contract: a
builder and its speller are pure functions of the spec string and its
context.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

__all__ = ["CANONICAL_CAPACITY", "Canonical", "Entry", "Registry"]

#: Most spellings one registry's canonical memo holds.  A sweep spells a
#: handful of topologies, workloads and strategies; the bound only stops
#: a stream of distinct spellings (``repro serve`` takes them from
#: clients) from growing the memo for the life of the process.
CANONICAL_CAPACITY = 1024


@dataclass(frozen=True)
class Entry:
    """One registered spec kind (see :class:`Registry`)."""

    name: str
    builder: Callable[..., Any]
    #: exact type the speller applies to (``spec_of`` dispatch key)
    cls: type | None = None
    #: object -> canonical spec string (raises ValueError when the
    #: object carries parameters the grammar cannot express)
    spell: Callable[[Any], str] | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))


class Canonical(NamedTuple):
    """What canonicalizing one spec string yields (see :meth:`Registry.canonical`)."""

    #: the canonical spec string
    spec: str
    #: the registry's ``facts`` of the built object (``()`` without them)
    facts: tuple[Any, ...]


class Registry:
    """An open, string-keyed factory: spec kind -> :class:`Entry`.

    ``kind_label`` names the vocabulary in error messages ("strategy",
    "topology", "workload"); ``entry_point_group`` optionally names an
    ``importlib.metadata`` entry-point group scanned (once, lazily) for
    out-of-tree registrations.  ``facts`` maps a built object to a
    tuple of immutable values :meth:`canonical` keeps beside its
    spelling, so callers that need them need not build the object.
    """

    def __init__(
        self,
        kind_label: str,
        entry_point_group: str | None = None,
        *,
        facts: Callable[[Any], tuple[Any, ...]] | None = None,
    ) -> None:
        self.kind_label = kind_label
        self.entry_point_group = entry_point_group
        self._facts = facts
        self._entries: dict[str, Entry] = {}
        self._discovered = entry_point_group is None
        #: (spec, *sorted context items) -> Canonical; successes only
        self._canonical: dict[tuple[Any, ...], Canonical] = {}

    # -- registration ------------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        cls: type | None = None,
        spell: Callable[[Any], str] | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register the wrapped builder under ``name``.

        The builder receives the spec's parameter part (everything after
        the first ``:``, possibly empty) plus whatever context keywords
        the factory passes through (strategies get ``family=``).
        """

        def _decorate(builder: Callable[..., Any]) -> Callable[..., Any]:
            self.add(name, builder, cls=cls, spell=spell, metadata=metadata)
            return builder

        return _decorate

    def add(
        self,
        name: str,
        builder: Callable[..., Any],
        *,
        cls: type | None = None,
        spell: Callable[[Any], str] | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> Entry:
        """Imperative form of :meth:`register`; returns the new entry."""
        key = name.strip().lower()
        if not key:
            raise ValueError(f"{self.kind_label} name must be non-empty")
        if key in self._entries:
            raise ValueError(
                f"{self.kind_label} {key!r} is already registered; "
                f"remove() it first to replace"
            )
        entry = Entry(key, builder, cls=cls, spell=spell, metadata=metadata or {})
        self._entries[key] = entry
        self._canonical = {}
        return entry

    def remove(self, name: str) -> None:
        """Unregister ``name`` (mainly for tests and plugin teardown)."""
        del self._entries[name.strip().lower()]
        self._canonical = {}

    # -- lookup ------------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        """Every registered kind, sorted (entry points included)."""
        self._discover()
        return tuple(sorted(self._entries))

    def entry(self, name: str, *, spec: str | None = None) -> Entry:
        """The entry for ``name``; unknown names get the rich error.

        ``spec`` optionally names the full spec string the lookup came
        from, for the error message (:meth:`make` passes it).
        """
        key = name.strip().lower()
        found = self._entries.get(key)
        if found is None:
            self._discover()
            found = self._entries.get(key)
        if found is None:
            raise ValueError(self._unknown_message(key, spec=spec if spec is not None else name))
        return found

    def metadata(self, name: str) -> Mapping[str, Any]:
        """The metadata mapping registered for ``name``."""
        return self.entry(name).metadata

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        key = name.strip().lower()
        if key not in self._entries:
            self._discover()
        return key in self._entries

    # -- construction ------------------------------------------------------------

    def make(self, spec: str, **context: Any) -> Any:
        """Build an object from ``"kind"`` or ``"kind:params"``.

        Unknown kinds raise :class:`ValueError` listing the registered
        names and the nearest match; builder failures are wrapped as
        ``malformed <kind> spec`` with the original cause preserved.
        """
        kind, _, rest = spec.partition(":")
        found = self.entry(kind, spec=spec)
        try:
            return found.builder(rest, **context)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed {self.kind_label} spec {spec!r}: {exc}") from exc

    def spec_of(self, obj: Any) -> str:
        """The canonical spec string that rebuilds ``obj`` (by exact type).

        Raises :class:`ValueError` for unregistered types and for objects
        whose parameters the spec grammar cannot express.
        """
        self._discover()
        for entry in self._entries.values():
            if entry.cls is not None and type(obj) is entry.cls and entry.spell is not None:
                return entry.spell(obj)
        raise ValueError(f"no spec-string syntax for {type(obj).__name__}")

    def canonical(self, spec: str, **context: Any) -> Canonical:
        """The canonical spelling of ``spec`` under ``context``, memoized.

        The first call for a ``(spec, context)`` pair builds the object
        (:meth:`make`), spells it (:meth:`spec_of`) and keeps the result
        with the registry's ``facts``; later calls build nothing.  Only
        successes are kept: a spec that fails raises the same
        :class:`ValueError` on every call.  ``context`` is part of the
        key, since bare strategy names resolve per topology family.
        """
        key = (spec, *sorted(context.items())) if context else (spec,)
        found = self._canonical.get(key)
        if found is not None:
            return found
        # Discovery registers through add(), which empties the memo:
        # run it before taking the memo this result goes into.
        self._discover()
        memo = self._canonical
        built = self.make(spec, **context)
        found = Canonical(self.spec_of(built), self._facts(built) if self._facts else ())
        memo[key] = found
        # Trim the oldest entries in a loop, not once: a trim that loses
        # a race to another thread stops, and the next insert finishes
        # it, so the memo never stays past its bound.
        while len(memo) > CANONICAL_CAPACITY:
            try:
                memo.pop(next(iter(memo)))
            except (KeyError, StopIteration, RuntimeError):
                break
        return found

    # -- diagnostics and discovery -----------------------------------------------

    def _unknown_message(self, kind: str, spec: str) -> str:
        known = ", ".join(sorted(self._entries)) or "(none)"
        msg = (
            f"unknown {self.kind_label} {kind!r} in spec {spec!r}; "
            f"registered: {known}"
        )
        close = difflib.get_close_matches(kind, list(self._entries), n=1)
        if close:
            msg += f" — did you mean {close[0]!r}?"
        return msg

    def _discover(self) -> None:
        """Scan the entry-point group once for out-of-tree plugins.

        Each entry point must resolve to a callable, which is invoked
        with this registry; a plugin that fails to load is skipped (a
        broken third-party package must not take the factories down).
        """
        if self._discovered:
            return
        self._discovered = True
        try:
            from importlib.metadata import entry_points

            points = entry_points(group=self.entry_point_group)
        except Exception:  # pragma: no cover - metadata backend quirks
            return
        for point in points:
            try:
                hook = point.load()
                if callable(hook):
                    hook(self)
            except Exception:  # pragma: no cover - third-party failure
                continue
