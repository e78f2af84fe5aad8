"""Canonical run specifications: one simulation as a hashable value.

Every experiment in this reproduction reduces to a bag of independent
runs.  :class:`RunSpec` is one run reified as string-only data: spec
strings for the three factories (:func:`repro.workload.make`,
:func:`repro.topology.make`, :func:`repro.core.make_strategy`), the
full :class:`SimConfig`, the seed, the injection PE and the arrival
block.  Because a spec is pure data it can be

* **shipped to a worker process** (it pickles trivially — no live
  machine state crosses the fork);
* **hashed** — :meth:`RunSpec.key` digests the *canonical* form, so
  spelling aliases (``"cwn"`` vs ``"cwn:radius=9,horizon=2"`` on a
  grid, ``"FIB:9"`` vs ``"fib:9"``) address the same cache entry;
* **stored** — :meth:`to_json` / :meth:`from_json` round-trip exactly.

The canonicalization contract is owned by the registries themselves
(``spec_of`` / ``canonical_spec`` in each package), so a new workload
kind only has to register how to spell itself.  ``RunSpec`` is the
farm's string-only view of a :class:`~repro.scenario.Scenario`:
:meth:`RunSpec.from_scenario` / :meth:`RunSpec.scenario` translate, and
the canonical form and content hash are *defined* as the scenario's
(``SPEC_SCHEMA`` lives there), so a spec, its scenario, and every
spelling in between share one cache address.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..oracle.config import SimConfig
from ..scenario.arrivals import Arrivals
from ..scenario.scenario import SPEC_SCHEMA, Scenario

if TYPE_CHECKING:  # pragma: no cover
    from ..oracle.stats import SimResult

__all__ = ["SPEC_SCHEMA", "RunSpec"]


@dataclass(frozen=True)
class RunSpec:
    """One simulation run as canonical, hashable, JSON-serializable data.

    ``workload`` / ``topology`` / ``strategy`` are factory spec strings;
    the other fields are a :class:`~repro.scenario.Scenario`'s, so
    ``spec.run()`` is bit-identical to ``spec.scenario().run()``.
    """

    workload: str
    topology: str
    strategy: str
    config: SimConfig = field(default_factory=SimConfig)
    seed: int | None = None
    start_pe: int = 0
    arrivals: Arrivals = field(default_factory=Arrivals)

    # -- the Scenario currency ---------------------------------------------------

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "RunSpec":
        """The farm's picklable, string-only view of ``scenario``.

        Raises :class:`ValueError` when the scenario holds objects the
        spec grammar cannot express (those run in-process instead).
        """
        spelled = scenario.spelled()
        return cls(
            spelled.workload,
            spelled.topology,
            spelled.strategy,
            spelled.config,
            spelled.seed,
            spelled.start_pe,
            spelled.arrivals,
        )

    def scenario(self) -> Scenario:
        """This spec as a :class:`~repro.scenario.Scenario` value."""
        cached = self.__dict__.get("_scenario")
        if cached is None:
            cached = Scenario(
                self.workload,
                self.topology,
                self.strategy,
                self.config,
                self.seed,
                self.start_pe,
                self.arrivals,
            )
            object.__setattr__(self, "_scenario", cached)
        return cached

    # -- execution ---------------------------------------------------------------

    def run(self) -> "SimResult":
        """Execute this spec in the current process."""
        return self.scenario().run()

    # -- canonical form and hashing ---------------------------------------------

    def canonical(self) -> "RunSpec":
        """The unique representative of this spec's equivalence class.

        Spec strings are normalized through the registries (the strategy
        against the topology's family, so bare ``"cwn"`` resolves to the
        same explicit parameters :meth:`Scenario.build` would give it)
        and the seed override is folded into the config.
        """
        return RunSpec.from_scenario(self.scenario().canonical())

    def canonical_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form — the preimage of :meth:`key`.

        Defined as (and delegated to) the scenario's
        :meth:`~repro.scenario.Scenario.canonical_dict`: default arrival
        blocks are omitted entirely, so every pre-Scenario single-query
        key — and the cache entries addressed by it — stays valid.
        """
        return self.scenario().canonical_dict()

    def key(self) -> str:
        """Content-address: SHA-256 of the canonical form (memoized).

        Stable across processes and sessions (no hash randomization is
        involved), and identical for every spelling of the same run —
        this is :meth:`Scenario.content_hash` verbatim, so warm caches
        written before the Scenario redesign keep hitting.
        """
        return self.scenario().content_hash()

    # -- plain serialization (non-canonicalizing) --------------------------------

    def to_json(self) -> str:
        """Round-trippable JSON of this spec exactly as spelled."""
        return json.dumps(self.scenario().to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_scenario(Scenario.from_dict(json.loads(text)))
