"""The open-system arrival block, as one value.

How many instances of the program enter the machine, when and where:
one frozen, hashable value that :class:`~repro.scenario.Scenario`,
:class:`~repro.parallel.spec.RunSpec` and
:class:`~repro.oracle.machine.Machine` all carry as is, with the
validation in exactly one place.

The default instance (one query, injected at the scenario's
``start_pe`` at time 0) is the paper's closed-system run; anything else
turns the machine into an open system — see
:class:`~repro.oracle.machine.Machine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

__all__ = ["Arrivals"]


@dataclass(frozen=True)
class Arrivals:
    """How query instances of the program enter the machine.

    Attributes
    ----------
    queries:
        Number of program instances injected (1 = the paper's closed
        system).
    spacing:
        Uniform inter-arrival time: query *k* arrives at ``k * spacing``.
        Mutually exclusive with ``times``.
    pes:
        Injection PE per query (default: every query at the scenario's
        ``start_pe``).
    times:
        Explicit injection time per query (e.g. a pre-drawn Poisson
        process), overriding the uniform spacing.
    """

    queries: int = 1
    spacing: float = 0.0
    pes: tuple[int, ...] | None = None
    times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # Normalize any sequence spelling to tuples so every Arrivals is
        # hashable and sequence-type differences cannot split cache keys.
        if self.pes is not None:
            object.__setattr__(self, "pes", tuple(int(p) for p in self.pes))
        if self.times is not None:
            object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if self.queries < 1:
            raise ValueError("queries must be >= 1")
        if not (math.isfinite(self.spacing) and self.spacing >= 0):
            raise ValueError(f"spacing must be finite and >= 0, got {self.spacing}")
        if self.pes is not None and len(self.pes) != self.queries:
            raise ValueError(f"pes has {len(self.pes)} entries for {self.queries} queries")
        if self.times is not None:
            if self.spacing != 0.0:
                raise ValueError("pass times or spacing, not both")
            if len(self.times) != self.queries:
                raise ValueError(
                    f"times has {len(self.times)} entries for {self.queries} queries"
                )
            if not all(math.isfinite(t) and t >= 0 for t in self.times):
                raise ValueError("times must be finite and non-negative")

    # -- properties --------------------------------------------------------------

    @property
    def is_default(self) -> bool:
        """True for the closed-system default (single query at time 0).

        Default arrivals are omitted from canonical dicts entirely, so
        every pre-existing single-query content hash (and the cache
        entries addressed by it) stays valid.
        """
        return self.queries == 1 and self.pes is None and self.times is None

    def check_pes(self, n_pes: int) -> None:
        """Validate the injection PEs against a machine of ``n_pes``."""
        if self.pes is not None and not all(0 <= pe < n_pes for pe in self.pes):
            raise ValueError(f"pes entries must be valid PE indices 0..{n_pes - 1}")

    # -- canonical form ----------------------------------------------------------

    def canonical(self) -> "Arrivals":
        """The unique representative of this block's equivalence class.

        With one query and no explicit times, the spacing is never read
        (query 0 arrives at 0 regardless) — zero it so it cannot split
        content hashes.  ``pes`` stays: the machine injects even a
        single query at ``pes[0]``.
        """
        if self.queries == 1 and self.times is None and self.spacing != 0.0:
            return replace(self, spacing=0.0)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``arrivals`` block of canonical dicts)."""
        return {
            "queries": self.queries,
            "spacing": self.spacing,
            "pes": None if self.pes is None else list(self.pes),
            "times": None if self.times is None else list(self.times),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Arrivals":
        """Inverse of :meth:`to_dict`."""
        return cls(
            queries=int(data.get("queries", 1)),
            spacing=float(data.get("spacing", 0.0)),
            pes=data.get("pes"),
            times=data.get("times"),
        )
