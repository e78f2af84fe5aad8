"""``RunSpec``: an alias of :class:`~repro.scenario.Scenario` for perfbench.

The farm, cache, fleet, plan and service all take ``Scenario``.  This
subclass keeps only the three calls ``perfbench/`` still makes; it goes
when ``repro bench`` does.
"""

from __future__ import annotations

import json

from ..scenario.scenario import Scenario

__all__ = ["RunSpec"]


class RunSpec(Scenario):
    """A :class:`Scenario` spelled as strings; ``key`` is its content hash."""

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "RunSpec":
        s = scenario.spelled()
        return cls(s.workload, s.topology, s.strategy, s.config, s.seed, s.start_pe, s.arrivals)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    key = Scenario.content_hash
