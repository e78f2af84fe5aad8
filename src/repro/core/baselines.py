"""Reference strategies that bracket the two competitors.

The paper compares CWN only against GM; these baselines calibrate the
scale of the comparison in our reproduction and examples:

* :class:`KeepLocal` — no distribution at all.  Every goal runs where it
  was created, so (with the root injected at one PE) utilization collapses
  to ~1/P: the floor any dynamic scheme must clear.
* :class:`RandomPlacement` — each goal is shipped to a uniformly random
  PE, routed shortest-path.  This ignores locality and load but achieves
  statistically even distribution: a strong, scalability-blind ceiling
  reference (it needs global addressing, which §2.1 argues is not
  scalable).
* :class:`RoundRobin` — deterministic cyclic placement over all PEs, the
  classic static-ish spreader, also global and distance-blind.

Both global baselines route goals hop-by-hop to an explicit target; hops
are charged and histogrammed exactly like the competitors' traffic.
"""

from __future__ import annotations

from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy

__all__ = ["KeepLocal", "RandomPlacement", "RoundRobin"]


class KeepLocal(Strategy):
    """No load distribution: every goal stays on its creating PE."""

    name = "local"
    reads_beliefs = False

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        self.machine.enqueue(pe, goal)

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:  # pragma: no cover
        raise AssertionError("KeepLocal never sends goal messages")


class _TargetedPlacement(Strategy):
    """Shared routing for strategies that pick an explicit destination PE."""

    def _pick_target(self, pe: int) -> int:
        raise NotImplementedError

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        target = self._pick_target(pe)
        if target == pe:
            self.machine.enqueue(pe, goal)
            return
        self._hop(pe, GoalMessage(pe, pe, goal, hops=0, target=target))

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        if msg.target == pe:
            msg.goal.hops = msg.hops
            self.machine.enqueue(pe, msg.goal)
        else:
            self._hop(pe, msg)

    def _hop(self, pe: int, msg: GoalMessage) -> None:
        nxt = self.machine.topology.next_hop(pe, msg.target)
        msg.hops += 1
        self.machine.send_goal(pe, nxt, msg)


class RandomPlacement(_TargetedPlacement):
    """Uniform random placement over all PEs (global, locality-blind)."""

    name = "random"
    reads_beliefs = False

    def _pick_target(self, pe: int) -> int:
        return self.machine.rngs[pe].randrange(self.machine.topology.n)


class RoundRobin(_TargetedPlacement):
    """Each PE deals its spawned goals around the machine cyclically."""

    name = "roundrobin"
    reads_beliefs = False

    def setup(self) -> None:
        n = self.machine.topology.n
        # Each source PE starts its cycle at the PE after itself, so
        # early goals spread instead of piling onto PE 0.
        self._cursor = [(pe + 1) % n for pe in range(n)]

    def _pick_target(self, pe: int) -> int:
        n = self.machine.topology.n
        target = self._cursor[pe]
        self._cursor[pe] = (target + 1) % n
        return target

    def describe_params(self) -> dict[str, Any]:
        return {}
