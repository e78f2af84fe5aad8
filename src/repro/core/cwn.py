"""Contracting Within a Neighborhood (CWN) — the paper's scheme.

Section 2.1, operationally:

1. every PE keeps load information about its immediate neighbors (the
   machine's load-information service);
2. *any time a subgoal is created on a PE* it consults this information
   and sends the new goal message to its least loaded neighbor — every
   goal is contracted out, carrying a hop-count field;
3. a PE receiving a goal message keeps it if the hop count equals the
   allowed **radius**; otherwise it forwards it to its own least loaded
   neighbor after adding 1 to the count — *unless* its own load is less
   than its least loaded neighbor's **and** the message has already
   travelled the stipulated minimum hops (the **horizon**), in which case
   it keeps the goal;
4. a goal, once accepted, is pinned: "it cannot be re-sent elsewhere".

So a new subgoal "travels along the steepest load gradient to a local
minimum"; the horizon forces it to "look over the horizon" past the
source's possibly myopic view (and possibly come straight back — the
paper calls this out explicitly).

Parameters (paper Table 1): radius 9 / horizon 2 on the grids, radius 5 /
horizon 1 on the lattice-meshes.

Faithfulness note on the keep comparison.  The text says a PE keeps a
goal when "its own load is less than its least loaded neighbor's".  Read
strictly, a goal crossing an *evenly* loaded region (everything 0 early
in a run, everything equal at saturation) never satisfies the strict
inequality and always walks the full radius — which would make the mean
goal distance approach the radius.  The paper's Table 3 instead shows a
mode at 1-2 hops and a mean of 3.15 (radius 9-10), which is only possible
if goals also stop on *ties*.  We therefore default to ``keep_on_tie=True``
(own load <= least loaded neighbor keeps the goal, horizon permitting);
``keep_on_tie=False`` gives the literal strict reading for comparison,
and the ablation bench quantifies the difference.
"""

from __future__ import annotations

from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy, argmin_load

__all__ = ["CWN"]


class CWN(Strategy):
    """Contracting Within a Neighborhood.

    Parameters
    ----------
    radius:
        Maximum distance a goal message may travel; on arrival with
        ``hops == radius`` the goal must be kept.
    horizon:
        Minimum distance a goal must travel before a PE that considers
        itself the local load minimum may keep it.
    tie_break:
        ``"random"`` (default) or ``"lowest"`` among equally loaded
        neighbors.
    """

    name = "cwn"

    def __init__(
        self,
        radius: int = 5,
        horizon: int = 1,
        tie_break: str = "random",
        keep_on_tie: bool = True,
    ) -> None:
        super().__init__()
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if horizon < 0 or horizon > radius:
            raise ValueError("need 0 <= horizon <= radius")
        if tie_break not in ("random", "lowest"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.radius = radius
        self.horizon = horizon
        self.tie_break = tie_break
        self.keep_on_tie = keep_on_tie

    def describe_params(self) -> dict[str, Any]:
        return {"radius": self.radius, "horizon": self.horizon}

    # -- placement ---------------------------------------------------------------

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        self._place(pe, GoalMessage(pe, pe, goal))

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        self._place(pe, msg)

    def _place(self, pe: int, msg: GoalMessage) -> None:
        # CWN's per-hop cost, paid by every goal at its source and again
        # at each PE it reaches: acceptance and argmin_load's usual
        # unique-minimum case run inline rather than as calls.
        machine = self.machine
        if msg.hops >= self.radius:
            msg.goal.hops = msg.hops
            machine.enqueue(pe, msg.goal)
            return
        nbrs = machine.neighbors(pe)
        loads = machine.known_loads_of(pe, nbrs)
        least = min(loads)
        if msg.hops >= self.horizon:
            own = machine.load_of(pe)
            if own < least or (self.keep_on_tie and own == least):
                # Local minimum past the horizon: keep the goal here.
                msg.goal.hops = msg.hops
                machine.enqueue(pe, msg.goal)
                return
        if loads.count(least) == 1:
            target = nbrs[loads.index(least)]
        else:
            target = argmin_load(nbrs, loads, machine.rngs[pe], self.tie_break)
        msg.hops += 1
        machine.send_goal(pe, target, msg)
