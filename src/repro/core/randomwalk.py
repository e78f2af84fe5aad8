"""Random-walk contracting — CWN stripped of its load information.

An ablation isolating what CWN's neighbor-load table is worth.  The
mechanics are CWN's exactly — every new goal is contracted out at
creation, carries a hop count, must keep at ``radius``, may keep past
``horizon`` — but the forwarding choice is a *uniformly random neighbor*
and the keep decision past the horizon is a coin flip with probability
``keep_prob`` (there is no load to compare against).

Side by side with CWN in the zoo this answers: how much of CWN's win
over GM comes from eager spreading per se (which RandomWalk shares) and
how much from steering along the load gradient (which it lacks)?  The
paper credits CWN's "agility"; this strategy decomposes agility from
information.
"""

from __future__ import annotations

from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy

__all__ = ["RandomWalk"]


class RandomWalk(Strategy):
    """Contract every goal out along a bounded random walk.

    Parameters
    ----------
    radius:
        Maximum hops; a goal arriving with ``hops == radius`` must be
        kept (CWN's rule).
    horizon:
        Minimum hops before a PE may keep the goal (CWN's rule).
    keep_prob:
        Probability that a PE past the horizon keeps the goal rather
        than forwarding it (replaces CWN's local-minimum test).
    """

    name = "randomwalk"
    reads_beliefs = False

    def __init__(self, radius: int = 5, horizon: int = 1, keep_prob: float = 0.3) -> None:
        super().__init__()
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if horizon < 0 or horizon > radius:
            raise ValueError("need 0 <= horizon <= radius")
        if not 0.0 <= keep_prob <= 1.0:
            raise ValueError("keep_prob must be in [0, 1]")
        self.radius = radius
        self.horizon = horizon
        self.keep_prob = keep_prob

    def describe_params(self) -> dict[str, Any]:
        return {
            "radius": self.radius,
            "horizon": self.horizon,
            "keep_prob": self.keep_prob,
        }

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        self._place(pe, GoalMessage(pe, pe, goal, hops=0))

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        self._place(pe, msg)

    def _place(self, pe: int, msg: GoalMessage) -> None:
        machine = self.machine
        rng = machine.rngs[pe]
        if msg.hops >= self.radius or (
            msg.hops >= self.horizon and rng.random() < self.keep_prob
        ):
            msg.goal.hops = msg.hops
            machine.enqueue(pe, msg.goal)
            return
        nbrs = machine.neighbors(pe)
        target = nbrs[rng.randrange(len(nbrs))]
        msg.hops += 1
        machine.send_goal(pe, target, msg)
