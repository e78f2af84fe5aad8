"""Threshold-random sender-initiated placement (Eager et al., 1986).

The simplest sender-initiated policy of the paper's era, and the
benchmark against which directed schemes like CWN justify their load
tables: when a goal is created, keep it if the local queue is below a
**threshold**; otherwise probe — send it to a *random* neighbor, which
applies the same rule with a transfer-count budget, and must keep it
when the budget runs out.

Contrasting this with CWN isolates the value of *directed* transfer:
both are sender-initiated and transfer-bounded; only CWN consults
neighbor loads.  Eager, Lazowska & Zahorjan's analytical result — that
this almost-trivial policy captures most of the benefit of far more
complex ones — is visible in the strategy zoo, as is the gap that
remains to CWN.
"""

from __future__ import annotations

from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy

__all__ = ["ThresholdRandom"]


class ThresholdRandom(Strategy):
    """Keep below threshold, else forward to a uniformly random neighbor.

    Parameters
    ----------
    threshold:
        A PE keeps a newly created or received goal while its own load
        (queue length) is strictly below this.
    max_transfers:
        Transfer-count budget per goal; a goal that has moved this many
        times must be kept (prevents livelock in saturated regimes).
    """

    name = "threshold"
    reads_beliefs = False

    def __init__(self, threshold: float = 2.0, max_transfers: int = 3) -> None:
        super().__init__()
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if max_transfers < 1:
            raise ValueError("max_transfers must be >= 1")
        self.threshold = threshold
        self.max_transfers = max_transfers

    def describe_params(self) -> dict[str, Any]:
        return {"threshold": self.threshold, "max_transfers": self.max_transfers}

    def _place(self, pe: int, msg: GoalMessage) -> None:
        machine = self.machine
        if msg.hops >= self.max_transfers or machine.load_of(pe) < self.threshold:
            msg.goal.hops = msg.hops
            machine.enqueue(pe, msg.goal)
            return
        nbrs = machine.neighbors(pe)
        target = nbrs[machine.rngs[pe].randrange(len(nbrs))]
        msg.hops += 1
        machine.send_goal(pe, target, msg)

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        self._place(pe, GoalMessage(pe, pe, goal, hops=0))

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        self._place(pe, msg)
