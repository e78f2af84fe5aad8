"""Diffusion load balancing — periodic nearest-neighbor averaging.

Another natural point in the strategy space the paper's conclusion opens
up (formalized contemporaneously by Cybenko, 1989): every ``interval``
units each PE compares its load with each neighbor's *believed* load and
ships a fraction ``alpha`` of every positive difference toward that
neighbor.  Like GM it is periodic and keeps new goals local; unlike GM
it moves work down *every* gradient simultaneously rather than one goal
toward the nearest presumed-idle PE.

This gives the strategy zoo a smooth-relaxation corner: agile like CWN
in steady state, but with GM's slow start (nothing moves until the
first period elapses).
"""

from __future__ import annotations

from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy

__all__ = ["Diffusion"]


class Diffusion(Strategy):
    """Periodic diffusive exchange with immediate neighbors.

    Parameters
    ----------
    alpha:
        Fraction of each positive load difference shipped per cycle.
        Stability requires ``alpha <= 1 / (max_degree + 1)`` for strict
        diffusion; since we ship integral goals the practical constraint
        is just ``0 < alpha <= 0.5``.
    interval:
        Sleep time between exchange cycles.
    stagger:
        Randomize each PE's first wakeup within one interval.
    """

    name = "diffusion"

    def __init__(
        self, alpha: float = 0.25, interval: float = 20.0, stagger: bool = True
    ) -> None:
        super().__init__()
        if not 0.0 < alpha <= 0.5:
            raise ValueError("alpha must be in (0, 0.5]")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.alpha = alpha
        self.interval = interval
        self.stagger = stagger

    def describe_params(self) -> dict[str, Any]:
        return {"alpha": self.alpha, "interval": self.interval}

    def start(self) -> None:
        machine = self.machine
        engine = machine.engine
        rngs = machine.rngs
        for pe in range(machine.topology.n):
            offset = rngs[pe].random() * self.interval if self.stagger else 0.0
            engine.tick(
                self.interval,
                self._diffuse_cycle,
                offset,
                name=f"diff{pe}",
                site=1 + pe,
                payload=pe,
            )

    def _diffuse_cycle(self, pe: int) -> None:
        """One exchange cycle: ship down every positive believed gradient."""
        machine = self.machine
        my_load = machine.load_of(pe)
        if my_load < 2:  # keep at least the executing item's successor
            return
        nbrs = machine.neighbors(pe)
        # One belief-row fetch up front: belief updates only ever arrive
        # via later engine events, so prefetching cannot change behavior.
        known = machine.known_loads_of(pe, nbrs)
        for nb, nb_load in zip(nbrs, known):
            diff = my_load - nb_load
            quota = int(self.alpha * diff)
            for _ in range(quota):
                goal = machine.take_shippable(pe, newest_first=True)
                if goal is None:
                    break
                goal.hops += 1
                machine.send_goal(pe, nb, GoalMessage(pe, nb, goal, hops=goal.hops))
            my_load = machine.load_of(pe)
            if my_load < 2:
                break

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        self.machine.enqueue(pe, goal)

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        self.machine.enqueue(pe, msg.goal)
