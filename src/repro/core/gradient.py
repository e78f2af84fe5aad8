"""The Gradient Model (GM) of Lin & Keller — the paper's competitor.

Section 2.2, operationally.  New subgoals are "simply entered in the
local queue".  A separate asynchronous per-PE *gradient process* wakes
every ``interval`` units and:

1. computes the PE's load (same measure as CWN: queue length) and
   classifies the node — **idle** below the low-water-mark, **abundant**
   above the high-water-mark, **neutral** otherwise;
2. computes its **proximity**: 0 when idle, else 1 + the smallest
   proximity among its immediate neighbors, clamped to
   ``network diameter + 1`` "to avoid unbounded increase";
3. broadcasts the proximity to all neighbors *only if it changed* ("All
   the PEs initially assume that the proximities of their neighbors are
   0");
4. if (and only if) the state is abundant, sends **one** goal message
   from the local queue to the neighbor with least proximity.  "Any PE
   that receives a goal message from its neighbor just adds it to its
   queue."

The proximity is a guess at the shortest distance to an idle PE — the
paper's "good example of how approximate global information can be
maintained using only local checks".

Parameters (paper Table 1): HWM 2 / LWM 1 on grids, HWM 1 / LWM 1 on
lattice-meshes; interval 20 units on both.  The paper notes 20 units is
"fairly low" relative to total run times of 1000-23000 units, which
favours GM, and assumes a communication co-processor executes the
gradient process (we follow both choices).
"""

from __future__ import annotations

from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy, argmin_load

__all__ = ["GradientModel"]


def _water_mark(value: float) -> float:
    """A water mark as paper Table 1 holds it: an ``int`` when integral.

    Bare ``gm`` takes Table 1's ints, ``gm:lwm=1,hwm=2`` parses floats,
    and the constructor's defaults are floats; all of them spell one
    cache key, so all must record the same ``params``.
    """
    return int(value) if float(value).is_integer() else float(value)


class GradientModel(Strategy):
    """Lin & Keller's Gradient Model.

    Parameters
    ----------
    low_water_mark:
        Loads strictly below this make the node *idle*.
    high_water_mark:
        Loads strictly above this make the node *abundant*.
    interval:
        Sleep time between gradient-process cycles.
    ship:
        Which queued goal an abundant node ships: ``"newest"`` (default)
        or ``"oldest"``.
    stagger:
        Randomize (seeded) each PE's first wakeup within one interval, so
        the asynchronous processes do not tick in lockstep.
    tie_break:
        Neighbor choice among equal proximities.
    """

    name = "gm"
    reads_beliefs = False

    IDLE, NEUTRAL, ABUNDANT = range(3)

    def __init__(
        self,
        low_water_mark: float = 1.0,
        high_water_mark: float = 2.0,
        interval: float = 20.0,
        ship: str = "newest",
        stagger: bool = True,
        tie_break: str = "random",
    ) -> None:
        super().__init__()
        if high_water_mark < low_water_mark:
            raise ValueError("high_water_mark must be >= low_water_mark")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if ship not in ("newest", "oldest"):
            raise ValueError(f"unknown ship policy {ship!r}")
        self.low_water_mark = _water_mark(low_water_mark)
        self.high_water_mark = _water_mark(high_water_mark)
        self.interval = float(interval)
        self.ship = ship
        self.stagger = stagger
        self.tie_break = tie_break
        # per-PE state, rebuilt by setup()
        self.proximity: list[int] = []
        self.neighbor_proximity: list[dict[int, int]] = []

    def describe_params(self) -> dict[str, Any]:
        return {
            "low_water_mark": self.low_water_mark,
            "high_water_mark": self.high_water_mark,
            "interval": self.interval,
        }

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        n = self.machine.topology.n
        self.proximity = [0] * n
        self.neighbor_proximity = [
            {nb: 0 for nb in self.machine.neighbors(pe)} for pe in range(n)
        ]

    def start(self) -> None:
        """One asynchronous gradient process per PE.

        Each is an engine tick: one recycled heap entry per PE, carrying
        the PE as its payload.  The stagger offsets come from each PE's
        own RNG stream, so a PE's wakeup schedule depends on nothing
        another PE does.
        """
        machine = self.machine
        engine = machine.engine
        rngs = machine.rngs
        for pe in range(machine.topology.n):
            offset = rngs[pe].random() * self.interval if self.stagger else 0.0
            engine.tick(
                self.interval,
                self._gradient_cycle,
                offset,
                name=f"gm{pe}",
                site=1 + pe,
                payload=pe,
            )

    # -- the asynchronous gradient process ---------------------------------------

    def node_state(self, load: float) -> int:
        """Idle / neutral / abundant classification against the water marks."""
        if load < self.low_water_mark:
            return self.IDLE
        if load > self.high_water_mark:
            return self.ABUNDANT
        return self.NEUTRAL

    def _gradient_cycle(self, pe: int) -> None:
        """One wakeup: classify, recompute proximity, broadcast, relieve.

        Every PE runs this every interval, so :meth:`node_state`'s
        classification is inlined: below the low-water mark is idle,
        above the high-water mark (never below the low one) abundant.
        """
        machine = self.machine
        load = machine.load_of(pe)
        if load < self.low_water_mark:
            prox = 0
        else:
            prox = min(self.neighbor_proximity[pe].values()) + 1
            clamp = machine.diameter + 1
            if prox > clamp:
                prox = clamp
        if prox != self.proximity[pe]:
            self.proximity[pe] = prox
            machine.post_to_neighbors(pe, "prox", prox)
        if load > self.high_water_mark:
            self._ship_one(pe)

    def _ship_one(self, pe: int) -> bool:
        """An abundant node's relief: one goal toward the least proximity.

        Returns whether a goal moved.  Subclasses that relieve
        differently override this (the batch variant ships several).
        """
        machine = self.machine
        goal = machine.take_shippable(pe, newest_first=self.ship == "newest")
        if goal is None:
            # Queue holds only pinned continuations; nothing can move.
            return False
        nbrs = machine.neighbors(pe)
        proxes = list(map(self.neighbor_proximity[pe].__getitem__, nbrs))
        # argmin_load's unique-minimum case inline, as CWN's placement does.
        least = min(proxes)
        if proxes.count(least) == 1:
            target = nbrs[proxes.index(least)]
        else:
            target = argmin_load(nbrs, proxes, machine.rngs[pe], self.tie_break)
        goal.hops += 1
        machine.send_goal(pe, target, GoalMessage(pe, target, goal, goal.hops))
        return True

    # -- event hooks -----------------------------------------------------------

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        """New subgoals are simply entered in the local queue."""
        self.machine.enqueue(pe, goal)

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        """A PE receiving a goal message just adds it to its queue."""
        self.machine.enqueue(pe, msg.goal)

    def on_word(self, dst: int, src: int, kind: str, value: float) -> None:
        if kind == "prox":
            self.neighbor_proximity[dst][src] = int(value)
