"""Centralized scheduling — the anti-pattern §1 argues against, measured.

The paper's introduction dismisses centralized load balancing on
message-passing machines in one sentence ("for scalability, it must not
be centralised at a few PEs").  :class:`CentralScheduler` makes that
argument quantitative: every newly created goal is routed to a single
**manager** PE, which dispatches it to the least-loaded PE in the whole
machine.

The manager is deliberately *idealized on information and charged on
transport*:

* it reads true instantaneous loads of all PEs (better knowledge than
  any distributed scheme could ever have — a strict upper bound on what
  centralization could do), but
* every goal physically travels source → manager → destination through
  the network, occupying channels hop by hop, and the manager's decision
  itself costs ``dispatch_cost`` simulated time units, serialized on one
  co-processor queue.

On 25 PEs the central scheme is competitive; as the machine grows, the
channels around the manager saturate and the dispatch queue backs up —
the scalability wall, visible in the zoo bench as a utilization collapse
that worsens with machine size while CWN's stays flat.  That is §1's
claim, reproduced rather than asserted.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy

__all__ = ["CentralScheduler"]


class CentralScheduler(Strategy):
    """Route all goals through one manager PE with global load knowledge.

    Parameters
    ----------
    manager:
        PE index that hosts the dispatcher (default 0).
    dispatch_cost:
        Simulated time the manager's co-processor spends per dispatch
        decision; decisions are serialized (one dispatcher), so this is
        the centralization bottleneck knob.  0 models a free oracle —
        transport contention then remains the only centralization cost.
    """

    name = "central"
    # The manager reads every PE's queue depth synchronously at dispatch
    # time — global state, not replicable across shards.
    shardable = False
    reads_beliefs = False

    def __init__(self, manager: int = 0, dispatch_cost: float = 0.5) -> None:
        super().__init__()
        if manager < 0:
            raise ValueError("manager must be a valid PE index")
        if dispatch_cost < 0:
            raise ValueError("dispatch_cost must be >= 0")
        self.manager = manager
        self.dispatch_cost = dispatch_cost
        #: goals dispatched (diagnostic counter)
        self.dispatched = 0
        #: maximum dispatcher backlog observed (diagnostic)
        self.max_backlog = 0

    def describe_params(self) -> dict[str, Any]:
        return {"manager": self.manager, "dispatch_cost": self.dispatch_cost}

    def setup(self) -> None:
        if self.manager >= self.machine.topology.n:
            raise ValueError(
                f"manager {self.manager} outside 0..{self.machine.topology.n - 1}"
            )
        self.dispatched = 0
        self.max_backlog = 0
        self._inbox: deque[Goal] = deque()
        self._dispatcher_running = False

    # -- placement ---------------------------------------------------------------

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        if pe == self.manager:
            self._submit(goal)
            return
        # Route to the manager; target field carries the manager as the
        # interim destination, switched to the final PE on dispatch.
        msg = GoalMessage(pe, pe, goal, hops=0, target=self.manager)
        self._hop(pe, msg)

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        # Disambiguation invariant: messages *to* the manager are always
        # submissions (a goal dispatched to the manager itself is
        # enqueued locally, never sent), so target==pe==manager means
        # "dispatch me" and target==pe elsewhere means "I was dispatched
        # here".
        if msg.target != pe:
            self._hop(pe, msg)
        elif pe == self.manager:
            self._submit(msg.goal, hops_so_far=msg.hops)
        else:
            msg.goal.hops = msg.hops
            self.machine.enqueue(pe, msg.goal)

    def _hop(self, pe: int, msg: GoalMessage) -> None:
        nxt = self.machine.topology.next_hop(pe, msg.target)
        msg.hops += 1
        self.machine.send_goal(pe, nxt, msg)

    # -- the dispatcher -----------------------------------------------------------

    def _submit(self, goal: Goal, hops_so_far: int = 0) -> None:
        goal.hops = hops_so_far
        self._inbox.append(goal)
        self.max_backlog = max(self.max_backlog, len(self._inbox))
        if not self._dispatcher_running:
            self._dispatcher_running = True
            self.machine.engine.after(0.0, self._dispatch_kick)

    def _dispatch_one(self) -> bool:
        """Pop and place one goal; True if a goal was dispatched."""
        if not self._inbox:
            return False
        machine = self.machine
        goal = self._inbox.popleft()
        # True-load oracle: strictly more information than any
        # distributed strategy gets.
        n = machine.topology.n
        target = min(range(n), key=lambda p: (machine.load_of(p), p))
        self.dispatched += 1
        if target == self.manager:
            machine.enqueue(self.manager, goal)
            return True
        # _hop increments per physical hop, so total recorded hops =
        # (source -> manager) + (manager -> target), both walked.
        self._hop(
            self.manager,
            GoalMessage(self.manager, self.manager, goal, hops=goal.hops, target=target),
        )
        return True

    # The dispatcher is a self-terminating callback chain: each decision
    # costs ``dispatch_cost`` on the serialized co-processor queue, so a
    # decision event re-arms itself while the inbox is non-empty.

    def _dispatch_kick(self, _payload: object = None) -> None:
        if self.dispatch_cost > 0:
            if self._inbox:
                self.machine.engine.after(self.dispatch_cost, self._dispatch_next)
            else:
                self._dispatcher_running = False
            return
        # Free oracle: drain synchronously within this event.
        while self._inbox:
            self._dispatch_one()
        self._dispatcher_running = False

    def _dispatch_next(self, _payload: object = None) -> None:
        self._dispatch_one()
        if self._inbox:
            self.machine.engine.after(self.dispatch_cost, self._dispatch_next)
        else:
            self._dispatcher_running = False
