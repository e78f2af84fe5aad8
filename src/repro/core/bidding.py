"""Bidding (contract-net style) placement — negotiated sender-initiated.

The third classic mechanism of the paper's era, alongside directed
forwarding (CWN) and pressure-gradient shipping (GM): **negotiation**
(Smith's contract net, 1980; Stankovic's bidding schedulers, 1984-85).
Rather than trusting a possibly stale load table (CWN) or a slowly
propagating proximity field (GM), the source *asks*: it announces a task
to its neighbors, collects bids (their instantaneous loads), and awards
the task to the cheapest bidder — or keeps it when no bid beats staying
home.

The price is latency and control traffic: every announced goal waits one
round-trip of control words before it can start anywhere, and each
announcement costs ``2 * degree`` words.  Comparing Bidding against CWN
in the strategy zoo quantifies exactly what the paper's "agility"
argument claims: by the time the auction closes, the information that
drove the award is already aging.

Protocol
--------
* a PE whose load is below ``threshold`` keeps new goals outright;
* otherwise it parks the goal in a pending table and posts a ``"bidreq"``
  word to every neighbor;
* each neighbor answers with a ``"bid"`` word carrying its current load;
* when all bids are in (word transport never loses words; a guard
  timeout exists for safety, not correctness) the source awards the goal
  to the lowest bidder if that bid undercuts the source's *current*
  load, else keeps it.  Awarded goals travel as normal one-hop goal
  messages, so Table-3-style hop statistics stay comparable.

Both request and response encode ``(auction id, payload)`` in the word's
float value — the same packing convention :class:`~repro.core.stealing.
WorkStealing` uses for its probe budgets.
"""

from __future__ import annotations

from typing import Any

from ..oracle.message import GoalMessage
from ..workload.base import Goal
from .base import Strategy

__all__ = ["Bidding"]

#: bid loads are clamped to this; packs (auction_id, load) into one float
_LOAD_CAP = 1 << 10


class _Auction:
    """One outstanding announcement: the parked goal plus collected bids."""

    __slots__ = ("goal", "bids", "expected", "closed")

    def __init__(self, goal: Goal, expected: int) -> None:
        self.goal = goal
        #: neighbor -> announced load
        self.bids: dict[int, float] = {}
        self.expected = expected
        self.closed = False


class Bidding(Strategy):
    """Contract-net placement: announce, collect bids, award to cheapest.

    Parameters
    ----------
    threshold:
        A PE keeps a newly created goal without an auction while its own
        load (queue length) is strictly below this.
    guard_interval:
        Safety timeout after which an auction closes with whatever bids
        arrived (the word transport is lossless, so this only matters if
        a future transport mode drops words).  0 disables the guard.
    """

    name = "bidding"
    reads_beliefs = False

    def __init__(self, threshold: float = 2.0, guard_interval: float = 200.0) -> None:
        super().__init__()
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if guard_interval < 0:
            raise ValueError("guard_interval must be >= 0")
        self.threshold = threshold
        self.guard_interval = guard_interval
        #: auctions won by a neighbor (diagnostic counter)
        self.awards = 0
        #: auctions the source won itself (kept the goal)
        self.kept = 0

    def describe_params(self) -> dict[str, Any]:
        return {"threshold": self.threshold, "guard_interval": self.guard_interval}

    def setup(self) -> None:
        self.awards = 0
        self.kept = 0
        #: per-PE open auctions, keyed by a per-PE auction counter
        self._auctions: list[dict[int, _Auction]] = [
            {} for _ in range(self.machine.topology.n)
        ]
        self._next_id = [0] * self.machine.topology.n

    # -- announcement ----------------------------------------------------------

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        machine = self.machine
        if machine.load_of(pe) < self.threshold:
            machine.enqueue(pe, goal)
            return
        auction_id = self._next_id[pe]
        # Auction ids wrap within the packing range; an id can only
        # collide with itself if > _LOAD_CAP auctions are simultaneously
        # open on one PE, which a bounded queue never approaches.
        self._next_id[pe] = (auction_id + 1) % _LOAD_CAP
        nbrs = machine.neighbors(pe)
        self._auctions[pe][auction_id] = _Auction(goal, expected=len(nbrs))
        for nb in nbrs:
            machine.post_word(pe, nb, "bidreq", float(auction_id))
        if self.guard_interval > 0:
            machine.engine.schedule(
                self.guard_interval, self._guard, (pe, auction_id), site=1 + pe
            )

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        """Awarded goals are addressed point-to-point: accept outright."""
        msg.goal.hops = msg.hops
        self.machine.enqueue(pe, msg.goal)

    # -- bidding ---------------------------------------------------------------

    def on_word(self, dst: int, src: int, kind: str, value: float) -> None:
        if kind == "bidreq":
            auction_id = int(value)
            load = min(self.machine.load_of(dst), _LOAD_CAP - 1)
            self.machine.post_word(dst, src, "bid", auction_id * _LOAD_CAP + load)
        elif kind == "bid":
            auction_id, load = divmod(int(value), _LOAD_CAP)
            auction = self._auctions[dst].get(auction_id)
            if auction is None or auction.closed:
                return  # guard already closed it
            auction.bids[src] = load
            if len(auction.bids) >= auction.expected:
                self._award(dst, auction_id)

    def _guard(self, payload: tuple[int, int]) -> None:
        pe, auction_id = payload
        if auction_id in self._auctions[pe]:
            self._award(pe, auction_id)

    def _award(self, pe: int, auction_id: int) -> None:
        machine = self.machine
        auction = self._auctions[pe].pop(auction_id)
        auction.closed = True
        own = machine.load_of(pe)
        winner = min(auction.bids, key=lambda nb: (auction.bids[nb], nb), default=None)
        if winner is None or auction.bids[winner] >= own:
            self.kept += 1
            machine.enqueue(pe, auction.goal)
            return
        self.awards += 1
        auction.goal.hops = 1
        machine.send_goal(pe, winner, GoalMessage(pe, winner, auction.goal, hops=1))
