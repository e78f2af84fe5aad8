"""Contended communication channels.

ORACLE models "one process for each communication channel", i.e. every
channel serves one message at a time and queued messages wait — "thus it
models contention for the basic resources of a parallel system".  Our
:class:`Channel` is that resource, implemented with direct event
callbacks (channel transfers dominate the event count of CWN runs).

A channel is either a point-to-point link (2 members) or a multi-drop bus
(``span`` members, double-lattice-mesh).  A bus transfer occupies the bus
once regardless of how many members listen, so :meth:`broadcast` costs a
single transfer — the DLM's key advantage for one-word load broadcasts.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from heapq import heappush
from typing import Any

from .config import CostModel
from .engine import Engine
from .message import Message

__all__ = ["Channel"]

Deliver = Callable[[Message], None]


class Channel:
    """A serially-reusable transmission resource."""

    __slots__ = (
        "engine",
        "cid",
        "members",
        "costs",
        "queue",
        "busy",
        "busy_time",
        "messages_carried",
        "words_carried",
        "_busy_until",
        "_site",
        "_complete_cb",
    )

    def __init__(
        self,
        engine: Engine,
        cid: int,
        members: tuple[int, ...],
        costs: CostModel,
        site: int = 0,
    ) -> None:
        self.engine = engine
        self.cid = cid
        self.members = members
        self.costs = costs
        #: ordering site for this channel's transfer-complete events (the
        #: Machine passes ``1 + n_pes + cid``; a bare channel uses site 0)
        self._site = site
        self.queue: deque[tuple[Message, Deliver]] = deque()
        self.busy = False
        # -- statistics ORACLE reports: per-channel utilization ---------------
        self.busy_time = 0.0
        self.messages_carried = 0
        self.words_carried = 0
        #: end time of the transfer currently charged into busy_time; the
        #: accrual anchor for :meth:`effective_busy` (mirrors PE._hold_end)
        self._busy_until = 0.0
        #: the transfer-complete action, bound once (one per transfer)
        self._complete_cb = self._complete

    @property
    def backlog(self) -> int:
        """Messages queued or in flight (used for channel selection)."""
        return len(self.queue) + (1 if self.busy else 0)

    def send(self, msg: Message, deliver: Deliver) -> None:
        """Submit ``msg``; ``deliver(msg)`` fires when the transfer ends.

        Every submission passes through here, and an idle channel starts
        the transfer here: this is the one place a transfer starts.
        """
        if self.busy:
            self.queue.append((msg, deliver))
            return
        self.busy = True
        words = msg.size_words
        costs = self.costs
        duration = costs.hop_overhead + costs.word_time * words  # transfer_time()
        self.busy_time += duration
        self.messages_carried += 1
        self.words_carried += words
        # Inlined Engine.after: one transfer-complete event per message
        # is the single most common heap entry in CWN runs.
        engine = self.engine
        end = engine.now + duration
        self._busy_until = end
        site = self._site
        seqs = engine._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heappush(engine._heap, [end, 10, site, k, self._complete_cb, (msg, deliver)])

    def transmit(self, item: tuple[Message, Deliver]) -> None:
        """:meth:`send` of a ``(msg, deliver)`` pair, an engine event's payload.

        The machine schedules a goal's launch (after the co-processor's
        route decision) as this method directly.
        """
        msg, deliver = item
        self.send(msg, deliver)

    def broadcast(self, msg: Message, deliver_each: Callable[[int, Message], None]) -> None:
        """One bus transfer delivering ``msg`` to every member except its src."""
        def fan_out(m: Message, _deliver_each=deliver_each) -> None:
            for member in self.members:
                if member != m.src:
                    _deliver_each(member, m)

        self.send(msg, fan_out)

    # -- internals -------------------------------------------------------------

    def _complete(self, item: tuple[Message, Deliver]) -> None:
        msg, deliver = item
        self.busy = False
        if self.queue:
            self.send(*self.queue.popleft())
        deliver(msg)

    def effective_busy(self, now: float) -> float:
        """Busy time accrued up to ``now`` (mid-transfer time pro rata).

        ``busy_time`` charges each transfer's full duration up front, so
        at completion it overcounts any transfer still in flight — the
        run ends (``Engine.stop``) the instant the last root response
        arrives, dropping pending ``_complete`` events while their
        durations stay charged.  This is the accrual-correct reading,
        mirroring ``PE.effective_busy``; reported statistics use it.
        """
        overhang = self._busy_until - now
        return self.busy_time - overhang if overhang > 0 else self.busy_time

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this channel spent transferring.

        Accrual-correct: in-flight transfer time past ``elapsed`` is not
        counted, so the value is genuinely ≤ 1 rather than clamped there.
        """
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.effective_busy(elapsed) / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state: Any = "busy" if self.busy else "idle"
        return f"Channel({self.cid}, members={self.members}, {state})"
