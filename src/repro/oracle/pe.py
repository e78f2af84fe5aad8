"""The processing element (PE) model.

Each PE owns a FIFO work queue and a single executor — ORACLE's "one
process for each user process running on a PE".  Work items are either
:class:`~repro.workload.base.Goal` objects awaiting their first
execution, or :class:`CombineItem` continuations of suspended tasks whose
last child response just arrived.

The executor is a two-state callback machine driven directly by the
event calendar (the same treatment :mod:`~repro.oracle.channel` got):

* ``_dispatch`` fires when a parked executor is woken (or at t=0 when it
  first starts) and begins the next work burst;
* ``_burst_done`` fires when the current burst's charged time elapses,
  performs the item's completion actions (respond / spawn children /
  combine), and chains straight into the next burst without leaving the
  event.

One event per burst, plus one wake event each time a parked executor
receives work: the stored result digests in ``tests/test_hop_path.py``
pin that event sequence.

The paper's load measure: "We simply count all the messages waiting to be
processed as 'load'" — i.e. the queue length, goals and continuations
alike.  The suggested refinement ("taking future commitments into
account, indicated by the count of the tasks that are waiting for
messages") is exposed as :attr:`PE.pending_tasks` for the
future-commitments load metric extension.

Task pinning: once a goal has spawned children it becomes a
:class:`TaskRecord` resident on this PE forever (both schemes).  Queued
goals that have not yet started executing are still *shippable*; the
Gradient Model removes them via :meth:`PE.take_shippable_goal`.
"""

from __future__ import annotations

from heapq import heappush
from collections import deque
from typing import TYPE_CHECKING, Any

from ..workload.base import Goal, Leaf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .machine import Machine

__all__ = ["CombineItem", "PE", "TaskRecord"]

#: Sentinel marking a child slot whose response has not arrived yet.
#: ``None`` is a perfectly legitimate child *value* (a leaf returning
#: nothing), so duplicate detection must not key on it.
_PENDING = object()


class TaskRecord:
    """A task suspended awaiting responses — pinned to its PE.

    ``values`` is ordered by child position so ``Program.combine`` sees
    children in spawn order regardless of response arrival order.  Unfilled
    slots hold a private sentinel (never ``None``: a child's value may
    legitimately be ``None``).
    """

    __slots__ = (
        "task_id",
        "payload",
        "parent_pe",
        "parent_task",
        "child_index",
        "pending",
        "values",
        "combine_mult",
    )

    def __init__(
        self,
        task_id: int,
        payload: Any,
        parent_pe: int | None,
        parent_task: int,
        child_index: int,
        n_children: int,
        combine_mult: float,
    ) -> None:
        self.task_id = task_id
        self.payload = payload
        self.parent_pe = parent_pe
        self.parent_task = parent_task
        self.child_index = child_index
        self.pending = n_children
        self.values: list[Any] = [_PENDING] * n_children
        self.combine_mult = combine_mult


class CombineItem:
    """Queue entry: fold the completed task's child values."""

    __slots__ = ("task",)

    def __init__(self, task: TaskRecord) -> None:
        self.task = task


class PE:
    """One processing element: queue + executor + local statistics."""

    __slots__ = (
        "index",
        "machine",
        "queue",
        "tasks",
        "idle",
        "busy_time",
        "goals_executed",
        "pending_tasks",
        "_next_task_id",
        "_hold_end",
        "speed",
        "_parked",
        "_item",
        "_expansion",
        "_engine",
        "_costs",
        "_program",
        "_stats",
        "_fifo",
        "_site",
    )

    def __init__(self, index: int, machine: "Machine", speed: float = 1.0) -> None:
        self.index = index
        self.machine = machine
        #: ordering site for events this PE's executor schedules
        #: (machine site layout: 0 = machine, 1+pe, 1+n_pes+cid)
        self._site = 1 + index
        #: execution-rate factor (1.0 nominal; 2.0 finishes work in half
        #: the time).  Heterogeneous machines set this via
        #: ``SimConfig.pe_speeds``.
        self.speed = speed
        self.queue: deque[Goal | CombineItem] = deque()
        self.tasks: dict[int, TaskRecord] = {}
        self.idle = True
        self.busy_time = 0.0
        self.goals_executed = 0
        #: tasks suspended awaiting responses (future-commitments metric)
        self.pending_tasks = 0
        self._next_task_id = 0
        #: end time of the work burst currently charged into busy_time;
        #: lets effective_busy() report accrual-correct utilization while
        #: a burst is still in progress (the time-series sampler needs it).
        self._hold_end = 0.0
        # Hot-path caches: one attribute load instead of three per burst.
        self._engine = machine.engine
        self._costs = machine.config.costs
        self._program = machine.program
        self._stats = machine.stats
        self._fifo = machine.config.queue_discipline == "fifo"
        #: True when the executor has drained its queue and needs a wake
        #: event; False while a startup/wake event is pending or a burst
        #: is in flight.
        self._parked = False
        #: the in-flight work item and (for goals) its expansion, carried
        #: from burst start to ``_burst_done``
        self._item: Goal | CombineItem | None = None
        self._expansion: Any = None
        machine.engine.after(0.0, self._dispatch, site=self._site)

    def effective_busy(self, now: float) -> float:
        """Busy time accrued up to ``now`` (mid-burst work counts pro rata)."""
        overhang = self._hold_end - now
        return self.busy_time - overhang if overhang > 0 else self.busy_time

    # -- load ------------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """The paper's load measure: messages waiting to be processed."""
        return len(self.queue)

    # -- queue operations --------------------------------------------------------

    def push(self, item: Goal | CombineItem) -> None:
        """Enqueue a work item and wake the executor if it was idle."""
        self.queue.append(item)
        if self.idle:
            self.idle = False
            # Only a parked executor needs a kick; at t=0 (before its
            # startup event fires) it will find the queue on its own.
            if self._parked:
                self._parked = False
                self._engine.after(0.0, self._dispatch, site=self._site)
        self.machine.load_changed(self.index)

    def take_shippable_goal(self, newest_first: bool = True) -> Goal | None:
        """Remove and return a not-yet-started goal, or None.

        Combine items and the currently executing item are pinned and
        never returned.  ``newest_first`` picks the most recently arrived
        goal (default — oldest goals are closest to execution and keeping
        them preserves local progress).
        """
        queue = self.queue
        if newest_first and queue and type(queue[-1]) is Goal:
            # The usual case: the newest item is a goal, so the scan
            # below would stop at once; pop it.
            goal = queue.pop()
            self.machine.load_changed(self.index)
            return goal
        rng = range(len(queue) - 1, -1, -1) if newest_first else range(len(queue))
        for i in rng:
            if type(queue[i]) is Goal:
                goal = queue[i]
                del queue[i]
                self.machine.load_changed(self.index)
                return goal  # type: ignore[return-value]
        return None

    # -- callback executor -------------------------------------------------------

    def _dispatch(self, _payload: Any = None) -> None:
        """Startup / wake event: begin the next burst or park.

        The wake can be spurious: between ``push()`` scheduling it and it
        firing, a strategy may have shipped the queued goal elsewhere
        (``take_shippable_goal``), so an empty queue here marks the PE
        idle, runs the idle hook, and parks.
        """
        if self.queue:
            self._begin_burst()
            return
        self.idle = True
        self.machine.pe_went_idle(self.index)
        if self.queue:
            # The idle hook attracted work synchronously: start it now
            # rather than park and wait for a wake event.
            self._begin_burst()
        else:
            self._parked = True

    def _begin_burst(self) -> None:
        """Pop one item, charge its compute time, arm ``_burst_done``.

        ``busy_time`` records wall-clock busy time, so utilization stays
        a wall-clock fraction on heterogeneous machines (a fast PE doing
        the same work is busy for less time).
        """
        item = self.queue.popleft() if self._fifo else self.queue.pop()
        machine = self.machine
        machine.load_changed(self.index)
        costs = self._costs
        if type(item) is Goal:
            self._stats.record_goal_start(self.index, item)
            self.goals_executed += 1
            expansion = self._program.expand(item.payload)
            if type(expansion) is Leaf:
                duration = costs.leaf_work * expansion.work
            else:
                duration = costs.split_work * expansion.work
            self._expansion = expansion
        else:  # CombineItem
            duration = costs.combine_work * item.task.combine_mult
            self._expansion = None
        self._item = item
        duration /= self.speed
        self.busy_time += duration
        engine = self._engine
        end = engine.now + duration
        self._hold_end = end
        site = self._site
        seqs = engine._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heappush(engine._heap, [end, 10, site, k, self._burst_done, None])

    def _burst_done(self, _payload: Any = None) -> None:
        """The burst's charged time elapsed: complete the item, chain on."""
        item = self._item
        expansion = self._expansion
        machine = self.machine
        if expansion is None:  # CombineItem
            task = item.task
            value = self._program.combine(task.payload, task.values)
            del self.tasks[task.task_id]
            machine.respond(
                self.index, task.parent_pe, task.parent_task, task.child_index, value
            )
        elif type(expansion) is Leaf:
            machine.respond(
                self.index,
                item.parent_pe,
                item.parent_task,
                item.child_index,
                expansion.value,
            )
        else:
            task = TaskRecord(
                self._next_task_id,
                item.payload,
                item.parent_pe,
                item.parent_task,
                item.child_index,
                len(expansion.children),
                expansion.combine_work,
            )
            self._next_task_id += 1
            self.tasks[task.task_id] = task
            self.pending_tasks += 1
            machine.load_changed(self.index)
            for child_index, child_payload in enumerate(expansion.children):
                child = Goal(
                    child_payload,
                    parent_pe=self.index,
                    parent_task=task.task_id,
                    child_index=child_index,
                    depth=item.depth + 1,
                )
                machine.goal_created(self.index, child)
        # Chain into the next item within this same event.
        if self.queue:
            self._begin_burst()
            return
        self._item = self._expansion = None
        self.idle = True
        machine.pe_went_idle(self.index)
        if self.queue:
            self._begin_burst()
        else:
            self._parked = True

    # -- response delivery ---------------------------------------------------------

    def deliver_response(self, task_id: int, child_index: int, value: Any) -> None:
        """A child's result arrived; enqueue the combine when it's the last.

        Duplicate detection keys on the slot's *fill state* (a private
        sentinel), not its value: a workload whose leaf or combine
        legitimately returns ``None`` must still trip the guard.
        """
        task = self.tasks[task_id]
        if task.values[child_index] is not _PENDING or task.pending <= 0:
            raise RuntimeError(
                f"duplicate response for task {task_id} child {child_index} on PE {self.index}"
            )
        task.values[child_index] = value
        task.pending -= 1
        if task.pending == 0:
            self.pending_tasks -= 1
            self.push(CombineItem(task))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PE({self.index}, queue={len(self.queue)}, "
            f"tasks={len(self.tasks)}, {'idle' if self.idle else 'busy'})"
        )
