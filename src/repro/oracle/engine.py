"""Discrete-event simulation kernel (the core of our ORACLE re-implementation).

The paper ran its simulations on ORACLE, a multiprocessor simulator written
in SIMSCRIPT II.5, with one simulated process per PE user process and one
per communication channel.  This module provides the equivalent kernel in
pure Python.  It has one execution model — event callbacks — placed on the
calendar by three primitives:

* :meth:`Engine.schedule` (validating) and :meth:`Engine.after` (trusted,
  no validation) put any callable on the calendar for one firing — the
  hot path;
* :meth:`Engine.tick` fires a callback every period (samplers, load
  broadcasters, gradient wakeups), reusing one mutable heap entry
  instead of allocating a fresh one every period.

A fourth, :meth:`Engine.noop`, keeps an event that would do nothing off
the calendar: it is *counted*, not calendared (see that method).

Every event sits on a heap keyed by ``(time, priority, site, sseq)`` so
that simultaneous events fire in a deterministic order.  A **site** is
the model entity an event acts for (a PE, a channel, or the machine
itself, as an integer index) and ``sseq`` is that site's private push
counter — so an event's full sort key is computable from *local*
information alone.  That locality is what lets the conservative parallel
kernel (:mod:`repro.pdes`) reproduce the serial total order bit for bit:
a shard owning a site draws exactly the sequence numbers the serial run
would, and events that cross shard boundaries travel with their serial
key attached.

ORACLE's processes become callback state machines: a PE executor is a
dispatch/burst-done pair (:mod:`~repro.oracle.pe`), a channel a
start/complete pair (:mod:`~repro.oracle.channel`), a periodic process
body a tick.  The kernel is deliberately small and allocation-light:
simulations in the reproduction push hundreds of thousands of events per
run, and following the HPC guidance ("make it work, make it reliably
fast where profiles say so") the hot path avoids per-event object churn.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Callable
from functools import partial
from itertools import chain
from typing import Any

__all__ = ["Engine", "SimulationError", "Tick"]

#: the fewest counted no-ops the ledger holds before a post folds it
FOLD_AT = 256
_INF = float("inf")


def _keys(flat: list) -> list[tuple]:
    """A flat ledger's keys ``(time, priority, site, sseq)``, sorted."""
    return sorted(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, event-limit overrun...)."""


class Tick:
    """A recurring callback owning one reusable heap entry.

    Created by :meth:`Engine.tick`.  On each firing the kernel calls
    ``fn()`` (``fn(payload)`` when the tick carries a payload) and pushes
    the *same* six-slot entry back with an advanced time and a fresh
    sequence number — per period that is one heappush and zero
    allocations.

    Ordering rule: the next firing's sequence number is drawn from the
    site's counter **after** ``fn()`` returns, so among simultaneous
    events at its site the next firing sorts after everything the body
    scheduled there.
    """

    __slots__ = (
        "engine", "interval", "fn", "payload", "name", "site", "_entry", "_skip",
        "_stopped",
    )

    def __init__(
        self,
        engine: "Engine",
        interval: float,
        fn: Callable[..., Any],
        name: str = "",
        skip_first: bool = False,
        site: int = 0,
        payload: Any = None,
    ) -> None:
        self.engine = engine
        self.interval = interval
        self.fn = fn
        self.payload = payload
        self.name = name or getattr(fn, "__name__", "tick")
        self.site = site
        #: the first firing only reschedules (see Engine.tick)
        self._skip = skip_first
        self._stopped = False
        self._entry: list | None = None

    def _bind(self, entry: list) -> Callable[[Any], None]:
        """The firing, bound once: a closure over ``entry``, the site's
        push counter and the heap.

        A payload is bound with a C-level ``partial``, so a firing runs
        no frame between the event loop and ``fn``.  ``None`` means no
        payload; anything else, PE 0 included, is passed.
        """
        self._entry = entry
        engine = self.engine
        heap = engine._heap
        seqs = engine._site_seq
        site = self.site
        interval = self.interval
        call = self.fn if self.payload is None else partial(self.fn, self.payload)
        push = heapq.heappush

        def fire(_payload: Any = None) -> None:
            if self._stopped:
                self._entry = None
                return
            if self._skip:
                self._skip = False
            else:
                call()
            k = seqs[site] + 1
            seqs[site] = k
            entry[0] = engine.now + interval
            entry[3] = k
            push(heap, entry)

        return fire

    def stop(self) -> None:
        """Cancel future firings (takes effect when the pending entry pops)."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else f"every {self.interval}"
        return f"Tick({self.name!r}, {state})"


class Engine:
    """The event calendar and simulation clock.

    Events are ``(time, priority, site, sseq, action, payload)`` heap
    entries.  ``priority`` orders simultaneous events (lower fires
    first); ``site`` is the integer index of the model entity the event
    acts for (``0`` = the machine itself; the
    :class:`~repro.oracle.machine.Machine` assigns ``1 + pe`` to each PE
    and ``1 + n_pes + cid`` to each channel) and ``sseq`` is that site's
    private monotone push counter.  Together they guarantee FIFO order
    among equal ``(time, priority)`` events at one site and a fixed
    deterministic interleave across sites, which makes every run
    bit-for-bit reproducible for a fixed seed — and, because a site's
    counter only ever advances from events the site's owner executes,
    lets the sharded kernel reproduce the identical total order.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[list] = []
        #: per-site push counters, indexed by site id (grown by
        #: :meth:`ensure_sites`; a bare engine has only the global site 0)
        self._site_seq: list[int] = [0]
        self._running = False
        self._stopped = False
        #: ends the run loop after the event in flight: set by stop(), by
        #: clear() inside a run, and by a fold that spends the budget
        self._halt = False
        self.events_executed: int = 0
        #: Optional hard event-count limit, a guard against runaway models.
        self.max_events: int | None = None
        #: the ledger: the counted no-ops not yet folded (see :meth:`noop`),
        #: flat, four slots each: time, priority, site, sseq
        self._ledger: list = []
        #: ledger length, in slots, at which a post folds it
        self._fold_at = 4 * FOLD_AT
        #: no-ops folded since the ledger was last settled: they have run
        #: but are not yet in events_executed
        self._folded = 0
        #: the folded plus ledgered no-ops the run loop may gather before
        #: it halts (see _plan)
        self._budget: float = _INF
        #: the ledger as an in-run clear() left it, settled against the
        #: event that cleared
        self._cleared: list = []

    def ensure_sites(self, count: int) -> None:
        """Grow the per-site counter table to at least ``count`` sites."""
        seqs = self._site_seq
        if count > len(seqs):
            seqs.extend([0] * (count - len(seqs)))

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        payload: Any = None,
        priority: int = 10,
        site: int = 0,
    ) -> None:
        """Schedule ``action(payload)`` to run ``delay`` units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heapq.heappush(
            self._heap, [self.now + delay, priority, site, k, action, payload]
        )

    def after(
        self,
        delay: float,
        action: Callable[..., Any],
        payload: Any = None,
        priority: int = 10,
        site: int = 0,
    ) -> None:
        """:meth:`schedule` minus the negative-delay guard.

        The kernel-internal fast path: callers (PE executors, channels,
        word transport) derive delays from validated non-negative costs,
        so the branch would never fire.  A negative delay here corrupts
        the calendar silently — external/model code must use
        :meth:`schedule`.
        """
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heapq.heappush(
            self._heap, [self.now + delay, priority, site, k, action, payload]
        )

    def noop(self, delay: float, priority: int = 10, site: int = 0) -> None:
        """An event that does nothing, ``delay`` units from now: counted,
        not calendared.

        The event's key goes on a ledger instead of the heap.  Its
        ``sseq`` is the site's counter as it stands, undrawn, so the
        no-op sorts after every event its site posted before it and
        before every later one, and the other events' order is
        untouched.  :meth:`run` adds to ``events_executed`` exactly the
        ledger keys that sort before the event the run stops on (all of
        them when the calendar drains, those up to ``until`` when the
        clock passes it), so the count is the calendar's to the event.
        The ledger keeps only the no-ops that could still tie with that
        event: a post that fills it folds the ones due before now into a
        count (:meth:`_fold`).  A zero delay calendars a real no-op,
        since one could sort before the very event that posts it.
        """
        if delay <= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
            self.after(0.0, len, (), priority, site)
            return
        ledger = self._ledger
        ledger += (self.now + delay, priority, site, self._site_seq[site])
        if len(ledger) >= self._fold_at:
            self._fold()

    def _fold(self) -> None:
        """Fold the ledger's no-ops due before now into a count.

        Each sorts before the event in flight, so before any event a run
        can stop on.  The next fold comes when the ledger has doubled
        what is left, or sooner if the segment's budget says so; when
        the budget is spent, the loop halts after the event in flight.
        """
        ledger = self._ledger
        now = self.now
        times = ledger[0::4]
        if sorted(times) == times:  # one delay posts in time order
            due = bisect_left(times, now)
            del ledger[: 4 * due]
        else:
            kept = [key for key in _keys(ledger) if key[0] >= now]
            due = len(times) - len(kept)
            ledger[:] = chain.from_iterable(kept)
        self._folded += due
        left = len(ledger) // 4
        at = min(max(FOLD_AT, 2 * left), self._budget - self._folded)
        if at <= left:
            self._halt = True
            at = left + FOLD_AT
        self._fold_at = 4 * int(at)

    def tick(
        self,
        interval: float,
        fn: Callable[..., Any],
        offset: float = 0.0,
        *,
        name: str = "",
        skip_first: bool = False,
        priority: int = 10,
        site: int = 0,
        payload: Any = None,
    ) -> Tick:
        """Run ``fn()`` every ``interval`` units, first at ``now + offset``.

        Returns the :class:`Tick`, whose one heap entry is recycled every
        period.  ``skip_first=True`` makes the firing at ``offset`` a
        silent reschedule: it is executed and counted as an event, and
        draws the next firing's sequence number, but does not call
        ``fn`` — so the body first runs at ``offset + interval``
        (samplers and broadcasters, which have nothing to report at t=0).
        ``payload`` (any value but ``None``) makes each firing call
        ``fn(payload)``: one bound method serves every PE's tick without
        a per-PE closure.
        """
        if interval <= 0:
            raise SimulationError(f"tick interval must be positive (got {interval!r})")
        if offset < 0:
            raise SimulationError(f"cannot tick into the past (offset={offset!r})")
        tick = Tick(self, interval, fn, name, skip_first, site, payload)
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        entry = [self.now + offset, priority, site, k, None, None]
        entry[4] = tick._bind(entry)
        heapq.heappush(self._heap, entry)
        return tick

    # -- execution -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until the heap drains, :meth:`stop` is called, or the
        clock passes ``until``.

        Returns the final simulation time.  Events scheduled exactly at
        ``until`` still fire.  Counted no-ops count as they would have
        run, in key order among the calendar's events: toward
        ``events_executed``, the ``max_events`` guard and the final time.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        if self._stopped:
            return self.now
        self._running = True
        try:
            while True:
                # The loop halts only for stop(), an in-run clear() or a
                # spent budget: the ledger is settled against the last
                # event run, and the run ends there on stop().
                last = self._segment(until, self._plan())
                if last is None:
                    break
                self._settle(last)
                if self._stopped:
                    return self.now
            self._settle(None if until is None else (until, _INF))
            if until is not None and (self._heap or self._ledger):
                self.now = until
            return self.now
        finally:
            self._running = False

    def _segment(self, until: float | None, limit: float) -> tuple | None:
        """The event loop: run events until the calendar drains, the
        clock would pass ``until``, or the loop halts.

        Returns the key of the last event run if the loop halted, else
        None.  Real events run unguarded up to ``limit`` (see
        :meth:`_plan`); past it, each one goes through the exact guard.
        """
        heap = self._heap
        pop = heapq.heappop
        self._halt = False
        # Hot loop: locals for everything invariant across events.  The
        # event counter is flushed on every way out, so `events_executed`
        # stays correct on stop(), limit overrun, and model exceptions.
        # The key is unpacked because a tick recycles its entry.
        executed = self.events_executed
        time = None
        try:
            if until is None:
                while heap and not self._halt:
                    time, prio, site, k, action, payload = pop(heap)
                    self.now = time
                    executed += 1
                    if executed > limit:
                        executed, limit = self._guard((time, prio, site, k), executed)
                    action(payload)
            else:
                while heap and not self._halt:
                    time, prio, site, k, action, payload = entry = pop(heap)
                    if time > until:
                        # Put it back: a later run() call may continue here.
                        heapq.heappush(heap, entry)
                        break
                    self.now = time
                    executed += 1
                    if executed > limit:
                        executed, limit = self._guard((time, prio, site, k), executed)
                    action(payload)
        except BaseException:
            if time is not None and (
                self.max_events is None or self.events_executed <= self.max_events
            ):
                # The event's action raised (the guard settles and counts
                # for itself): it ran, and so did the no-ops before it.
                self.events_executed = executed
                self._settle((time, prio, site, k))
            raise
        self.events_executed = executed
        return (time, prio, site, k) if self._halt else None

    def _plan(self) -> float:
        """Budget the no-ops, folded and ledgered, that the loop may
        gather before it halts, and return the limit up to which its
        real events may run unguarded: ``max_events`` less the budget,
        so that no event passes ``max_events`` unseen.  Half the
        headroom left goes to each side."""
        pending = len(self._ledger) // 4
        if self.max_events is None:
            self._budget = limit = _INF
        else:
            headroom = self.max_events - self.events_executed
            self._budget = max(headroom // 2, pending + FOLD_AT)
            limit = self.max_events - self._budget
        self._fold_at = 4 * int(min(max(FOLD_AT, 2 * pending), self._budget))
        return limit

    def _guard(self, key: tuple, executed: int) -> tuple[int, float]:
        """The loop reached its limit at the event ``key``: count the
        no-ops before it, raise if it passes ``max_events``, and plan
        anew from there."""
        self.events_executed = executed - 1
        self._settle(key)
        executed = self.events_executed + 1
        if executed > self.max_events:  # type: ignore[operator]
            self.events_executed = executed
            raise SimulationError(
                f"event limit exceeded ({self.max_events}); likely a runaway model"
            )
        return executed, self._plan()

    def _settle(self, bound: tuple | None) -> None:
        """Count the folded no-ops and the ledger's no-ops that sort
        before ``bound`` (all of them when None) as run, in key order,
        and drop them.

        A no-op cleared inside a run counts if it sorts before the
        clearing event ``bound``; the rest went with the calendar.  The
        no-op that passes ``max_events`` raises the limit error at its
        own time, as its calendar event would have; the budget keeps it
        off the folded count, which sorts first.
        """
        ledger = self._ledger
        keys = _keys(ledger)
        cut = len(keys) if bound is None else bisect_left(keys, bound)
        ran = keys[:cut]
        if ran:
            ledger[:] = chain.from_iterable(keys[cut:])
        if self._cleared:
            gone = _keys(self._cleared)
            self._cleared.clear()
            ran = sorted(ran + gone[: len(gone) if bound is None else bisect_left(gone, bound)])
        folded = self._folded
        self._folded = 0
        limit = self.max_events
        if limit is not None and self.events_executed + folded + len(ran) > limit:
            passing = ran[limit - self.events_executed - folded]
            self.events_executed = limit + 1
            self.now = passing[0]
            raise SimulationError(
                f"event limit exceeded ({limit}); likely a runaway model"
            )
        self.events_executed += folded + len(ran)
        if ran:
            self.now = max(self.now, ran[-1][0])

    def step(self) -> bool:
        """Execute a single event; return False if the calendar is empty.

        A counted no-op is an event here too: when its key is the least,
        it is counted and dropped.  Honors the same guards as
        :meth:`run`: a stopped engine stays stopped (``step()`` returns
        False instead of silently reviving the run), and the
        ``max_events`` runaway limit still raises.
        """
        heap = self._heap
        ledger = self._ledger
        if self._stopped or not (heap or ledger):
            return False
        keys = _keys(ledger)
        if keys and (not heap or keys[0] < tuple(heap[0][:4])):
            ledger[:] = chain.from_iterable(keys[1:])
            self.now = keys[0][0]
            action, payload = len, ()
        else:
            entry = heapq.heappop(heap)
            self.now = entry[0]
            action, payload = entry[4], entry[5]
        self.events_executed += 1
        if self.max_events is not None and self.events_executed > self.max_events:
            raise SimulationError(
                f"event limit exceeded ({self.max_events}); likely a runaway model"
            )
        action(payload)
        return True

    def peek(self) -> float | None:
        """Time of the next pending event, counted no-ops included, or
        None if there is none."""
        times = self._ledger[0::4] + [entry[0] for entry in self._heap[:1]]
        return min(times, default=None)

    @property
    def pending(self) -> int:
        """Number of events currently on the calendar (counted no-ops,
        which are not, left out)."""
        return len(self._heap)

    def stop(self) -> None:
        """End the run after the current event completes.

        Unlike :meth:`clear`, stopping is sticky: events scheduled *by*
        the in-flight event do not restart execution, and :meth:`step`
        refuses to single-step a stopped engine.  This is how a
        simulation declares "the answer is in" while strategy machinery
        — periodic gradient wakeups, steal retries — would otherwise
        keep seeding the calendar forever.
        """
        self._stopped = True
        self._halt = True

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    def clear(self) -> None:
        """Drop all pending events (used between experiment repetitions).

        Pending counted no-ops go too.  Inside a run, the ones that sort
        before the clearing event had already run: the loop halts after
        that event to count them.
        """
        self._heap.clear()
        if self._running:
            self._cleared += self._ledger
            self._halt = True
        self._ledger.clear()
