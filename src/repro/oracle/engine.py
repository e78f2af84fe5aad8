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
from collections.abc import Callable
from functools import partial
from typing import Any

__all__ = ["Engine", "SimulationError", "Tick"]


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
        self.events_executed: int = 0
        #: Optional hard event-count limit, a guard against runaway models.
        self.max_events: int | None = None

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
        ``until`` still fire.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        # Hot loop: locals for everything invariant across events.  The
        # event counter is flushed in ``finally`` so `events_executed`
        # stays correct on stop(), limit overrun, and model exceptions.
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        limit = self.max_events
        if limit is None:
            limit = float("inf")
        executed = self.events_executed
        try:
            if until is None:
                while heap and not self._stopped:
                    entry = pop(heap)
                    self.now = entry[0]
                    executed += 1
                    if executed > limit:
                        raise SimulationError(
                            f"event limit exceeded ({self.max_events}); "
                            "likely a runaway model"
                        )
                    entry[4](entry[5])
            else:
                while heap and not self._stopped:
                    entry = pop(heap)
                    time = entry[0]
                    if time > until:
                        # Put it back: a later run() call may continue here.
                        push(heap, entry)
                        self.now = until
                        break
                    self.now = time
                    executed += 1
                    if executed > limit:
                        raise SimulationError(
                            f"event limit exceeded ({self.max_events}); "
                            "likely a runaway model"
                        )
                    entry[4](entry[5])
        finally:
            self.events_executed = executed
            self._running = False
        return self.now

    def step(self) -> bool:
        """Execute a single event; return False if the calendar is empty.

        Honors the same guards as :meth:`run`: a stopped engine stays
        stopped (``step()`` returns False instead of silently reviving
        the run), and the ``max_events`` runaway limit still raises.
        """
        if not self._heap or self._stopped:
            return False
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        self.events_executed += 1
        if self.max_events is not None and self.events_executed > self.max_events:
            raise SimulationError(
                f"event limit exceeded ({self.max_events}); likely a runaway model"
            )
        entry[4](entry[5])
        return True

    def peek(self) -> float | None:
        """Time of the next pending event, or None if the calendar is empty."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending(self) -> int:
        """Number of events currently on the calendar."""
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

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    def clear(self) -> None:
        """Drop all pending events (used between experiment repetitions)."""
        self._heap.clear()
