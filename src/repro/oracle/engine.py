"""Discrete-event simulation kernel (the core of our ORACLE re-implementation).

The paper ran its simulations on ORACLE, a multiprocessor simulator written
in SIMSCRIPT II.5.  SIMSCRIPT provides an event calendar *and* a process
abstraction; ORACLE used one simulated process per PE user process and one
per communication channel.  This module provides the equivalent kernel in
pure Python:

* an event heap keyed by ``(time, priority, site, sseq)`` so that
  simultaneous events fire in a deterministic order.  A **site** is the
  model entity an event acts for (a PE, a channel, or the machine
  itself, as an integer index) and ``sseq`` is that site's private push
  counter — so an event's full sort key is computable from *local*
  information alone.  That locality is what lets the conservative
  parallel kernel (:mod:`repro.pdes`) reproduce the serial total order
  bit for bit: a shard owning a site draws exactly the sequence numbers
  the serial run would, and events that cross shard boundaries travel
  with their serial key attached,
* direct **event callbacks** — the hot path: any callable can be put on
  the calendar with :meth:`Engine.schedule` (validating) or
  :meth:`Engine.after` (trusted, no validation),
* a recurring-tick facility (:meth:`Engine.tick`) for periodic machinery
  (samplers, load broadcasters, gradient wakeups) that reuses one mutable
  heap entry instead of allocating a fresh one every period,
* a generator-based :class:`Process` abstraction — a process is a Python
  generator that ``yield``\\ s *commands* (:func:`hold`, :func:`waitevent`,
  :func:`passivate`) to the kernel, exactly in the style of SIMSCRIPT or
  SimPy processes — kept for tests and exotic strategies,
* :class:`Signal` for condition-style wakeups.

The kernel is deliberately small and allocation-light: simulations in the
reproduction push hundreds of thousands of events per run, and following
the HPC guidance ("make it work, make it reliably fast where profiles say
so") the hot path avoids per-event object churn.  Everything on the
fib/nqueens Table-2 path — PE executors, channels, periodic strategy
machinery — runs as callbacks; a generator process pays ~2 extra Python
frames per resumption and should only be used where its linear control
flow genuinely earns that cost.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from contextlib import contextmanager
from functools import partial
from typing import Any

__all__ = [
    "Engine",
    "Process",
    "Signal",
    "SimulationError",
    "Tick",
    "hold",
    "passivate",
    "process_kernel_active",
    "use_process_kernel",
    "waitevent",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, double activation...)."""


# ---------------------------------------------------------------------------
# Legacy process-kernel switch.
#
# The callback executors are bit-for-bit equivalent to the seed's
# generator processes (same heap entries, same sequence numbers, same
# event count).  The golden tests prove it by running both kernels and
# comparing entire SimResults; this switch is how they reach the
# generator implementations, which are otherwise dead on the hot path.
# ---------------------------------------------------------------------------

_process_kernel = False


def process_kernel_active() -> bool:
    """True while the seed's generator-process kernel is selected."""
    return _process_kernel


@contextmanager
def use_process_kernel(enabled: bool = True):
    """Context manager selecting the generator-process kernel (test-only).

    A ``Machine`` captures the flag once, at construction, and its PEs,
    periodic machinery, and strategy processes all key off that capture —
    so a machine keeps whichever kernel it was built with for its whole
    life, even if this context has since exited.
    """
    global _process_kernel
    previous = _process_kernel
    _process_kernel = enabled
    try:
        yield
    finally:
        _process_kernel = previous


# ---------------------------------------------------------------------------
# Process commands.
#
# A process generator yields one of these light-weight command tuples.  We
# use plain tuples with an integer opcode rather than command classes: the
# kernel dispatches on ``cmd[0]`` with no attribute lookups, which measures
# roughly 2x faster than a class hierarchy for event-dense simulations.
# ---------------------------------------------------------------------------

_HOLD = 0
_WAIT = 1
_PASSIVATE = 2


def hold(delay: float) -> tuple[int, float]:
    """Command: advance this process by ``delay`` simulated time units."""
    return (_HOLD, delay)


def waitevent(signal: "Signal") -> tuple[int, "Signal"]:
    """Command: sleep until ``signal`` fires; resumes with its payload."""
    return (_WAIT, signal)


def passivate() -> tuple[int, None]:
    """Command: sleep indefinitely until somebody calls :meth:`Process.activate`."""
    return (_PASSIVATE, None)


class Signal:
    """A broadcast condition processes can wait on.

    :meth:`fire` wakes *all* waiting processes at the current simulation
    time and hands each the payload.  A :class:`Signal` carries no memory:
    a ``fire`` with no waiters is lost (use queues or state for level-
    triggered conditions).
    """

    __slots__ = ("name", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Process] = []

    def fire(self, payload: Any = None) -> int:
        """Wake every waiting process; return the number woken."""
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._resume_with(payload)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """A simulated process driven by a Python generator.

    The generator receives the kernel's resume payload from each ``yield``
    (the elapsed command for ``hold``, the signal payload for ``waitevent``,
    and whatever ``activate(payload=...)`` passed for ``passivate``).
    """

    __slots__ = ("engine", "gen", "name", "alive", "_asleep", "site")

    def __init__(
        self, engine: "Engine", gen: Generator, name: str = "", site: int = 0
    ) -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        #: True while passivated / waiting (i.e. not on the event heap).
        self._asleep = False
        #: ordering site this process's resumptions are keyed on (the
        #: PE it models, or 0 for machine-level processes)
        self.site = site

    # -- kernel-side plumbing ------------------------------------------------

    def _step(self, payload: Any = None) -> None:
        """Advance the generator one command and schedule its continuation."""
        engine = self.engine
        try:
            cmd = self.gen.send(payload)
        except StopIteration:
            self.alive = False
            return
        op = cmd[0]
        if op == _HOLD:
            delay = cmd[1]
            if delay < 0:
                self.alive = False
                raise SimulationError(
                    f"process {self.name!r} held for negative delay {delay!r}"
                )
            engine._schedule_process(delay, self)
        elif op == _WAIT:
            signal: Signal = cmd[1]
            self._asleep = True
            signal._waiters.append(self)
        elif op == _PASSIVATE:
            self._asleep = True
        else:  # pragma: no cover - defensive
            self.alive = False
            raise SimulationError(f"unknown process command {cmd!r}")

    def __call__(self, payload: Any = None) -> None:
        """The process as an event action: resume it unless it has died.

        Callable like any other action, so the event loop has one path
        for callbacks and processes alike.
        """
        if self.alive:
            self._step(payload)

    def _resume_with(self, payload: Any) -> None:
        if not self.alive:
            return
        self._asleep = False
        self.engine._schedule_resume(self, payload)

    # -- public API ----------------------------------------------------------

    @property
    def asleep(self) -> bool:
        """True while passivated or waiting on a signal (off the heap)."""
        return self._asleep

    def activate(self, payload: Any = None) -> None:
        """Wake a passivated process immediately (at the current sim time)."""
        if not self.alive:
            raise SimulationError(f"cannot activate dead process {self.name!r}")
        if not self._asleep:
            raise SimulationError(
                f"process {self.name!r} is already scheduled; activate() is "
                "only valid for passivated/waiting processes"
            )
        self._resume_with(payload)

    def kill(self) -> None:
        """Permanently stop the process; pending resumptions are ignored."""
        self.alive = False
        self.gen.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if not self.alive else ("asleep" if self._asleep else "ready")
        return f"Process({self.name!r}, {state})"


class Tick:
    """A recurring callback owning one reusable heap entry.

    Created by :meth:`Engine.tick`.  On each firing the kernel calls
    ``fn()`` (``fn(payload)`` when the tick carries a payload) and pushes
    the *same* six-slot entry back with an advanced time and a fresh
    sequence number — per period that is one heappush and zero
    allocations, against the generator pattern's resumption frames plus
    a command tuple plus a new heap entry.

    The sequence number is (re)drawn **after** ``fn()`` returns, exactly
    where a generator process would schedule its next ``hold`` — so among
    simultaneous events at its site a tick's next firing sorts after
    everything its body scheduled there, bit-for-bit matching the
    process it replaced.
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
        #: emulate a hold-first process body: the first firing only
        #: reschedules (same event count as the generator's priming step)
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
        silent reschedule — the shape of a generator body that starts
        with ``yield hold(interval)`` (samplers, broadcasters), where the
        registration event primes the loop without sampling at t=0.
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

    def _schedule_process(self, delay: float, proc: Process) -> None:
        site = proc.site
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heapq.heappush(self._heap, [self.now + delay, 10, site, k, proc, None])

    def _schedule_resume(self, proc: Process, payload: Any) -> None:
        site = proc.site
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heapq.heappush(self._heap, [self.now, 10, site, k, proc, payload])

    def process(
        self, gen: Generator, name: str = "", delay: float = 0.0, site: int = 0
    ) -> Process:
        """Register a generator as a process; it first runs ``delay`` from now."""
        proc = Process(self, gen, name, site)
        self._schedule_process(delay, proc)
        return proc

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
        the in-flight event (or by processes resumed later in the same
        timestep) do not restart execution, and :meth:`step` refuses to
        single-step a stopped engine.  This is how a simulation declares
        "the answer is in" while strategy machinery — periodic gradient
        wakeups, steal retries — would otherwise keep seeding the
        calendar forever.
        """
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    def clear(self) -> None:
        """Drop all pending events (used between experiment repetitions)."""
        self._heap.clear()


def drain(engine: Engine, signals: Iterable[Signal]) -> None:
    """Fire a set of signals so no process is left waiting (test helper)."""
    for sig in signals:
        sig.fire(None)
