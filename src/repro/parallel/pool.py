"""The simulation farm and the one worker pool behind it and ``repro serve``.

The simulator is single-threaded pure Python, so the only way to use a
multi-core machine is process parallelism.  :class:`WorkerFleet` is the
only code that starts simulation workers: :func:`run_many` (hence
``run_batch``, the plan spine and every ``--jobs``) runs each call's
specs on a fleet that lives for the call, and ``repro serve`` keeps one
warm for its whole life.  :func:`run_many` guarantees:

* **determinism** — a worker does exactly what ``scenario.run()`` does
  in process: each scenario travels as its :func:`task_json`, seeds
  inside it, and no worker identity or wall clock enters the
  simulation, so ``run_many(scenarios, jobs=N)`` is bit-identical to
  ``[sc.run() for sc in scenarios]`` for every ``N``;
* **ordered results** — output index ``i`` is scenario ``i``'s result,
  no matter which worker finished first;
* **no hang on a dead worker** — a worker that dies without raising
  (OOM-killed, segfault, container eviction) fails the one task it died
  on, as a retryable :class:`RunFailure`; the fleet respawns it and
  re-queues the rest of its tasks.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import queue as queue_mod
import stat
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from itertools import islice
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from ..obs import telemetry as _telemetry
from ..oracle.engine import SimulationError
from ..oracle.stats import SimResult
from ..scenario.scenario import Scenario
from .cache import result_from_dict, result_to_dict

__all__ = ["FarmError", "RunFailure", "WorkerFleet", "resolve_jobs", "run_many", "task_json"]

#: progress callback signature: (completed_count, total_count)
ProgressFn = Callable[[int, int], None]

#: streaming-result callback signature: (spec_index, result)
ResultFn = Callable[[int, SimResult], None]

#: a finished task travelling home: (task_id, worker, ok, payload)
#: payload is a result dict when ok, error text when not
FleetResult = tuple[int, int, bool, Any]

#: bytes of tasks written ahead into a worker's pipe, so its next tasks
#: are there when it finishes one, yet no write fills the pipe (64 KiB on
#: Linux, 16 KiB on macOS) and blocks its writer.  The rest of a worker's
#: queue waits in the parent; a task past the budget waits until the
#: pipe is empty.
WRITE_AHEAD_BYTES = 16 * 1024

#: specs each farm worker holds: the one it runs and the next, so it
#: never waits on its parent, and the next spec goes to whichever worker
#: frees up first
FARM_QUEUE_DEPTH = 2


class FarmError(SimulationError):
    """A spec failed in a worker; carries the worker's traceback text.

    Derives from the engine's :class:`~repro.oracle.engine.SimulationError`
    (a deliberately *different* class would silently slip past callers'
    existing ``except SimulationError`` handlers around ``Scenario.run``).
    """


@dataclass(frozen=True)
class RunFailure:
    """One spec's failure, as data (for ``return_errors=True`` callers)."""

    spec: Scenario
    error: str

    def __str__(self) -> str:
        head = self.error.strip().splitlines()[-1] if self.error.strip() else "?"
        return f"{self.spec.workload} on {self.spec.topology} [{self.spec.strategy}]: {head}"


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request.

    ``None`` means serial (1 — parallelism is strictly opt-in, so a
    caller reaching the farm for its cache alone does not fan out);
    ``0`` means all cores.
    """
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all cores, None = serial)")
    return jobs


def _close_inherited_sockets() -> None:
    """Close the sockets (past stdin/out/err) a forked worker inherited.

    A worker respawned inside ``repro serve`` inherits every client
    connection open at that moment; its copy would keep a connection the
    service closes from ever reaching the client as EOF.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # no descriptor directory to scan
        return
    for fd in fds:
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own descriptor, already gone
            pass


def task_json(scenario: Scenario) -> str:
    """One run as a fleet task: the scenario's exact spelling, as JSON.

    Raises :class:`ValueError` for parts the spec grammar cannot spell;
    a worker revives the text with :meth:`Scenario.from_dict`.
    """
    return json.dumps(scenario.to_dict(), sort_keys=True)


def _worker_main(tasks: Any, results: Any) -> None:
    """One fleet worker: loop until the ``None`` sentinel, simulate, send home.

    A worker imports the simulator stack once, at birth, and joins the
    ``REPRO_TELEMETRY`` stream (under fork it inherits both; under spawn
    it starts blank).  A failing spec never kills the worker — its
    traceback travels home as data.  Each result is written to the pipe
    before the next task is taken, so when a worker dies, every result
    it finished has reached its parent and the oldest task it still
    holds is the one it died on.
    """
    _close_inherited_sockets()
    from ..oracle import machine  # noqa: F401  (import for side effect)

    _telemetry.init_from_env()
    while True:
        item = tasks.recv()
        if item is None:
            break
        task_id, spec_json = item
        try:
            result = Scenario.from_dict(json.loads(spec_json)).run()
            message = (task_id, True, result_to_dict(result))
        except Exception:
            message = (task_id, False, traceback.format_exc())
        results.send(message)


class WorkerFleet:
    """A fixed-size fleet of warm simulation workers that respawn on death.

    ``submit(worker, task_id, spec_json)`` places a task on one
    worker's queue (raising :class:`queue.Full` when that worker already
    holds ``queue_depth`` tasks — the caller's backpressure signal);
    ``next_result(timeout)`` blocks for the next finished task from any
    worker.  ``outstanding`` is the live per-worker count of held tasks
    the dispatch policies read.

    Each worker's queue lives here, oldest first; its first tasks, up to
    :data:`WRITE_AHEAD_BYTES`, are in the worker's pipe.  A worker that
    dies fails the oldest (the one it died on) as an ``ok=False``
    result, is respawned, and gets the rest re-queued — safe because
    runs are deterministic — so no task completes twice and none is
    lost.  ``submit`` may run on another thread than ``next_result``.
    """

    def __init__(
        self, workers: int = 2, queue_depth: int = 64, start_method: str | None = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"a fleet needs >= 1 worker (got {workers})")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1 (got {queue_depth})")
        # fork shares the already-imported stack with workers for free;
        # spawn (the only option on some platforms) imports it per worker.
        methods = multiprocessing.get_all_start_methods()
        if start_method is not None and start_method not in methods:
            raise ValueError(
                f"start_method {start_method!r} not available here "
                f"(supported: {', '.join(methods)})"
            )
        self.workers = workers
        self.queue_depth = queue_depth
        self._ctx = multiprocessing.get_context(
            start_method or ("fork" if "fork" in methods else "spawn")
        )
        #: per worker: (task_id, pickled task) of every task it holds, oldest first
        self._held: list[deque[tuple[int, bytes]]] = [deque() for _ in range(workers)]
        #: per worker: how many of its held tasks are written to its pipe
        self._written = [0] * workers
        self._tasks: list[Any] = [None] * workers
        self._results: list[Any] = [None] * workers
        self._procs: list[Any] = [None] * workers
        self._ready: deque[FleetResult] = deque()
        self._lock = threading.Lock()
        self._started = False

    @property
    def outstanding(self) -> list[int]:
        """Tasks each worker holds (queued or running), by worker index."""
        return [len(held) for held in self._held]

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the workers (idempotent)."""
        with self._lock:
            if self._started:
                return
            for worker in range(self.workers):
                self._spawn(worker)
            self._started = True

    def _spawn(self, worker: int) -> None:
        """Start ``worker``'s process and write ahead the tasks it holds."""
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        result_reader, result_writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(task_reader, result_writer),
            daemon=True,
            name=f"repro-worker-{worker}",
        )
        proc.start()
        # Only the worker holds its ends: its death is EOF on the results.
        task_reader.close()
        result_writer.close()
        self._tasks[worker] = task_writer
        self._results[worker] = result_reader
        self._procs[worker] = proc
        self._written[worker] = 0
        self._write_ahead(worker)

    def _write_ahead(self, worker: int) -> None:
        held, written = self._held[worker], self._written[worker]
        pending = sum(len(task) for _, task in islice(held, written))
        try:
            while written < len(held):
                task = held[written][1]
                if written and pending + len(task) > WRITE_AHEAD_BYTES:
                    break
                self._tasks[worker].send_bytes(task)
                pending += len(task)
                written += 1
        except OSError:  # a dead worker: _bury writes its queue to the next
            pass
        self._written[worker] = written

    def stop(self, timeout: float = 10.0) -> None:
        """Stop: idle workers exit on a sentinel, busy ones are terminated.

        Nobody would read a busy worker's results (``ScenarioService.stop``
        drains first, so a served fleet stops idle).
        """
        with self._lock:
            if not self._started:
                return
            self._started = False
            for worker, proc in enumerate(self._procs):
                if self._held[worker]:
                    proc.terminate()
                    continue
                try:
                    self._tasks[worker].send(None)  # an idle worker's pipe is empty
                except OSError:  # a dead worker
                    pass
            for proc in self._procs:
                proc.join(timeout=timeout)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=1.0)
            for worker in range(self.workers):
                self._tasks[worker].close()
                self._results[worker].close()
                self._held[worker].clear()
            self._ready.clear()

    def alive(self) -> list[bool]:
        """Per-worker liveness (a dead worker is respawned by ``next_result``)."""
        return [proc.is_alive() for proc in self._procs]

    # -- work --------------------------------------------------------------------

    def submit(self, worker: int, task_id: int, spec_json: str) -> None:
        """Queue one task on ``worker``; :class:`queue.Full` = backpressure."""
        with self._lock:
            if not self._started:
                raise RuntimeError("fleet not started")
            held = self._held[worker]
            if len(held) >= self.queue_depth:
                raise queue_mod.Full
            held.append((task_id, pickle.dumps((task_id, spec_json))))
            self._write_ahead(worker)

    def next_result(self, timeout: float | None = None) -> FleetResult | None:
        """The next finished task from any worker, or ``None`` on timeout.

        Blocking — the service pumps this from an executor thread, never
        from the event loop itself.  Every call watches every worker's
        pipe, so a death is handled as soon as it happens, even while
        other workers keep answering.
        """
        while not self._ready:
            if not self._collect(timeout):
                return None
        return self._ready.popleft()

    def _collect(self, timeout: float | None) -> bool:
        """Wait once on every result pipe; take one message from each ready one.

        A dead worker's pipe reads as EOF (only the worker held its write
        end).  False when the wait timed out or the fleet stopped under it.
        """
        with self._lock:
            if not self._started:
                raise RuntimeError("fleet not started")
            conns = list(self._results)
        try:
            ready = wait(conns, timeout)
        except OSError:  # stop() closed a pipe under this wait
            return False
        with self._lock:
            if not ready or not self._started:
                return False
            for conn in ready:
                worker = conns.index(conn)
                try:
                    task_id, ok, payload = conn.recv()
                except (EOFError, OSError):
                    self._bury(worker)
                    continue
                # A worker runs its queue in order, so a result is always
                # for the oldest task it holds.
                self._held[worker].popleft()
                self._written[worker] -= 1
                self._write_ahead(worker)
                self._ready.append((task_id, worker, ok, payload))
        return True

    def _bury(self, worker: int) -> None:
        """Fail the task a dead worker died on, respawn it, re-queue the rest."""
        proc = self._procs[worker]
        proc.join()  # its pipe hit EOF: the process has exited
        held = self._held[worker]
        if held:
            error = f"worker process died with this task in flight (exit code {proc.exitcode})"
            self._ready.append((held.popleft()[0], worker, False, error))
        self._tasks[worker].close()
        self._results[worker].close()
        self._spawn(worker)

    # -- context manager sugar ---------------------------------------------------

    def __enter__(self) -> "WorkerFleet":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def _run_one(spec: Scenario) -> tuple[bool, object]:
    """Execute one spec in this process; never raises (errors become text)."""
    try:
        return True, spec.run()
    except Exception:
        return False, traceback.format_exc()


def run_many(
    specs: Sequence[Scenario],
    jobs: int | None = None,
    progress: ProgressFn | None = None,
    return_errors: bool = False,
    on_result: ResultFn | None = None,
    isolate: bool = False,
) -> list[SimResult | RunFailure]:
    """Run every spec, farmed across ``jobs`` worker processes.

    Results come back in spec order.  A failing spec raises
    :class:`FarmError` (first failure wins) unless
    ``return_errors`` is set, in which case its slot holds a
    :class:`RunFailure` and the other specs still complete.  A worker
    that dies without raising (OOM-killed, segfault) fails only the spec
    it was running, the same way — never a hang.  ``jobs=None`` (or
    ``1``) runs serially in this process (no fleet, same results);
    ``jobs=0`` uses every core.

    ``on_result`` fires in *this* process the moment a result arrives
    (completion order, not spec order) — the orchestrator's hook for
    persisting completed runs before the batch finishes, so an
    interrupted batch keeps its progress.

    ``isolate`` forces worker subprocesses even when ``jobs`` resolves
    to 1 — the orchestrator's retry mode, where a spec that killed its
    worker must not get the chance to kill this process instead.
    """
    specs = list(specs)
    if not specs:
        return []
    jobs = min(resolve_jobs(jobs), len(specs))

    out: list[SimResult | RunFailure | None] = [None] * len(specs)
    done = 0

    def record(index: int, ok: bool, payload: object) -> None:
        nonlocal done
        if ok:
            out[index] = payload  # a SimResult
            if on_result is not None:
                on_result(index, payload)
        elif return_errors:
            out[index] = RunFailure(specs[index], str(payload))
        else:
            raise FarmError(
                f"simulation of spec #{index} "
                f"({specs[index].workload} on {specs[index].topology} "
                f"[{specs[index].strategy}]) failed in a worker:\n{payload}"
            )
        done += 1
        if progress is not None:
            progress(done, len(specs))

    if jobs <= 1 and not isolate:
        for index, spec in enumerate(specs):
            record(index, *_run_one(spec))
        return out  # type: ignore[return-value]

    tele = _telemetry.sink()
    if tele is not None:
        tele.emit("farm.pool", jobs=jobs, specs=len(specs))
    backlog = iter(enumerate(specs))
    with WorkerFleet(workers=jobs, queue_depth=FARM_QUEUE_DEPTH) as fleet:

        def feed(worker: int, count: int) -> None:
            for index, spec in islice(backlog, count):
                fleet.submit(worker, index, task_json(spec))

        for worker in range(jobs):
            feed(worker, FARM_QUEUE_DEPTH)
        while done < len(specs):
            index, worker, ok, payload = fleet.next_result()  # type: ignore[misc]
            # Refill first: the worker computes while this process persists.
            feed(worker, 1)
            record(index, ok, result_from_dict(payload) if ok else payload)
    return out  # type: ignore[return-value]
