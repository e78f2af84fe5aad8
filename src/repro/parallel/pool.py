"""The simulation farm: fan independent runs out across processes.

The simulator is single-threaded pure Python, so the only way to use a
multi-core machine is process parallelism.  :func:`run_many` executes a
list of :class:`~repro.parallel.spec.RunSpec` on a process pool with
three guarantees the experiment harness leans on:

* **determinism** — a worker does exactly what ``spec.run()`` does in
  process: seeds travel inside the specs, no worker identity or wall
  clock enters the simulation, so ``run_many(specs, jobs=N)`` is
  bit-identical to ``[spec.run() for spec in specs]`` for every ``N``;
* **ordered results** — output index ``i`` is spec ``i``'s result, no
  matter which worker finished first (dispatch is unordered for
  throughput; reassembly restores order);
* **import-once workers** — each worker process runs
  :func:`warm_worker` at birth, importing the simulator stack a single
  time; per-task payloads are just small spec dataclasses.

Dispatch is chunked (``chunksize`` specs per IPC round-trip) because a
small-grid simulation can be shorter than a pipe round-trip.  The pool
is a ``concurrent.futures.ProcessPoolExecutor`` rather than
``multiprocessing.Pool`` deliberately: when a worker dies *without*
raising (OOM-killed, segfault, container eviction) the executor breaks
loudly (``BrokenProcessPool``) and the lost specs come back as
:class:`RunFailure` — retryable by the orchestrator — instead of the
``Pool.imap`` behavior of waiting forever for a result that will never
arrive.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs import telemetry as _telemetry
from ..oracle.engine import SimulationError
from ..oracle.stats import SimResult
from .spec import RunSpec

__all__ = ["FarmError", "RunFailure", "resolve_jobs", "run_many", "warm_worker"]

#: progress callback signature: (completed_count, total_count)
ProgressFn = Callable[[int, int], None]

#: streaming-result callback signature: (spec_index, result)
ResultFn = Callable[[int, SimResult], None]


class FarmError(SimulationError):
    """A spec failed in a worker; carries the worker's traceback text.

    Derives from the engine's :class:`~repro.oracle.engine.SimulationError`
    (a deliberately *different* class would silently slip past callers'
    existing ``except SimulationError`` handlers around ``Scenario.run``).
    """


@dataclass(frozen=True)
class RunFailure:
    """One spec's failure, as data (for ``return_errors=True`` callers)."""

    spec: RunSpec
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


def warm_worker() -> None:
    """Warm a worker process: import the whole simulator stack once.

    Also lights up telemetry from ``REPRO_TELEMETRY`` — under fork the
    worker inherits the parent's sink, but under spawn this is where a
    worker joins the append-only stream.  Public because every
    process-pool in the repo shares this birth ritual: the farm's
    per-batch pools here, and the serve fleet's persistent workers
    (:mod:`repro.serve.fleet`), which stay warm across batches instead
    of re-paying it per dispatch.
    """
    from ..oracle import machine  # noqa: F401  (import for side effect)

    _telemetry.init_from_env()


def _run_one(item: tuple[int, RunSpec]) -> tuple[int, bool, object]:
    """Execute one spec; never raises (errors travel home as text)."""
    index, spec = item
    try:
        return index, True, spec.run()
    except Exception:
        return index, False, traceback.format_exc()


def _run_chunk(
    items: list[tuple[int, RunSpec]],
) -> list[tuple[int, bool, object]]:
    """Worker entry point: one IPC round-trip covers a chunk of specs."""
    return [_run_one(item) for item in items]


def _default_chunksize(n_specs: int, jobs: int) -> int:
    # ~4 chunks per worker balances scheduling slack against IPC count.
    return max(1, n_specs // (jobs * 4))


def run_many(
    specs: Sequence[RunSpec],
    jobs: int | None = None,
    chunksize: int | None = None,
    progress: ProgressFn | None = None,
    return_errors: bool = False,
    on_result: ResultFn | None = None,
    isolate: bool = False,
    start_method: str | None = None,
) -> list[SimResult | RunFailure]:
    """Run every spec, farmed across ``jobs`` worker processes.

    Results come back in spec order.  A failing spec raises
    :class:`FarmError` (first failure wins) unless
    ``return_errors`` is set, in which case its slot holds a
    :class:`RunFailure` and the other specs still complete.  A worker
    that dies without raising (OOM-killed, segfault) surfaces the same
    way — as failures of every spec whose result was lost, never as a
    hang.  ``jobs=None`` (or ``1``) runs serially in this process (no
    pool, same results); ``jobs=0`` uses every core.

    ``on_result`` fires in *this* process the moment a result arrives
    (completion order, not spec order) — the orchestrator's hook for
    persisting completed runs before the batch finishes, so an
    interrupted batch keeps its progress.

    ``isolate`` forces worker subprocesses even when ``jobs`` resolves
    to 1 — the orchestrator's retry mode, where a spec that killed its
    worker must not get the chance to kill this process instead.

    ``start_method`` pins the multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform default
    (fork where available).  Results are bit-identical either way —
    the knob exists for platforms without fork and for tests exercising
    the spawn path's ``warm_worker`` re-initialization.
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
        for item in enumerate(specs):
            record(*_run_one(item))
        return out  # type: ignore[return-value]

    # fork shares the already-imported stack with workers for free;
    # spawn (the only option on some platforms) relies on warm_worker.
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None and start_method not in methods:
        raise ValueError(
            f"start_method {start_method!r} not available here "
            f"(supported: {', '.join(methods)})"
        )
    ctx = multiprocessing.get_context(
        start_method or ("fork" if "fork" in methods else "spawn")
    )
    chunksize = chunksize or _default_chunksize(len(specs), jobs)
    tele = _telemetry.sink()
    if tele is not None:
        tele.emit("farm.pool", jobs=jobs, specs=len(specs), chunksize=chunksize)
    indexed = list(enumerate(specs))
    chunks = [indexed[i : i + chunksize] for i in range(0, len(indexed), chunksize)]

    executor = ProcessPoolExecutor(
        max_workers=jobs, mp_context=ctx, initializer=warm_worker
    )
    try:
        pending = {executor.submit(_run_chunk, chunk): chunk for chunk in chunks}
        while pending:
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            broken = None
            for future in finished:
                chunk = pending.pop(future)
                try:
                    triples = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    triples = [
                        (index, False, f"worker process died mid-batch ({exc})")
                        for index, _spec in chunk
                    ]
                for index, ok, payload in triples:
                    record(index, ok, payload)
            if broken is not None:
                # The pool is unusable; everything still queued is lost.
                for future, chunk in pending.items():
                    for index, _spec in chunk:
                        record(index, False, f"worker process died mid-batch ({broken})")
                break
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return out  # type: ignore[return-value]
