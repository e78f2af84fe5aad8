"""Resumable batch execution: cache hits skipped, failures retried.

:func:`run_batch` is the one batch engine, behind every plan and every
``--jobs``: give it a list of scenarios and it returns one result per
scenario, in order, having simulated only what the cache did not
already hold.  It spells each scenario itself: the spellable ones are
farmed and cached, and the rest (live objects the spec grammar cannot
express) run in this process, uncached.  Because every farmed run is
persisted the moment it completes, an interrupted sweep resumes where
it stopped — rerunning the same command costs only the cells that never
completed.

Transient failures (a worker killed by the OOM killer, a crashed
container) are retried up to ``retries`` times; deterministic failures
(a spec that cannot simulate) exhaust their retries and raise — or are
reported per-spec with ``strict=False`` for sweeps that prefer partial
results over none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs import telemetry as _telemetry
from ..oracle.stats import SimResult
from ..scenario.scenario import Scenario
from .cache import ResultCache
from .pool import FarmError, RunFailure, run_many

__all__ = ["BatchReport", "run_batch"]

#: progress callback: (completed, total, source) with source
#: "cache" | "sim" | "local"
BatchProgressFn = Callable[[int, int, str], None]


@dataclass
class BatchReport:
    """Outcome of one :func:`run_batch` call.

    ``results[i]`` corresponds to ``specs[i]``; with ``strict=False`` a
    permanently failed spec leaves ``None`` in its slot and an entry in
    ``failures``.  ``local`` counts the unspellable runs executed in
    this process.
    """

    results: list[SimResult | None]
    hits: int
    simulated: int
    retried: int
    failures: list[RunFailure] = field(default_factory=list)
    local: int = 0

    @property
    def executed(self) -> int:
        """Runs that actually simulated (farmed misses + local runs)."""
        return self.simulated + self.local

    def __str__(self) -> str:
        return (
            f"{len(self.results)} specs: {self.hits} cache hits, "
            f"{self.simulated} simulated ({self.retried} retried), "
            f"{self.local} local, {len(self.failures)} failed"
        )


def run_batch(
    specs: Sequence[Scenario],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    retries: int = 1,
    progress: BatchProgressFn | None = None,
    strict: bool = True,
) -> BatchReport:
    """Execute ``specs``, reusing ``cache`` and farming misses out.

    Scenarios whose parts the spec grammar cannot spell run last, in
    this process and uncached (progress source ``"local"``); their
    errors propagate as raised.

    Parameters
    ----------
    jobs:
        Worker processes for the misses.  ``None`` (and ``1``) means
        in-process serial — so passing only ``cache=`` gives cached
        serial execution, never a surprise fan-out — and ``0`` means
        all cores.
    cache:
        Result store; ``None`` disables persistence entirely.  Freshly
        simulated results are written back before the call returns, so
        a rerun of the same batch performs zero new simulations.  A
        write that fails with ``OSError`` is reported as a
        ``cache.error`` telemetry event; the result is still returned.
    use_cache:
        When false, the cache is neither read nor written (a forced
        recomputation that leaves existing entries untouched).
    retries:
        How many extra attempts a failing spec gets.  Retries run with
        the same deterministic spec — they only help against transient
        infrastructure failures, which is exactly the point: a
        deterministic simulation bug should fail loudly, not flakily.
    progress:
        Called once per spec, as it lands: a hit when it is read, a
        farmed run right after it is persisted, a failure when its
        retries are spent, a local run when it returns.
    strict:
        On permanent failure, raise (default) or record the failure and
        leave ``None`` in that result slot.
    """
    specs = list(specs)  # each farmable entry is replaced by its spelling
    total = len(specs)
    results: list[SimResult | None] = [None] * total
    done = 0
    tele = _telemetry.sink()
    if tele is not None:
        tele.emit("batch.start", total=total, jobs=jobs)

    def advance(source: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, source)
        if tele is not None:
            tele.emit(
                "batch.progress",
                done=done,
                total=total,
                source=source,
                queue_depth=total - done,
            )

    reading = cache is not None and use_cache
    pending: list[int] = []
    local: list[int] = []
    hits = 0
    for i, spec in enumerate(specs):
        try:
            specs[i] = spec = spec.spelled()
        except ValueError:
            local.append(i)
            continue
        cached = cache.get(spec) if reading else None
        if cached is not None:
            results[i] = cached
            hits += 1
            advance("cache")
        else:
            pending.append(i)

    simulated = 0
    retried = 0
    failures: list[RunFailure] = []
    attempt = 0

    def landed(i: int, res: SimResult) -> None:
        # Each completed run is persisted, then reported, the moment it
        # reaches this process (not when the whole batch returns): an
        # interrupted or crashed batch keeps everything that finished,
        # so reruns resume, and progress moves as results land.
        nonlocal simulated, retried
        results[i] = res
        simulated += 1
        if attempt > 0:
            retried += 1
        if reading:
            spec = specs[i]
            # A failed write (full disk, read-only cache) costs only a
            # later warm hit: the result stands and the batch goes on.
            try:
                cache.put(spec, res)
            except OSError as exc:
                if tele is not None:
                    tele.emit("cache.error", key=spec.content_hash()[:12], error=str(exc))
        advance("sim")

    while pending:
        batch = pending
        if attempt == 0:
            outcome = run_many(
                [specs[i] for i in batch],
                jobs=jobs,
                return_errors=True,
                on_result=lambda local_index, res: landed(batch[local_index], res),
            )
        else:
            # Isolated retries: one spec per fresh single-worker fleet,
            # never in this process, where a spec that killed its worker
            # would kill the caller instead.  A dead worker no longer
            # takes its batch-mates down (the fleet fails only the spec
            # it died on), so each retry's fate is its own spec's.
            outcome = []
            for i in batch:
                outcome.extend(
                    run_many(
                        [specs[i]],
                        jobs=1,
                        return_errors=True,
                        on_result=lambda _local, res, i=i: landed(i, res),
                        isolate=True,
                    )
                )
        still_failing: list[int] = []
        last_failures: list[RunFailure] = []
        for i, res in zip(batch, outcome):
            if isinstance(res, RunFailure):
                still_failing.append(i)
                last_failures.append(res)
        if not still_failing:
            break
        if attempt >= retries:
            failures = last_failures
            if strict:
                raise FarmError(
                    f"{len(failures)} spec(s) failed after {retries + 1} "
                    "attempt(s); first failure:\n" + failures[0].error
                )
            for i in still_failing:
                advance("sim")
            break
        attempt += 1
        pending = still_failing

    for i in local:
        results[i] = specs[i].run()
        advance("local")

    report = BatchReport(
        results=results,
        hits=hits,
        simulated=simulated,
        retried=retried,
        failures=failures,
        local=len(local),
    )
    if tele is not None:
        tele.emit(
            "batch.finish",
            total=total,
            hits=hits,
            simulated=simulated,
            retried=retried,
            local=len(local),
            failures=len(failures),
        )
    return report
