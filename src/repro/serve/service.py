"""The scenario service core: dedup three ways, dispatch by policy.

:class:`ScenarioService` is the front-independent heart of ``repro
serve`` — the HTTP handler, the stdin loop, and the replay harness all
drive this one object.  A submitted spec is deduplicated in order of
increasing cost:

1. **in-flight coalescing** (singleflight) — a request whose content
   hash is already being computed attaches to that computation's
   future and receives the *identical* result object;
2. **warm cache hit** — the shared content-addressed
   :class:`~repro.parallel.cache.ResultCache` answers without touching
   the fleet;
3. **dispatch on admission** — a genuine miss goes to the persistent
   worker fleet the moment it is admitted, before :meth:`submit` first
   yields, on the worker the pluggable
   :class:`~repro.serve.policy.ServePolicy` picks.  Like CWN placing a
   goal as soon as it is created, a miss never waits for company: every
   placement is one decision per miss, so waiting would buy nothing.

Backpressure is explicit: past ``high_water`` admitted-but-unfinished
computations the service answers *busy* (HTTP 429) instead of queueing
unboundedly, and each fleet worker's task queue is itself bounded.

Everything emits ``serve.*`` telemetry (request, coalesce, dispatch,
complete, busy, cache_error) under the repo's sink-guard convention,
so ``repro watch`` renders a live serve panel for free.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from ..obs import telemetry as _telemetry
from ..parallel.cache import ResultCache
from ..parallel.pool import WorkerFleet, task_json
from ..scenario import Scenario
from .policy import ServePolicy

__all__ = ["Busy", "ComputeError", "ScenarioService", "ServeStats", "Submitted"]


class Busy(Exception):
    """The service is past its high-water mark; try again later (429)."""


class ComputeError(Exception):
    """A fleet worker failed this scenario; carries its traceback text."""


@dataclass
class ServeStats:
    """Live counters for ``/stats``, the smoke gate, and the bench."""

    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    computed: int = 0
    dispatched: int = 0
    rejected: int = 0
    errors: int = 0

    @property
    def batches(self) -> int:
        """``dispatched`` under its old name, kept for perfbench only."""
        return self.dispatched

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class Submitted:
    """One answered request: where it came from and what it holds."""

    spec: str
    key: str
    source: str  # "cache" | "coalesced" | "computed"
    result: dict[str, Any]
    wall_ms: float


@dataclass
class _Entry:
    """One admitted computation (unique content hash)."""

    key: str
    scenario: Scenario
    future: "asyncio.Future[dict[str, Any]]"
    admitted: float = field(default_factory=time.perf_counter)


class ScenarioService:
    """Deduplicating, policy-dispatched scenario execution.

    ``window`` and ``max_batch`` are accepted and ignored: they sized the
    batch window this service no longer has.  Only ``perfbench/`` still
    passes them, and they go when the ``RunSpec`` alias, kept for the
    same reason, does.
    """

    def __init__(
        self,
        fleet: WorkerFleet,
        policy: ServePolicy,
        cache: ResultCache | None = None,
        high_water: int = 256,
        *,
        window: float | None = None,
        max_batch: int | None = None,
    ) -> None:
        if high_water < 1:
            raise ValueError(f"high_water must be >= 1 (got {high_water})")
        self.fleet = fleet
        self.policy = policy
        self.cache = cache
        self.high_water = high_water
        self.stats = ServeStats()
        self._inflight: dict[str, _Entry] = {}
        self._by_task: dict[int, _Entry] = {}
        self._next_task_id = 0
        self._accepting = False
        self._pump: "asyncio.Task[None] | None" = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the fleet (once) and the completion pump."""
        if self._accepting:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.fleet.start)
        self._accepting = True
        tele = _telemetry.sink()
        if tele is not None:
            # The HTTP front re-emits with host/port once bound; this
            # covers the stdin and replay fronts.
            tele.emit(
                "serve.start", workers=self.fleet.workers, policy=self.policy.name
            )
        self._pump = asyncio.ensure_future(self._pump_loop())

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for every admitted computation to finish; True when empty."""
        futures = [e.future for e in self._inflight.values()]
        if futures:
            await asyncio.wait(futures, timeout=timeout)
        return not self._inflight

    async def stop(self, drain_timeout: float | None = 30.0) -> None:
        """Graceful shutdown: refuse new work, drain, stop the fleet."""
        self._accepting = False
        await self.drain(timeout=drain_timeout)
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except (asyncio.CancelledError, Exception):
                pass
            self._pump = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.fleet.stop)

    @property
    def accepting(self) -> bool:
        return self._accepting

    # -- the front door ----------------------------------------------------------

    async def submit(self, spec_text: str) -> Submitted:
        """Answer one request (raises ``ValueError`` on a bad spec,
        :class:`Busy` past the high-water mark, :class:`ComputeError`
        when the scenario itself fails in a worker)."""
        start = time.perf_counter()
        tele = _telemetry.sink()
        # seeded(): the CLI's default-seed rule, so a served spec and
        # `repro run --json` of the same spec hash — and answer —
        # byte-identically.  content_hash canonicalizes eagerly, so
        # unknown registry names surface here as ValueError — a 400,
        # not a dead fleet task.
        scenario = Scenario.from_spec(spec_text).seeded()
        key = scenario.content_hash()
        self.stats.requests += 1

        entry = self._inflight.get(key)
        if entry is not None:
            self.stats.coalesced += 1
            if tele is not None:
                tele.emit("serve.coalesce", key=key[:12])
            # shield: a cancelled client must not cancel the shared
            # computation other waiters (and the cache) depend on.
            result = await asyncio.shield(entry.future)
            return Submitted(
                spec_text, key, "coalesced", result, _ms_since(start)
            )

        if self.cache is not None:
            # The stored result dict is the answer: reviving it as a
            # SimResult only to turn it back into a dict spends ~20 µs.
            cached = self.cache.get(scenario, revive=False)
            if cached is not None:
                self.stats.cache_hits += 1
                if tele is not None:
                    tele.emit("serve.request", key=key[:12], source="cache")
                return Submitted(spec_text, key, "cache", cached, _ms_since(start))

        if not self._accepting:
            self.stats.rejected += 1
            raise Busy("service is draining; not accepting new work")
        if len(self._inflight) >= self.high_water:
            self.stats.rejected += 1
            if tele is not None:
                tele.emit("serve.busy", inflight=len(self._inflight))
            raise Busy(
                f"{len(self._inflight)} computations in flight "
                f"(high water {self.high_water}); try again later"
            )

        if tele is not None:
            tele.emit("serve.request", key=key[:12], source="miss")
        loop = asyncio.get_running_loop()
        entry = _Entry(key, scenario, loop.create_future())
        self._inflight[key] = entry
        self._dispatch_one(entry, tele)
        result = await asyncio.shield(entry.future)
        self.stats.computed += 1
        return Submitted(spec_text, key, "computed", result, _ms_since(start))

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_one(self, entry: _Entry, tele: Any) -> None:
        import queue as queue_mod

        worker = self.policy.pick(self.fleet.outstanding)
        task_id = self._next_task_id
        self._next_task_id += 1
        spec_json = task_json(entry.scenario)
        try:
            self.fleet.submit(worker, task_id, spec_json)
        except queue_mod.Full:
            # The chosen worker's bounded queue is at capacity; fall
            # back to the globally least-loaded one before giving up.
            fallback = min(
                range(self.fleet.workers), key=lambda i: self.fleet.outstanding[i]
            )
            try:
                self.fleet.submit(fallback, task_id, spec_json)
                worker = fallback
            except queue_mod.Full:
                self.stats.rejected += 1
                self._inflight.pop(entry.key, None)
                if not entry.future.done():
                    entry.future.set_exception(
                        Busy("every fleet queue is at capacity")
                    )
                return
        self._by_task[task_id] = entry
        self.stats.dispatched += 1
        if tele is not None:
            tele.emit(
                "serve.dispatch",
                key=entry.key[:12],
                worker=worker,
                policy=self.policy.name,
                outstanding=list(self.fleet.outstanding),
            )

    # -- completions -------------------------------------------------------------

    async def _pump_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await loop.run_in_executor(None, self.fleet.next_result, 0.2)
            if item is None:
                continue
            task_id, worker, ok, payload = item
            self.policy.completed(worker)
            entry = self._by_task.pop(task_id, None)
            if entry is None:  # pragma: no cover - defensive
                continue
            self._complete(entry, worker, ok, payload)

    def _complete(self, entry: _Entry, worker: int, ok: bool, payload: Any) -> None:
        tele = _telemetry.sink()
        self._inflight.pop(entry.key, None)
        wall_ms = _ms_since(entry.admitted)
        if ok:
            if self.cache is not None:
                # put() is atomic; a concurrent serve process racing on
                # the same key writes identical bytes.  It takes the
                # worker's result dict as sent, unrevived.  A failed
                # write (full disk, read-only cache) costs only a later
                # warm hit: the answer stands, and the pump must live on.
                try:
                    self.cache.put(entry.scenario, payload)
                except OSError as exc:
                    if tele is not None:
                        tele.emit("serve.cache_error", key=entry.key[:12], error=str(exc))
            if tele is not None:
                tele.emit(
                    "serve.complete",
                    key=entry.key[:12],
                    worker=worker,
                    ok=True,
                    wall_ms=round(wall_ms, 3),
                )
            if not entry.future.done():
                entry.future.set_result(payload)
        else:
            self.stats.errors += 1
            if tele is not None:
                tele.emit(
                    "serve.complete",
                    key=entry.key[:12],
                    worker=worker,
                    ok=False,
                    wall_ms=round(wall_ms, 3),
                )
            if not entry.future.done():
                entry.future.set_exception(ComputeError(str(payload)))


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0
