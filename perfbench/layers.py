"""The traced run: each path's time split by layer, from outside the program.

Layers are the program's module names.  Nothing under ``src/`` knows it
is traced; the spans come from three places:

* the kernel — ``cProfile`` over ``Machine.run``, self time grouped by
  the module that owns each function (a builtin's time goes to the
  module that called it, ``heapq`` always to ``engine``);
* the farm and the service — timers wrapped around public calls
  (``ResultCache.get``/``put``, ``Scenario.from_spec``/``content_hash``,
  ``WorkerFleet.submit``/``next_result``) on the live objects;
* sharding — the ``shard.*`` telemetry the coordinator already emits.

Every path also runs untraced beside its traced twin, and the ratio of
the two walls is reported as that path's ``trace_overhead``.
"""

from __future__ import annotations

import asyncio
import cProfile
import gc
import pstats
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import tree
from inputs import Inputs
from phases import Ledger, work_dir

KERNEL_LAYERS = ("engine", "pe", "channel", "machine", "core", "topology", "workload")
_ORACLE = {"engine", "pe", "channel", "machine"}


def layer_of(filename: str) -> str:
    """The kernel layer owning a source file (``other`` outside them)."""
    try:
        parts = Path(filename).resolve().relative_to(tree.SRC / "repro").parts
    except ValueError:
        return "other"
    if parts[0] == "oracle" and parts[-1][:-3] in _ORACLE:
        return parts[-1][:-3]
    return parts[0] if parts[0] in KERNEL_LAYERS else "other"


def attribute(profile: cProfile.Profile) -> tuple[dict[str, float], dict[str, int]]:
    """Self ms per kernel layer, and the call counts the count metrics need."""
    self_ms: dict[str, float] = defaultdict(float)
    calls = {"heap_pushes": 0, "placements": 0}
    layers: dict[str, str] = {}

    def owner(filename: str) -> str:
        if filename not in layers:
            layers[filename] = layer_of(filename)
        return layers[filename]

    for (filename, _line, name), (_cc, nc, tt, _ct, callers) in pstats.Stats(profile).stats.items():
        if "heappush" in name:
            calls["heap_pushes"] += nc
        if filename == "~":  # a builtin: charge the modules that called it
            if "heapq" in name:
                self_ms["engine"] += tt * 1e3
                continue
            for (caller_file, _, _), edge in callers.items():
                self_ms[owner(caller_file)] += edge[2] * 1e3
            continue
        layer = owner(filename)
        self_ms[layer] += tt * 1e3
        if layer == "core" and name in ("on_goal_created", "on_goal_message"):
            calls["placements"] += nc
    return self_ms, calls


def columns(samples: list[dict[str, float]]) -> dict[str, list[float]]:
    """Per-repeat dicts turned into one sample list per key."""
    return {key: [s[key] for s in samples] for key in samples[0]}


# -- kernel -------------------------------------------------------------------------

def kernel(inputs: Inputs, ledger: Ledger, budget: float) -> dict[str, list[float]]:
    from repro.parallel.cache import result_json
    from repro.scenario import Scenario

    samples, plain, traced = [], [], []
    deadline = time.perf_counter() + budget
    while not samples or time.perf_counter() < deadline:
        start = time.perf_counter()
        Scenario.from_spec(inputs.paper).run()
        plain.append(time.perf_counter() - start)

        start = time.perf_counter()
        machine = Scenario.from_spec(inputs.paper).build()
        build_ms = (time.perf_counter() - start) * 1e3
        profile = cProfile.Profile()
        profile.enable()
        result = machine.run()
        profile.disable()
        traced.append(time.perf_counter() - start)
        ledger.check(inputs.paper, result_json(result))

        self_ms, calls = attribute(profile)
        sample = {f"{layer}.self_ms": self_ms.get(layer, 0.0)
                  for layer in KERNEL_LAYERS + ("other",)}
        sample.update({
            "engine.events": result.events_executed,
            "engine.heap_pushes": calls["heap_pushes"],
            "channel.transfers": int(sum(result.channel_messages)),
            "machine.goal_messages": result.goal_messages_sent,
            "machine.response_messages": result.response_messages_sent,
            "machine.control_words": result.control_words_sent,
            "core.placements": calls["placements"],
            "machine.build_ms": build_ms,
        })
        samples.append(sample)
    out = columns(samples)
    out["kernel.trace_overhead"] = overhead(traced, plain)
    return out


def overhead(traced: list[float], plain: list[float]) -> list[float]:
    """Traced wall over untraced wall, as a ratio of medians."""
    return [statistics.median(traced) / statistics.median(plain)]


# -- farm ---------------------------------------------------------------------------

def timed(fn, log: list[float], after=None):
    """``fn`` wrapped to append each call's wall ms to ``log``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        log.append((time.perf_counter() - start) * 1e3)
        if after is not None:
            after(value)
        return value
    return wrapper


def farm(inputs: Inputs, ledger: Ledger, budget: float) -> dict[str, list[float]]:
    from repro.parallel import ResultCache, RunSpec, run_batch
    from repro.parallel.cache import result_json
    from repro.scenario import Scenario

    def specs():
        return [RunSpec.from_scenario(Scenario.from_spec(s)) for s in inputs.sweep]

    start = time.perf_counter()
    for spec in specs():
        spec.run()
    compute_ms = (time.perf_counter() - start) * 1e3

    samples, plain, traced = [], [], []
    deadline = time.perf_counter() + budget
    while not samples or time.perf_counter() < deadline:
        root = work_dir()
        try:
            start = time.perf_counter()
            run_batch(specs(), jobs=2, cache=ResultCache(root))
            plain.append(time.perf_counter() - start)
            shutil.rmtree(root)

            cold = ResultCache(root)
            puts, sizes, gets, first = [], [], [], []
            cold.put = timed(cold.put, puts, after=lambda path: sizes.append(path.stat().st_size))
            start = time.perf_counter()
            report = run_batch(
                specs(), jobs=2, cache=cold,
                progress=lambda *_: first or first.append(time.perf_counter() - start),
            )
            cold_s = time.perf_counter() - start
            traced.append(cold_s)

            warm = ResultCache(root)
            warm.get = timed(warm.get, gets)
            warm_report = run_batch(specs(), jobs=2, cache=warm)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for rep in (report, warm_report):
            for spec, result in zip(inputs.sweep, rep.results):
                ledger.check(spec, None if result is None else result_json(result))
        samples.append({
            "pool.first_result_ms": first[0] * 1e3,
            "pool.compute_ms": compute_ms,
            "pool.efficiency": compute_ms / 1e3 / (2 * cold_s),
            "cache.put_ms": statistics.median(puts),
            "cache.put_bytes": statistics.mean(sizes),
            "cache.get_ms": statistics.median(gets),
            "cache.hits": warm.hits,
            "cache.misses": cold.misses,
        })
    out = columns(samples)
    out["pool.trace_overhead"] = overhead(traced, plain)
    return out


# -- service ------------------------------------------------------------------------

SERVE_STAGES = (
    "scenario.parse_ms", "scenario.hash_ms", "serve.cache_ms", "serve.admission_ms",
    "fleet.roundtrip_ms", "fleet.compute_ms", "fleet.queue_ms", "serve.complete_ms",
)
SERVE_SPANS = ("serve.generator_lag_ms", "serve.unattributed_ms")


class ServeTracer:
    """Per-request stage spans around one in-process ``ScenarioService``.

    A submission runs synchronously from its start through parse, hash
    and cache lookup up to its first ``await``, so the wrappers charge
    those spans to ``self.current``, the request being submitted.  Fleet
    spans are keyed by task id and joined to requests by content hash
    once the stream is over.
    """

    def __init__(self, service) -> None:
        from repro.scenario import Scenario

        self.service = service
        self.current: dict | None = None
        self.dispatched: dict[int, tuple[float, str]] = {}
        self.returned: dict[int, float] = {}
        self._patched = []
        self._patch(Scenario, "from_spec", staticmethod(self._span("parse", Scenario.from_spec)))
        self._patch(Scenario, "content_hash", self._hash_span(Scenario.content_hash))
        self._patch(service.cache, "get", self._span("cache", service.cache.get))
        self._patch(service.fleet, "submit", self._on_submit(service.fleet.submit))
        self._patch(service.fleet, "next_result", self._on_result(service.fleet.next_result))

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _span(self, stage: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            if self.current is not None and stage not in self.current:
                self.current[f"{stage}_end"] = time.perf_counter()
                self.current[stage] = (self.current[f"{stage}_end"] - start) * 1e3
            return value
        return wrapper

    def _hash_span(self, fn):
        def wrapper(scenario):
            start = time.perf_counter()
            key = fn(scenario)
            if self.current is not None and "key" not in self.current:
                self.current["hash"] = (time.perf_counter() - start) * 1e3
                self.current["key"] = key
            return key
        return wrapper

    def _on_submit(self, fn):
        def wrapper(worker, task_id, spec_json):
            fn(worker, task_id, spec_json)
            self.dispatched[task_id] = (time.perf_counter(), spec_json)
        return wrapper

    def _on_result(self, fn):
        def wrapper(timeout=None):
            item = fn(timeout)
            if item is not None:
                self.returned[item[0]] = time.perf_counter()
            return item
        return wrapper

    async def submit(self, spec: str, due: float) -> dict:
        """Submit one request; its synchronous prefix fills ``self.current``."""
        record = {"spec": spec, "lag": (time.perf_counter() - due) * 1e3}
        self.current = record
        try:
            record["answer"] = await self.service.submit(spec)
        except Exception as exc:  # a refusal or failure is a failed request
            record["error"] = exc
        record["latency"] = (time.perf_counter() - due) * 1e3
        record["done_at"] = time.perf_counter()
        return record

    def stages(self, records: list[dict]) -> dict[str, list[float]]:
        """Each stage's samples, and the unattributed rest of computed requests."""
        from repro.parallel.spec import RunSpec

        by_key = {}
        for task_id, (sent, spec_json) in self.dispatched.items():
            if task_id in self.returned:
                by_key[RunSpec.from_json(spec_json).key()] = (sent, self.returned[task_id])
        out = defaultdict(list)
        for rec in records:
            out["scenario.parse_ms"].append(rec["parse"])
            out["scenario.hash_ms"].append(rec["hash"])
            out["serve.generator_lag_ms"].append(rec["lag"])
            if "cache" in rec:
                out["serve.cache_ms"].append(rec["cache"])
            if rec["answer"].source != "computed" or rec["key"] not in by_key:
                continue
            sent, back = by_key[rec["key"]]
            stages = {
                "serve.admission_ms": (sent - rec["cache_end"]) * 1e3,
                "fleet.roundtrip_ms": (back - sent) * 1e3,
                "serve.complete_ms": (rec["done_at"] - back) * 1e3,
            }
            for name, value in stages.items():
                out[name].append(value)
            known = rec["lag"] + rec["parse"] + rec["hash"] + rec["cache"] + sum(stages.values())
            out["serve.unattributed_ms"].append(rec["latency"] - known)
        return out


async def _play(requests, submit) -> list[dict]:
    """Submit each request at its due time (open loop); gather the records."""
    t0 = time.perf_counter()
    tasks = []
    for request in requests:
        when = t0 + request.due
        pause = when - time.perf_counter()
        if pause > 0:
            await asyncio.sleep(pause)
        tasks.append(asyncio.ensure_future(submit(request.spec, when)))
    return await asyncio.gather(*tasks)


async def _plain_submit(service, spec: str, due: float) -> dict:
    record = {"spec": spec}
    try:
        record["answer"] = await service.submit(spec)
    except Exception as exc:  # a refusal or failure is a failed request
        record["error"] = exc
    record["latency"] = (time.perf_counter() - due) * 1e3
    return record


def serve(inputs: Inputs, ledger: Ledger) -> dict[str, list[float]]:
    """The whole stream untraced, then its first half traced in a fresh service.

    Both services run the ``repro serve`` defaults with the benchmark's
    fleet knobs (2 workers, high water 1024, queue depth 512), in process,
    so the wrappers can see them; each starts with an empty cache.
    """
    from repro.parallel.cache import ResultCache
    from repro.serve import ScenarioService, WorkerFleet, make_policy
    from phases import canonical

    half = inputs.stream[: len(inputs.stream) // 2]

    async def session(trace: bool):
        root = work_dir()
        gc.collect()  # forked workers should not inherit the kernel phases' garbage
        service = ScenarioService(
            WorkerFleet(workers=2, queue_depth=512),
            make_policy("central", 2, seed=1),
            cache=ResultCache(root),
            window=0.01,
            max_batch=16,
            high_water=1024,
        )
        try:
            start = time.perf_counter()
            await service.start()
            await service.submit(inputs.probe)
            ready_ms = (time.perf_counter() - start) * 1e3
            if not trace:
                plain = await _play(inputs.stream, lambda s, d: _plain_submit(service, s, d))
                return plain, None
            tracer = ServeTracer(service)
            try:
                records = await _play(half, tracer.submit)
            finally:
                tracer.restore()
            stats = service.stats
            return records, (tracer, stats, ready_ms)
        finally:
            await service.stop()
            shutil.rmtree(root, ignore_errors=True)

    plain, _ = asyncio.run(session(trace=False))
    records, (tracer, stats, ready_ms) = asyncio.run(session(trace=True))
    for rec in plain + records:
        answer = rec.get("answer")
        ledger.check(rec["spec"], None if answer is None else canonical(answer.result))
    records = [r for r in records if "answer" in r]

    samples = tracer.stages(records)
    compute = _serial_compute_ms({r["spec"] for r in records if r["answer"].source == "computed"})
    samples["fleet.compute_ms"] = compute
    median_compute = statistics.median(compute)
    samples["fleet.queue_ms"] = [rt - median_compute for rt in samples["fleet.roundtrip_ms"]]
    out = {name: samples[name] for name in SERVE_STAGES + SERVE_SPANS}
    counts = {
        "serve.requests": stats.requests,
        "serve.computed": stats.computed,
        "serve.cache_hits": stats.cache_hits,
        "serve.coalesced": stats.coalesced,
        "serve.batches": stats.batches,
        "serve.rejected": stats.rejected,
        "serve.dedup_frac": (stats.cache_hits + stats.coalesced) / stats.requests,
        "serve.ready_ms": ready_ms,
    }
    out.update({name: [value] for name, value in counts.items()})
    plain_ms = [r["latency"] for r in plain]
    out["serve.p99_ms"] = [statistics.quantiles(plain_ms, n=100)[98]]
    out["serve.trace_overhead"] = overhead([r["latency"] for r in records], plain_ms)
    return out


def _serial_compute_ms(specs: set[str]) -> list[float]:
    """In-process compute time of each spec: what a fleet worker spends on it."""
    from repro.scenario import Scenario

    walls = []
    for spec in sorted(specs):
        start = time.perf_counter()
        Scenario.from_spec(spec).seeded().run()
        walls.append((time.perf_counter() - start) * 1e3)
    return walls


# -- sharding -----------------------------------------------------------------------

def pdes(inputs: Inputs, ledger: Ledger, budget: float) -> dict[str, list[float]]:
    import io

    from repro.obs import telemetry
    from repro.parallel.cache import result_json
    from repro.pdes import run_sharded
    from repro.scenario import Scenario

    samples, plain, traced = [], [], []
    deadline = time.perf_counter() + budget
    while not samples or time.perf_counter() < deadline:
        start = time.perf_counter()
        serial = Scenario.from_spec(inputs.shard).run()
        serial_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        plain_result = run_sharded(Scenario.from_spec(inputs.shard), 2)
        plain.append(time.perf_counter() - start)

        buffer = io.StringIO()
        with telemetry.capture(buffer):
            called = time.time()
            start = time.perf_counter()
            sharded = run_sharded(Scenario.from_spec(inputs.shard), 2)
            traced.append(time.perf_counter() - start)
        for result in (serial, plain_result, sharded):
            ledger.check(inputs.shard, result_json(result))

        events = defaultdict(list)
        for event in telemetry.read_events(buffer):
            events[event["ev"]].append(event)
        finish = events["shard.finish"][0]
        barrier_ms = sum(e["wall_ms"] for e in events["shard.sync"])
        samples.append({
            "pdes.windows": finish["windows"],
            "pdes.events_per_window": finish["events"] / finish["windows"],
            "pdes.barrier_ms": barrier_ms,
            "pdes.barrier_frac": barrier_ms / (finish["wall_s"] * 1e3),
            "pdes.injections": sum(e["injections"] for e in events["shard.window"]),
            "pdes.startup_ms": (events["shard.start"][0]["wall"] - called) * 1e3,
            "pdes.serial_ms": serial_ms,
            "pdes.events_per_s": plain_result.events_executed / plain[-1],
            "pdes.speedup": serial_ms / 1e3 / plain[-1],
        })
    out = columns(samples)
    out["pdes.trace_overhead"] = overhead(traced, plain)
    return out


def traced(inputs: Inputs, ledger: Ledger, seconds: float, serve_share: float) -> dict[str, list[float]]:
    """The samples of every per-layer metric of one traced run.

    The closed-loop paths split the non-serve time in equal thirds; the
    service then plays the open-loop stream (see :func:`serve`).
    """
    third = (1 - serve_share) * seconds / 3
    out = kernel(inputs, ledger, third)
    out.update(farm(inputs, ledger, third))
    out.update(pdes(inputs, ledger, third))
    out.update(serve(inputs, ledger))
    out["failed_frac"] = [ledger.failed / ledger.attempted]
    return out
