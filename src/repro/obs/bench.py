"""``repro bench``: the perf-trajectory harness.

Every performance claim in this reproduction's history — the 1.78x
callback-kernel win, the 6 s → 15 ms closed-form machine construction —
used to live only in commit messages.  This harness makes the trajectory
a first-class artifact: it runs the canonical benches and writes a
schema-versioned ``BENCH_<n>.json`` at the repo root, one per PR, and
``repro bench --compare BENCH_prev.json`` exits nonzero when a metric
regresses beyond a tolerance factor — the CI perf gate.

Canonical benches (quick mode shrinks repeats, not coverage):

* **kernel** — raw calendar schedule-and-fire throughput, plus the
  end-to-end fib(13) @ Grid(8,8) / CWN events/s that PR 3 optimized;
* **construction** — wall-clock ms to wire a full Machine around
  Grid(64,64) and Hypercube(12), the closed-form-routing win of PR 4;
* **farm** — cold-cache batch throughput through
  :func:`repro.parallel.run_batch` and the warm-rerun cache hit rate
  (which must be 1.0: a warm rerun simulates nothing);
* **serve** — the scenario service end to end: cold requests/s through
  a warm 2-worker fleet, warm-dedup requests/s (every request answered
  from the shared cache without touching the fleet), and the replay
  harness's p50/p99 latency on a fixed mixed stream;
* **pdes** — one large machine through the conservative parallel
  engine (:func:`repro.pdes.run_sharded`, 4 shards) against the same
  scenario serial, plus the speedup ratio.  On a single-core host the
  ratio is honest and < 1 — four workers time-slice one CPU and pay
  the window-barrier IPC on top; the metric exists to track the
  trajectory on real multi-core hardware.

All metrics carry a ``higher_is_better`` direction so the comparison is
mechanical; timings use best-of-N to shed scheduler noise.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import telemetry as _telemetry

__all__ = [
    "BENCH_NUMBER",
    "BENCH_SCHEMA",
    "Metric",
    "compare_metrics",
    "default_bench_path",
    "load_bench",
    "run_benches",
    "write_bench",
]

#: Version of the BENCH_*.json payload layout.
BENCH_SCHEMA = 1

#: This PR's trajectory point: ``repro bench`` writes ``BENCH_10.json``.
BENCH_NUMBER = 10


@dataclass(frozen=True)
class Metric:
    """One benchmark measurement with its comparison direction."""

    value: float
    unit: str
    higher_is_better: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Metric":
        return cls(
            value=float(data["value"]),
            unit=str(data["unit"]),
            higher_is_better=bool(data["higher_is_better"]),
        )


def _best_seconds(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Minimum wall-clock over ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# -- the canonical benches -------------------------------------------------------

def bench_kernel(quick: bool = False) -> dict[str, Metric]:
    """Calendar and end-to-end simulator throughput (events/s)."""
    from repro.core import CWN
    from repro.oracle.config import SimConfig
    from repro.oracle.engine import Engine
    from repro.oracle.machine import Machine
    from repro.topology import Grid
    from repro.workload import Fibonacci

    repeats = 2 if quick else 5

    count = 20_000 if quick else 50_000

    def calendar() -> Engine:
        engine = Engine()
        for i in range(count):
            engine.schedule(float(i % 97), lambda _: None)
        engine.run()
        return engine

    cal_s, engine = _best_seconds(calendar, repeats)

    def end_to_end():
        return Machine(
            Grid(8, 8), Fibonacci(13), CWN(radius=5, horizon=1), SimConfig(seed=1)
        ).run()

    sim_s, result = _best_seconds(end_to_end, repeats)
    assert result.result_value == 233, "kernel bench computed the wrong fib(13)"
    return {
        "calendar_events_per_s": Metric(engine.events_executed / cal_s, "events/s"),
        "kernel_events_per_s": Metric(result.events_executed / sim_s, "events/s"),
    }


def bench_construction(quick: bool = False) -> dict[str, Metric]:
    """Machine-construction latency on the PR-4 flagship shapes (ms)."""
    from repro.core import paper_cwn
    from repro.oracle.config import SimConfig
    from repro.oracle.machine import Machine
    from repro.topology import Grid, Hypercube
    from repro.workload import Fibonacci

    repeats = 2 if quick else 5
    metrics: dict[str, Metric] = {}
    for key, make in (
        ("grid64x64_construct_ms", lambda: Grid(64, 64)),
        ("hypercube12_construct_ms", lambda: Hypercube(12)),
    ):
        def build():
            topology = make()
            return Machine(
                topology, Fibonacci(12), paper_cwn(topology.family), SimConfig(seed=1)
            )

        seconds, _machine = _best_seconds(build, repeats)
        metrics[key] = Metric(seconds * 1000.0, "ms", higher_is_better=False)
    # The floor for the PR 7 constructor trim: Hypercube(12) wires 3x
    # the channels of a same-PE-count grid, so parity is not expected —
    # but the ratio must stay bounded, machine-independently (both
    # sides run on this host, so the ratio cancels CPU speed).
    metrics["hypercube12_over_grid64_construct_ratio"] = Metric(
        metrics["hypercube12_construct_ms"].value
        / metrics["grid64x64_construct_ms"].value,
        "ratio",
        higher_is_better=False,
    )
    return metrics


def bench_farm(quick: bool = False) -> dict[str, Metric]:
    """Batch throughput cold, and the warm-rerun hit rate (must be 1.0)."""
    from repro.parallel import ResultCache, run_batch
    from repro.scenario import Scenario

    n_specs = 4 if quick else 8
    specs = [Scenario("fib:11", "grid:4x4", "cwn", seed=seed) for seed in range(1, n_specs + 1)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cache = ResultCache(root)
        start = time.perf_counter()
        cold = run_batch(specs, jobs=2, cache=cache)
        cold_s = time.perf_counter() - start
        assert cold.simulated == n_specs, "cold batch should simulate everything"
        # The warm rerun is all cache lookups (~ms), so unlike the cold
        # pass it can and must repeat: best-of-N sheds the FS noise.
        warm_s, warm = _best_seconds(
            lambda: run_batch(specs, jobs=2, cache=cache), 3 if quick else 5
        )
    return {
        "farm_runs_per_s": Metric(n_specs / cold_s, "runs/s"),
        "warm_cache_hit_rate": Metric(warm.hits / n_specs, "fraction"),
        "warm_batch_ms": Metric(warm_s * 1000.0, "ms", higher_is_better=False),
    }


def bench_pdes(quick: bool = False) -> dict[str, Metric]:
    """One large machine, serial vs 4-shard conservative-parallel (events/s).

    Both sides run the same scenario, and the sharded result is
    asserted bit-equal on its most fragile witness before timing counts
    for anything — a bench that measured a wrong simulation fast would
    be worse than no bench.
    """
    from repro.pdes import run_sharded
    from repro.scenario import Scenario

    # Same spec in quick and full mode: the per-window barrier cost is a
    # fixed tax, so a smaller quick workload would report a throughput
    # incomparable with the committed full-mode point and flake the
    # trajectory gate.  Quick mode only drops the repeat.
    spec = "fib:16@grid:32x32/cwn?seed=1"
    shards = 4
    scenario = Scenario.from_spec(spec)
    repeats = 1 if quick else 2
    serial_s, serial = _best_seconds(scenario.run, repeats)
    sharded_s, sharded = _best_seconds(lambda: run_sharded(scenario, shards), repeats)
    assert serial.events_executed == sharded.events_executed, (
        "sharded run diverged from serial"
    )
    assert serial.completion_time == sharded.completion_time, (
        "sharded run diverged from serial"
    )
    return {
        "pdes_events_per_s": Metric(sharded.events_executed / sharded_s, "events/s"),
        "pdes_serial_events_per_s": Metric(serial.events_executed / serial_s, "events/s"),
        "pdes_speedup_4_shards": Metric(serial_s / sharded_s, "x"),
    }


def bench_serve(quick: bool = False) -> dict[str, Metric]:
    """The scenario service end to end (requests/s and replay latency).

    One persistent 2-worker fleet serves two passes of the same distinct
    specs: the cold pass measures batched dispatch through the fleet,
    the warm pass must answer every request from the shared cache
    (asserted — a warm pass that simulates is a dedup regression, not a
    slow bench).  The replay metrics run the fixed mixed stream through
    the ``central`` policy and report wall-clock p50/p99, gating the
    per-request overhead (parse, hash, batch window, queue hops).
    """
    import asyncio

    from repro.parallel import ResultCache
    from repro.serve import ReplayRequest, ScenarioService, WorkerFleet, make_policy
    from repro.serve.replay import run_replay

    n_specs = 8 if quick else 16
    specs = [f"fib:9 @ grid:2x2 / cwn?seed={seed}" for seed in range(1, n_specs + 1)]

    async def drive(cache: ResultCache) -> tuple[float, float]:
        fleet = WorkerFleet(workers=2)
        service = ScenarioService(
            fleet, make_policy("central", 2), cache=cache, window=0.005, max_batch=8
        )
        await service.start()
        start = time.perf_counter()
        await asyncio.gather(*(service.submit(s) for s in specs))
        cold_s = time.perf_counter() - start
        assert service.stats.computed == n_specs, "cold pass should compute everything"
        start = time.perf_counter()
        await asyncio.gather(*(service.submit(s) for s in specs))
        warm_s = time.perf_counter() - start
        assert service.stats.cache_hits == n_specs, (
            "warm pass should be all cache hits"
        )
        await service.stop()
        return cold_s, warm_s

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
        cold_s, warm_s = asyncio.run(drive(ResultCache(root)))

    # Same stream in quick and full mode (like bench_pdes): percentile
    # metrics on different streams would not be comparable across the
    # committed trajectory points.
    stream = [
        ReplayRequest(f"fib:9 @ grid:2x2 / cwn?seed={seed}")
        for seed in (1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4)
    ]
    replay = run_replay(stream, policies=("central",), workers=2, window=0.005)[0]
    return {
        "serve_cold_requests_per_s": Metric(n_specs / cold_s, "requests/s"),
        "serve_warm_dedup_requests_per_s": Metric(n_specs / warm_s, "requests/s"),
        "serve_replay_p50_ms": Metric(replay.p50_ms, "ms", higher_is_better=False),
        "serve_replay_p99_ms": Metric(replay.p99_ms, "ms", higher_is_better=False),
    }


def bench_lint(quick: bool = False) -> dict[str, Metric]:
    """Full-package ``repro lint`` wall time (ms, lower is better).

    The linter runs in CI on every push and locally via ``check.sh``;
    with the flow engine (call-graph construction, effect fixpoint,
    strategy instantiation, taint pass) it is the heaviest rule set.
    The budget is a full-repo pass well under 10 s — this metric is the
    trajectory gate that keeps it there.
    """
    from repro.lint import run_lint

    def lint_once():
        # A fresh pass each repeat: the flow project caches on the
        # ProjectIndex, which run_lint rebuilds, so this times the real
        # cold-start cost CI pays.
        result = run_lint()
        assert not result.errors, result.errors
        return result

    repeats = 1 if quick else 2
    seconds, _ = _best_seconds(lint_once, repeats)
    return {
        "lint_ms": Metric(seconds * 1000.0, "ms", higher_is_better=False),
    }


def run_benches(quick: bool = False) -> dict[str, Metric]:
    """All canonical benches, emitting one telemetry event per metric."""
    metrics: dict[str, Metric] = {}
    tele = _telemetry.sink()
    for group in (
        bench_kernel,
        bench_construction,
        bench_farm,
        bench_serve,
        bench_pdes,
        bench_lint,
    ):
        for name, metric in group(quick).items():
            metrics[name] = metric
            if tele is not None:
                tele.emit(
                    "bench.metric", name=name, value=metric.value, unit=metric.unit
                )
    return metrics


# -- the BENCH_<n>.json artifact -------------------------------------------------

def default_bench_path(root: str | Path = ".") -> Path:
    """Where this PR's trajectory point lives: ``<root>/BENCH_<n>.json``."""
    return Path(root) / f"BENCH_{BENCH_NUMBER}.json"


def write_bench(
    metrics: dict[str, Metric],
    path: str | Path,
    quick: bool = False,
) -> Path:
    """Write a schema-versioned trajectory point."""
    path = Path(path)
    payload = {
        "schema": BENCH_SCHEMA,
        "bench": BENCH_NUMBER,
        "quick": quick,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "metrics": {name: metric.to_dict() for name, metric in metrics.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict[str, Metric]:
    """Read a trajectory point's metrics back (schema checked)."""
    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: bench schema {schema!r} != supported {BENCH_SCHEMA}"
        )
    return {
        name: Metric.from_dict(data) for name, data in payload["metrics"].items()
    }


def compare_metrics(
    current: dict[str, Metric],
    baseline: dict[str, Metric],
    tolerance: float = 2.0,
) -> list[str]:
    """Regressions of ``current`` against ``baseline``, as report lines.

    ``tolerance`` is the allowed worsening *factor*: with the default
    2.0 a throughput metric fails below half the baseline and a latency
    metric fails above twice it.  CI compares across unlike machines, so
    it passes a larger factor (the repo convention is a 10x margin).
    Metrics present on only one side are ignored — the trajectory may
    gain benches over time.
    """
    if tolerance < 1.0:
        raise ValueError(f"tolerance is a worsening factor >= 1.0 (got {tolerance})")
    regressions: list[str] = []
    for name, metric in sorted(current.items()):
        base = baseline.get(name)
        if base is None or base.value == 0:
            continue
        if metric.higher_is_better:
            worse_by = base.value / metric.value if metric.value > 0 else float("inf")
        else:
            worse_by = metric.value / base.value
        if worse_by > tolerance:
            direction = "below" if metric.higher_is_better else "above"
            regressions.append(
                f"{name}: {metric.value:.4g} {metric.unit} is {worse_by:.2f}x "
                f"{direction} baseline {base.value:.4g} "
                f"(tolerance {tolerance:.2f}x)"
            )
    return regressions


def render_metrics(metrics: dict[str, Metric]) -> str:
    """Human-readable metric table (the command's stdout)."""
    width = max(len(name) for name in metrics) if metrics else 0
    lines = []
    for name, metric in sorted(metrics.items()):
        arrow = "^" if metric.higher_is_better else "v"
        lines.append(f"  {name:<{width}}  {metric.value:>14,.2f} {metric.unit} ({arrow})")
    return "\n".join(lines)


def main(
    quick: bool = False,
    out: str | Path | None = None,
    compare: str | Path | None = None,
    tolerance: float = 2.0,
    as_json: bool = False,
) -> int:
    """The ``repro bench`` command body; returns the process exit code.

    Runs the benches, loads the baseline (if any) *before* writing —
    so ``--out X --compare X`` refreshes the artifact and still gates
    against the committed point — then reports regressions.
    """
    metrics = run_benches(quick=quick)
    baseline = None
    if compare is not None:
        baseline = load_bench(compare)
    path = write_bench(metrics, default_bench_path() if out is None else out, quick=quick)
    if as_json:
        print(json.dumps({n: m.to_dict() for n, m in sorted(metrics.items())}, indent=2))
    else:
        print(f"bench ({'quick' if quick else 'full'}) -> {path}")
        print(render_metrics(metrics))
    if baseline is None:
        return 0
    regressions = compare_metrics(metrics, baseline, tolerance=tolerance)
    if regressions:
        print(f"\nPERF REGRESSION vs {compare}:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nno regressions vs {compare} (tolerance {tolerance:.2f}x)")
    return 0
