"""The simulation farm itself: serial vs farmed wall time, cache speedup.

Unlike the other benches this one measures the *harness*, not the
paper: the same batch of independent runs executed (a) serially in
process, (b) fanned out across worker processes, and (c) against a warm
content-addressed cache.  It asserts the two guarantees the experiment
modules lean on — farmed results are identical to serial, and a warm
rerun performs zero new simulations — and records the measured
speedups as an artifact.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.parallel import ResultCache, run_batch, run_many
from repro.scenario import Scenario


def _batch(full: bool) -> list[Scenario]:
    fib_sizes = (11, 12, 13, 14) if full else (10, 11, 12)
    seeds = range(1, 5) if full else range(1, 4)
    return [
        Scenario(f"fib:{n}", topo, strategy, seed=seed)
        for n in fib_sizes
        for topo in ("grid:8x8", "dlm:4x8x8")
        for strategy in ("cwn", "gm")
        for seed in seeds
    ]


def test_parallel_farm_speedup(benchmark, save_artifact, tmp_path):
    specs = _batch(full_scale())
    jobs = min(4, os.cpu_count() or 1)

    t0 = time.perf_counter()
    serial = [spec.run() for spec in specs]
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    farmed = run_many(specs, jobs=jobs)
    farm_s = time.perf_counter() - t0

    for a, b in zip(farmed, serial):
        assert a.completion_time == b.completion_time
        assert np.array_equal(a.busy_time, b.busy_time)

    cache = ResultCache(tmp_path)
    t0 = time.perf_counter()
    cold = run_batch(specs, jobs=jobs, cache=cache)
    cold_s = time.perf_counter() - t0
    assert cold.simulated == len(specs)

    warm_report = benchmark.pedantic(
        lambda: run_batch(specs, jobs=jobs, cache=cache),
        rounds=1,
        iterations=1,
    )
    t0 = time.perf_counter()
    warm2 = run_batch(specs, jobs=jobs, cache=cache)
    warm_s = time.perf_counter() - t0

    # The farm's contract: a warm cache answers everything.
    assert warm_report.hits == len(specs) and warm_report.simulated == 0
    assert warm2.hits == len(specs) and warm2.simulated == 0

    rows = [
        ["runs", len(specs)],
        ["worker processes", jobs],
        ["serial", f"{serial_s:.2f}s"],
        [f"farmed (jobs={jobs})", f"{farm_s:.2f}s"],
        ["farm speedup", f"{serial_s / farm_s:.2f}x"],
        ["cold batch (+cache writes)", f"{cold_s:.2f}s"],
        ["warm batch (all hits)", f"{warm_s:.2f}s"],
        ["cache speedup vs serial", f"{serial_s / warm_s:.0f}x"],
        ["warm hit rate", f"{warm2.hits}/{len(specs)}"],
    ]
    save_artifact(
        "parallel_farm",
        format_table(["quantity", "value"], rows, title="Simulation farm (serial vs farmed vs cached)"),
    )
