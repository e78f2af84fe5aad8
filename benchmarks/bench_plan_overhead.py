"""Plan-spine overhead: build + reduce vs raw run_batch, cold vs warm.

The plan pipeline wraps every experiment in two pure functions (builder
and reducer) around :func:`repro.parallel.run_batch`.  This bench pins
the cost of that indirection on a Table 2 slice:

* **plan overhead** — executing the comparison plan vs feeding the same
  specs straight into ``run_batch`` (the delta is plan construction,
  metadata threading and the reduce step);
* **cold vs warm cache** — the wall-clock payoff the spine buys every
  experiment: a warm rerun of the same slice performs zero simulations.
"""

from __future__ import annotations

import os
import time

from repro.experiments.comparison import comparison_plan
from repro.experiments.plan import execute
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.parallel import ResultCache, run_batch


def _slice_kwargs(full: bool) -> dict:
    return dict(
        kind="both",
        pe_counts=(25, 64) if full else (25,),
        fib_sizes=(9, 11) if full else (7, 9),
        dc_sizes=(55,) if full else (21,),
        seed=1,
    )


def test_plan_overhead(benchmark, save_artifact, tmp_path):
    plan = comparison_plan(**_slice_kwargs(full_scale()))
    jobs = min(4, os.cpu_count() or 1)

    # Raw farm baseline: the same specs, no builder/reducer around them.
    t0 = time.perf_counter()
    raw = run_batch(list(plan.runs), jobs=None)
    raw_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cells = execute(plan, jobs=None)
    plan_s = time.perf_counter() - t0
    assert len(cells) == len(plan.runs) // 2
    assert [c.cwn.completion_time for c in cells] == [
        r.completion_time for r in raw.results[0::2]
    ]

    # Build + reduce alone (simulations mocked out by the warm cache).
    cache = ResultCache(tmp_path)
    t0 = time.perf_counter()
    cold = execute(comparison_plan(**_slice_kwargs(full_scale())), jobs=jobs, cache=cache)
    cold_s = time.perf_counter() - t0
    assert [c.ratio for c in cold] == [c.ratio for c in cells]

    # Timed here, not read off the benchmark fixture: under
    # --benchmark-disable it keeps no stats.
    warm_cache = ResultCache(tmp_path)
    t0 = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: execute(
            comparison_plan(**_slice_kwargs(full_scale())), jobs=jobs, cache=warm_cache
        ),
        rounds=1,
        iterations=1,
    )
    warm_s = time.perf_counter() - t0
    assert [c.ratio for c in warm] == [c.ratio for c in cells]
    assert warm_cache.misses == 0, "warm rerun must not simulate"

    overhead_pct = 100.0 * (plan_s - raw_s) / raw_s if raw_s else 0.0
    rows = [
        ("raw run_batch (serial)", f"{raw_s:.3f}", "-"),
        ("plan execute (serial)", f"{plan_s:.3f}", f"{overhead_pct:+.1f}% vs raw"),
        (f"plan execute (cold cache, jobs={jobs})", f"{cold_s:.3f}", "-"),
        ("plan execute (warm cache)", f"{warm_s:.3f}", f"{cold_s / warm_s:.0f}x vs cold"),
    ]
    save_artifact(
        "plan_overhead",
        format_table(
            ["configuration", "seconds", "delta"],
            rows,
            title=f"Plan-spine overhead on a Table 2 slice ({len(plan.runs)} runs)",
        ),
    )
