"""Open-system behaviour under Poisson query arrivals.

The paper studies closed runs: one computation, start to finish.  Real
symbolic-computation servers (§1's motivating systems) face a *stream*
of queries.  This bench offers a Poisson stream of fib queries at
increasing load and measures per-query response times under CWN, GM and
work stealing — the regime where GM's redistribution ability (its one
observed strength, Plots 11-12) could plausibly pay off, because new
queries keep arriving at single PEs while old ones drain.

Asserted: response times grow with offered load for every strategy
(basic queueing sanity); CWN's mean response time stays at or below
GM's at every load point (the paper's conclusion extends to the open
system); all queries complete correctly.
"""

from __future__ import annotations

import random

from repro.core import make_strategy
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.oracle.config import SimConfig
from repro.oracle.machine import Machine
from repro.scenario.arrivals import Arrivals
from repro.topology import Grid
from repro.workload import Fibonacci

STRATEGIES = ("cwn", "gm", "stealing")


def _poisson_times(n: int, mean_gap: float, seed: int) -> list[float]:
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(n):
        t += rng.expovariate(1.0 / mean_gap)
        out.append(t)
    return out


def test_open_system_poisson(benchmark, save_artifact):
    full = full_scale()
    fib_n = 13 if full else 11
    n_queries = 12 if full else 8
    topo = Grid(8, 8)
    # Mean inter-arrival gaps, from light to heavy offered load.
    gaps = (3000.0, 1000.0, 300.0) if full else (1500.0, 500.0, 150.0)

    def sweep():
        rows = []
        rng = random.Random(99)
        arrival_pes = [rng.randrange(topo.n) for _ in range(n_queries)]
        for gap in gaps:
            times = _poisson_times(n_queries, gap, seed=3)
            for spec in STRATEGIES:
                machine = Machine(
                    topo,
                    Fibonacci(fib_n),
                    make_strategy(spec, family="grid"),
                    SimConfig(seed=1),
                    arrivals=Arrivals(queries=n_queries, pes=arrival_pes, times=times),
                )
                res = machine.run()
                rts = res.response_times
                rows.append(
                    (
                        gap,
                        spec,
                        sum(rts) / len(rts),
                        max(rts),
                        res.utilization_percent,
                        res.result_value == [Fibonacci(fib_n).expected_result()] * n_queries,
                    )
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = format_table(
        ["mean gap", "strategy", "mean response", "max response", "util %", "correct"],
        [
            [f"{g:.0f}", s, f"{m:.0f}", f"{mx:.0f}", f"{u:.1f}", ok]
            for g, s, m, mx, u, ok in rows
        ],
    )
    save_artifact(
        "open_system",
        f"Poisson stream of {n_queries} fib({fib_n}) queries on {topo.name}:\n{table}",
    )

    assert all(ok for *_rest, ok in rows)
    by = {(g, s): m for g, s, m, _mx, _u, _ok in rows}
    for spec in STRATEGIES:
        # Heavier offered load (smaller gap) => longer mean response.
        assert by[(gaps[-1], spec)] >= by[(gaps[0], spec)] * 0.9, spec
    for gap in gaps:
        # The paper's conclusion extends to the open system.
        assert by[(gap, "cwn")] <= by[(gap, "gm")] * 1.02, (gap, by)
