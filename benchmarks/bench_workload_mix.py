"""Mixed workloads — a realistic query blend on one machine.

The paper motivates its domain with functional programs, logic programs
and problem-solving; production machines run blends of those, not one
benchmark at a time.  This bench mixes a balanced tree (dc), a skewed
tree (fib) and a pruned search (N-Queens) under a single root via
``ParallelMix`` and checks the comparison's conclusion survives the
blend — with the bonus accounting check that every sub-result is exact.
"""

from __future__ import annotations

from repro.core import paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.scenario import Scenario
from repro.topology import paper_grid
from repro.workload import DivideConquer, Fibonacci, NQueens, ParallelMix


def test_mixed_workload(benchmark, save_artifact):
    if full_scale():
        mix = ParallelMix([DivideConquer(1, 987), Fibonacci(15), NQueens(9)])
    else:
        mix = ParallelMix([DivideConquer(1, 377), Fibonacci(13), NQueens(8)])
    topo = paper_grid(64)
    expected = mix.expected_result()

    def run_both():
        rows = []
        for name, strategy in (("cwn", paper_cwn("grid")), ("gm", paper_gm("grid"))):
            res = Scenario(mix, topo, strategy, seed=1).run()
            assert res.result_value == expected, res.result_value
            rows.append(
                (name, res.completion_time, res.utilization_percent, res.speedup)
            )
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_artifact(
        "workload_mix",
        format_table(
            ["strategy", "completion", "util %", "speedup"],
            rows,
            title=f"Mixed workload {mix.name} on grid 8x8 ({mix.total_goals()} goals)",
        ),
    )

    speedups = {name: row[2] for name, *row in rows}
    assert speedups["cwn"] > speedups["gm"]
