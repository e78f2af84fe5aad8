"""Communication-ratio sensitivity — the paper's closing caveat.

"We chose a low communication to computation ratio... When the ratio is
higher, CWN may lose some of its edge."  This bench sweeps the ratio and
measures the CWN/GM speedup ratio at each point, quantifying exactly how
much edge CWN loses as communication gets expensive.
"""

from __future__ import annotations

from repro.core import paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.oracle.config import CostModel, SimConfig
from repro.scenario import Scenario
from repro.topology import Grid
from repro.workload import Fibonacci

RATIOS = (0.02, 0.1, 0.3, 1.0, 3.0)


def test_comm_ratio_sensitivity(benchmark, save_artifact):
    fib_n = 15 if full_scale() else 13
    topo = Grid(8, 8)

    def run_sweep():
        rows = []
        for ratio in RATIOS:
            costs = CostModel().with_comm_ratio(ratio)
            cfg = SimConfig(costs=costs, seed=1)
            cwn = Scenario(Fibonacci(fib_n), topo, paper_cwn("grid"), config=cfg).run()
            gm = Scenario(Fibonacci(fib_n), topo, paper_gm("grid"), config=cfg).run()
            rows.append((ratio, cwn.speedup, gm.speedup, cwn.speedup / gm.speedup))
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save_artifact(
        "comm_ratio_sensitivity",
        format_table(
            ["comm/comp ratio", "CWN speedup", "GM speedup", "CWN/GM"],
            rows,
            title=f"Sensitivity to communication cost: fib({fib_n}) on grid 8x8",
        ),
    )

    low_ratio = rows[0][3]
    high_ratio = rows[-1][3]
    # The paper's prediction: CWN loses (some of) its edge as the ratio grows.
    assert high_ratio < low_ratio, rows
    # And at the paper's chosen low ratio, CWN must clearly win.
    assert low_ratio > 1.1
