"""Does the paper's conclusion survive irregular workloads?

The paper deliberately used *predictable* trees (dc, fib) so simulation
features could be attributed to the strategies.  Its introduction,
though, motivates the problem with *unpredictable* computations.  This
bench closes the loop: CWN versus GM on the extended irregular workload
set —

* UTS-style geometric trees (subtree sizes varying over orders of
  magnitude),
* randomized quicksort recursion (data-dependent splits),
* binomial-coefficient recursion at skewed k (chain-like phases),
* the cyclic waxing/waning-parallelism tree the paper itself names,

each over several shape seeds where applicable.  Asserted with the
analysis package's sign test: CWN wins a significant majority of cells,
i.e. the paper's conclusion is not an artifact of dc/fib regularity.
"""

from __future__ import annotations

from repro.analysis import paired_summary
from repro.core import paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.scenario import Scenario
from repro.topology import Grid
from repro.workload import (
    BinomialCoefficient,
    CyclicTree,
    QuicksortTree,
    UnbalancedTreeSearch,
)


def _workloads(full: bool):
    seeds = range(4) if full else range(2)
    for s in seeds:
        yield UnbalancedTreeSearch(seed=s, root_children=24, q=0.47, m=2)
    for s in seeds:
        yield QuicksortTree(3000 if full else 1200, seed=s)
    yield BinomialCoefficient(14, 4)
    yield BinomialCoefficient(14, 7)
    yield CyclicTree(cycles=3, expand_depth=4, chain_depth=3)


def test_irregular_workloads(benchmark, save_artifact):
    full = full_scale()
    topo = Grid(8, 8)

    def sweep():
        rows = []
        for program in _workloads(full):
            cwn = Scenario(program, topo, paper_cwn("grid"), seed=1).run()
            gm = Scenario(program, topo, paper_gm("grid"), seed=1).run()
            label = getattr(program, "label", program.name)
            rows.append((label, cwn.total_goals, cwn.speedup, gm.speedup))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    ratios = [c / g for _l, _n, c, g in rows]
    summary = paired_summary(ratios)
    table = format_table(
        ["workload", "goals", "CWN speedup", "GM speedup", "ratio"],
        [
            [label, n, f"{c:.1f}", f"{g:.1f}", f"{c / g:.2f}"]
            for (label, n, c, g) in rows
        ],
    )
    save_artifact(
        "irregular_workloads",
        f"Irregular workloads on {topo.name}:\n{table}\n{summary}",
    )

    # The conclusion must extend: CWN wins the (clear) majority of the
    # irregular cells too.
    assert summary.wins > summary.losses
    assert summary.geometric_mean_ratio > 1.0
