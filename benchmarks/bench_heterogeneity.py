"""Heterogeneous machines — where dynamic distribution earns its keep.

The paper's premise: "the structure of these computations cannot be
predicted in advance.  So, static scheduling methods are not
applicable."  Machine heterogeneity sharpens that argument: even for a
*predictable* computation, a static spreader (round-robin) cannot see
that half the PEs run at half speed, while the dynamic schemes route
around the slow PEs through their load measures alone.

Scenario: a saturated 25-PE grid (fib >> PEs) where every other PE runs
at half speed — aggregate capacity 19.0 equivalent PEs.  The bench
asserts the dynamic schemes convert a clearly larger fraction of that
capacity into speedup than the static spreader does, and that nobody
exceeds the capacity bound (a physics check on the simulator itself).
"""

from __future__ import annotations

from repro.core import RoundRobin, paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.oracle.config import SimConfig
from repro.scenario import Scenario
from repro.topology import paper_grid
from repro.workload import Fibonacci


def test_heterogeneous_machine(benchmark, save_artifact):
    fib_n = 18 if full_scale() else 15
    topo = paper_grid(25)
    mixed = tuple(1.0 if pe % 2 == 0 else 0.5 for pe in range(topo.n))
    capacity = sum(mixed)

    strategies = (
        ("cwn", lambda: paper_cwn("grid")),
        ("gm", lambda: paper_gm("grid")),
        ("roundrobin (static)", lambda: RoundRobin()),
    )

    def run_all():
        rows = []
        for name, build in strategies:
            homo = Scenario(Fibonacci(fib_n), topo, build(), config=SimConfig(seed=1)).run()
            hetero = Scenario(
                Fibonacci(fib_n),
                topo,
                build(),
                config=SimConfig(seed=1, pe_speeds=mixed),
            ).run()
            rows.append(
                (name, homo.speedup, hetero.speedup, hetero.speedup / capacity)
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "heterogeneity",
        format_table(
            ["strategy", "homogeneous", "half-speed mix", "frac of capacity"],
            rows,
            title=(
                f"Heterogeneity: fib({fib_n}) on grid 5x5, every other PE at half "
                f"speed (aggregate capacity {capacity:.1f})"
            ),
        ),
    )

    frac = {name: row[2] for name, *row in rows}
    # Physics: no scheme can exceed the machine's aggregate capacity.
    assert all(f <= 1.0 + 1e-9 for f in frac.values()), frac
    # Dynamic schemes adapt to conditions the static spreader cannot see.
    assert frac["cwn"] > frac["roundrobin (static)"] * 1.15, frac
    assert frac["gm"] > frac["roundrobin (static)"] * 1.15, frac
