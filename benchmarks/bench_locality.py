"""Communication locality — the scalability argument behind CWN's radius.

Section 2.1: global communication "is not scalable... Luckily, in the
tree structured computation domains it is possible to avoid global
communication as the communication is almost exclusively between parent
and child tasks.  Therefore this scheme restricts a child task to be
within a fixed radius from its parent."

This bench measures exactly that: the route length of parent-child
response traffic under CWN (radius-bounded placement), GM (locality by
default), and uniform random placement (the global scheme the argument
rejects).  Asserts CWN's responses stay local while random placement's
scale with the network diameter.
"""

from __future__ import annotations

from repro.core import RandomPlacement, paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.scenario import Scenario
from repro.topology import paper_grid
from repro.workload import Fibonacci


def test_response_locality(benchmark, save_artifact):
    fib_n = 15 if full_scale() else 13
    topo = paper_grid(100)

    def run_all():
        rows = []
        for name, strategy in (
            ("cwn", paper_cwn("grid")),
            ("gm", paper_gm("grid")),
            ("random (global)", RandomPlacement()),
        ):
            res = Scenario(Fibonacci(fib_n), topo, strategy, seed=1).run()
            rows.append(
                (
                    name,
                    res.mean_response_distance,
                    res.remote_response_fraction,
                    res.speedup,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "locality",
        format_table(
            ["strategy", "mean response route", "remote fraction", "speedup"],
            rows,
            title=f"Parent-child communication locality: fib({fib_n}) on grid 10x10",
        ),
    )

    dist = {name: row[0] for name, *row in rows}
    remote = {name: row[1] for name, *row in rows}
    # CWN bounds parent-child distance: well under the global scheme's.
    assert dist["cwn"] < dist["random (global)"]
    # GM keeps most goals at their parents: the fewest remote responses.
    assert remote["gm"] < remote["cwn"] < remote["random (global)"] + 0.05
    # Nothing exceeds the network diameter (sanity).
    assert all(d <= topo.diameter for d in dist.values())
