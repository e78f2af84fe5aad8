"""CWN:GM advantage versus network diameter — the §4 conjecture, directly.

The paper observed bigger CWN wins on grids (diameter 8-38) than on DLMs
(diameter 4-5) and conjectured CWN "performs better than the GM on large
systems, which of course tend to have larger diameters".  The paper
could only vary diameter jointly with topology family and size; our
extended topology set holds the PE count fixed at 64 and sweeps the
diameter through six different 64-PE networks:

    complete(64) diam 1 · dlm(4,8,8) diam ~4 · hypercube(6) diam 6 ·
    torus3d(4,4,4) diam 6 · chordal(64) diam ~8 · grid(8,8) diam 8 ·
    ccc(4)* diam 12   (*ccc(4) is exactly 64 PEs)

Asserted: the CWN/GM speedup ratio correlates positively with diameter
(Spearman-style rank concordance over the sweep), and the grid ratio
exceeds the DLM ratio as in the paper's Table 2.
"""

from __future__ import annotations

from repro.core import paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.scenario import Scenario
from repro.topology import (
    ChordalRing,
    Complete,
    CubeConnectedCycles,
    DoubleLatticeMesh,
    Grid,
    Hypercube,
    Torus3D,
)
from repro.workload import Fibonacci


def _networks():
    return [
        ("complete", Complete(64)),
        ("dlm 4x8x8", DoubleLatticeMesh(4, 8, 8)),
        ("hypercube d6", Hypercube(6)),
        ("torus3d 4x4x4", Torus3D(4, 4, 4)),
        ("chordal n=64", ChordalRing(64)),
        ("grid 8x8", Grid(8, 8)),
        ("ccc d4", CubeConnectedCycles(4)),
    ]


def _family(topo) -> str:
    """Parameter family per Table 1: DLM-like (small diameter, bus) vs
    grid-like."""
    return "dlm" if topo.family in ("dlm", "complete") else "grid"


def _rank_concordance(xs: list[float], ys: list[float]) -> float:
    """Kendall-style concordance in [-1, 1] over all pairs."""
    n = len(xs)
    score = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = xs[i] - xs[j], ys[i] - ys[j]
            if dx == 0 or dy == 0:
                continue
            total += 1
            score += 1 if (dx > 0) == (dy > 0) else -1
    return score / total if total else 0.0


def test_topology_diameter_conjecture(benchmark, save_artifact):
    fib_n = 15 if full_scale() else 13
    program = Fibonacci(fib_n)

    def sweep():
        rows = []
        for name, topo in _networks():
            fam = _family(topo)
            cwn = Scenario(program, topo, paper_cwn(fam), seed=1).run()
            gm = Scenario(program, topo, paper_gm(fam), seed=1).run()
            rows.append((name, topo.diameter, cwn.speedup / gm.speedup))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = format_table(
        ["network (64 PEs)", "diameter", "CWN/GM speedup ratio"],
        [[name, d, f"{r:.2f}"] for name, d, r in sorted(rows, key=lambda r: r[1])],
    )
    concordance = _rank_concordance(
        [float(d) for _n, d, _r in rows], [r for _n, _d, r in rows]
    )
    save_artifact(
        "topology_sensitivity",
        f"Diameter conjecture, fib({fib_n}) at fixed 64 PEs:\n{table}\n"
        f"rank concordance(diameter, ratio) = {concordance:+.2f}",
    )

    by_name = {name: ratio for name, _d, ratio in rows}
    # The paper's Table 2 ordering: grids favor CWN more than DLMs.
    assert by_name["grid 8x8"] > by_name["dlm 4x8x8"]
    # The conjecture: advantage grows with diameter across the sweep.
    assert concordance > 0.0
