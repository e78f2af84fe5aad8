"""The graphics monitor as figures — spacetime heat maps of both schemes.

The paper: "the utilization of each PE is output at every sampling
interval.  This data is displayed on the graphics device with a
continuum of colors representing relative activity on each PE (red:
busy, blue: idle).  We found this facility particularly useful for
debugging the load balancing strategies."

This bench produces that display as SVG artifacts for CWN and GM on the
paper's 10x10 grid, and asserts the two phenomena the paper reads off
it: CWN involves (nearly) the whole machine quickly — its 90% work
front arrives far earlier than GM's — while GM leaves a band of PEs
idle deep into the run.
"""

from __future__ import annotations

from repro.core import paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.svg import svg_spacetime
from repro.oracle.config import SimConfig
from repro.scenario import Scenario
from repro.topology import paper_grid
from repro.workload import Fibonacci


def test_spacetime_heatmaps(benchmark, save_artifact, artifact_dir):
    fib_n = 15 if full_scale() else 13
    topo = paper_grid(100)

    def run_both():
        out = {}
        for name, build in (("cwn", paper_cwn), ("gm", paper_gm)):
            pilot = Scenario(Fibonacci(fib_n), topo, build("grid"), seed=1).run()
            interval = max(pilot.completion_time / 60, 1.0)
            cfg = SimConfig(seed=1, sample_interval=interval, sample_per_pe=True)
            out[name] = Scenario(Fibonacci(fib_n), topo, build("grid"), config=cfg).run()
        return out

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    lines = []
    for name, res in results.items():
        svg = svg_spacetime(
            [(s.time, s.per_pe) for s in res.samples],
            title=f"{name.upper()} — fib({fib_n}) on {topo.name}",
            completion=res.completion_time,
        )
        path = artifact_dir / f"spacetime_{name}.svg"
        path.write_text(svg)
        lines.append(
            f"{name}: completion={res.completion_time:.0f} "
            f"spread90={res.spread_time(0.9):.0f} "
            f"participating={res.participating_pes}/100 -> {path.name}"
        )
    save_artifact("spacetime", "\n".join(lines))

    cwn, gm = results["cwn"], results["gm"]
    # CWN's work front reaches 90% of the machine much sooner.
    assert cwn.spread_time(0.9) < gm.spread_time(0.9)
    # And involves at least as much of the machine overall.
    assert cwn.participating_pes >= gm.participating_pes
