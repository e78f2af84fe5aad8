"""The wider strategy space — all eight strategies on one scenario.

The paper's conclusion: "the space of possible strategies is very
large".  This bench lines up everything the library implements — the two
competitors, the conclusion's ACWN, the receiver-initiated and diffusion
families, and the ideal/degenerate baselines — on the same workload and
machine, as a map of that space.  Asserts the orderings that must hold:
every dynamic scheme beats keep-local, and CWN leads the
locally-informed schemes.
"""

from __future__ import annotations

from repro.core import (
    CWN,
    AdaptiveCWN,
    Diffusion,
    GradientModel,
    KeepLocal,
    RandomPlacement,
    RoundRobin,
    ThresholdRandom,
    WorkStealing,
)
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.scenario import Scenario
from repro.topology import Grid
from repro.workload import Fibonacci

ZOO = [
    ("cwn", lambda: CWN(radius=9, horizon=2)),
    ("gm", lambda: GradientModel(low_water_mark=1, high_water_mark=2)),
    ("acwn", lambda: AdaptiveCWN(radius=9, horizon=2, saturation=3.0)),
    ("threshold-random", lambda: ThresholdRandom(threshold=2.0, max_transfers=3)),
    ("stealing", lambda: WorkStealing(threshold=2.0, max_probes=3)),
    ("diffusion", lambda: Diffusion(alpha=0.25, interval=20.0)),
    ("random (global)", lambda: RandomPlacement()),
    ("roundrobin (global)", lambda: RoundRobin()),
    ("keep-local", lambda: KeepLocal()),
]


def test_strategy_zoo(benchmark, save_artifact):
    fib_n = 15 if full_scale() else 13
    topo = Grid(8, 8)

    def run_zoo():
        rows = []
        for name, build in ZOO:
            res = Scenario(Fibonacci(fib_n), topo, build(), seed=1).run()
            rows.append(
                (
                    name,
                    res.speedup,
                    res.utilization_percent,
                    res.mean_goal_distance,
                    res.goal_messages_sent + res.response_messages_sent,
                )
            )
        return rows

    rows = benchmark.pedantic(run_zoo, rounds=1, iterations=1)
    save_artifact(
        "strategy_zoo",
        format_table(
            ["strategy", "speedup", "util %", "hops/goal", "messages"],
            rows,
            title=f"Strategy space: fib({fib_n}) on grid 8x8 (seed 1)",
        ),
    )

    speedups = {name: row[0] for name, *row in rows}
    # Keep-local is the floor.
    assert all(
        speedups[name] > speedups["keep-local"]
        for name in speedups
        if name != "keep-local"
    )
    # CWN leads the locally-informed dynamic schemes — including the
    # threshold policy, which isolates the value of *directed* transfer
    # (same sender-initiated bones, no load table).
    for rival in ("gm", "threshold-random", "stealing", "diffusion"):
        assert speedups["cwn"] > speedups[rival], (rival, speedups)
