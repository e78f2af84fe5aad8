"""Ablation — the CWN improvements proposed in the paper's conclusion.

Section 5 proposes saturation control, a bounded redistribution
component and a commitments-aware load measure.  This bench measures
each component separately against plain CWN (DESIGN.md lists this as the
design-choice ablation), on a workload big enough to saturate the
machine — the regime the saturation argument targets.
"""

from __future__ import annotations

from repro.core import CWN, AdaptiveCWN
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.scenario import Scenario
from repro.topology import Grid
from repro.workload import Fibonacci

VARIANTS = [
    ("cwn", lambda: CWN(radius=5, horizon=1)),
    ("cwn strict-keep", lambda: CWN(radius=5, horizon=1, keep_on_tie=False)),
    (
        "acwn saturation",
        lambda: AdaptiveCWN(radius=5, horizon=1, saturation=3.0, pull=False),
    ),
    (
        "acwn pull",
        lambda: AdaptiveCWN(radius=5, horizon=1, saturation=None, pull=True),
    ),
    (
        "acwn commitments",
        lambda: AdaptiveCWN(
            radius=5, horizon=1, saturation=None, pull=False, load_metric="commitments"
        ),
    ),
    (
        "acwn full",
        lambda: AdaptiveCWN(radius=5, horizon=1, saturation=3.0, pull=True),
    ),
]


def test_ablation_acwn_components(benchmark, save_artifact):
    # A saturated regime (goals >> PEs): where saturation control is
    # supposed to matter.
    fib_n = 18 if full_scale() else 15
    topo = Grid(8, 8) if full_scale() else Grid(5, 5)

    def run_all():
        rows = []
        for name, build in VARIANTS:
            res = Scenario(Fibonacci(fib_n), topo, build(), seed=1).run()
            rows.append(
                (
                    name,
                    res.speedup,
                    res.utilization_percent,
                    res.mean_goal_distance,
                    res.goal_messages_sent,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact(
        "ablation_acwn",
        format_table(
            ["variant", "speedup", "util %", "hops/goal", "goal msgs"],
            rows,
            title=f"ACWN component ablation: fib({fib_n}) on grid {topo.rows}x{topo.cols}",
        ),
    )

    by_name = {name: row for name, *row in rows}
    base_speedup, _, base_hops, base_msgs = by_name["cwn"]

    # Saturation control must cut communication deeply while keeping most
    # of the speedup — the trade the paper's conclusion asks for.
    sat_speedup, _, _, sat_msgs = by_name["acwn saturation"]
    assert sat_msgs < 0.7 * base_msgs
    assert sat_speedup > 0.7 * base_speedup

    # The tie-keeping default must communicate less than the strict
    # reading (see the faithfulness note in repro.core.cwn).
    _, _, strict_hops, _ = by_name["cwn strict-keep"]
    assert base_hops < strict_hops
