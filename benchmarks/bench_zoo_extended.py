"""The full strategy space — every implemented strategy, ranked.

Extends the original zoo bench with the second-wave strategies (bidding,
symmetric, central, random-walk, the GM variants) and ranks everything
by Brent quality: completion time over the greedy-scheduler reference
envelope ``T1/P + T_inf`` (1.0 = as good as any greedy scheduler with
free communication; see ``repro.validation.bounds``).

Assertions pin the structural findings:

* every distributed dynamic scheme beats keep-local;
* CWN leads all *locally informed* schemes (the paper's conclusion);
* the event-driven GM beats the periodic GM (interval latency matters)
  but still trails CWN (hoarding matters more);
* blind random-walk contracting trails CWN (load information is worth
  something);
* the centralized oracle trails CWN at this size (§1's scalability
  argument).
"""

from __future__ import annotations

from repro.core import make_strategy
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.oracle.config import CostModel
from repro.scenario import Scenario
from repro.topology import Grid
from repro.validation import completion_bounds
from repro.workload import Fibonacci

SPECS = [
    "cwn", "acwn", "gm", "gm-event", "gm-batch", "threshold", "stealing",
    "symmetric", "bidding", "diffusion", "randomwalk", "central",
    "random", "roundrobin", "local",
]


def test_zoo_extended(benchmark, save_artifact):
    fib_n = 15 if full_scale() else 13
    topo = Grid(8, 8)
    program = Fibonacci(fib_n)
    bounds = completion_bounds(program, CostModel(), topo.n)

    def run_zoo():
        rows = {}
        for spec in SPECS:
            res = Scenario(program, topo, make_strategy(spec, family="grid"), seed=1).run()
            rows[spec] = (
                res.completion_time,
                bounds.quality(res.completion_time),
                res.speedup,
                res.utilization_percent,
                res.mean_goal_distance,
            )
        return rows

    rows = benchmark.pedantic(run_zoo, rounds=1, iterations=1)

    ranked = sorted(rows.items(), key=lambda kv: kv[1][0])
    table = format_table(
        ["strategy", "completion", "brent quality", "speedup", "util %", "mean hops"],
        [
            [name, f"{t:.0f}", f"{q:.2f}", f"{s:.1f}", f"{u:.1f}", f"{h:.2f}"]
            for name, (t, q, s, u, h) in ranked
        ],
    )
    save_artifact(
        "zoo_extended",
        f"All strategies, fib({fib_n}) on {topo.name} "
        f"(greedy envelope = {bounds.brent_upper:.0f}):\n{table}",
    )

    t = {name: vals[0] for name, vals in rows.items()}
    # Every distributed dynamic scheme beats no distribution at all.
    for spec in ("cwn", "gm", "stealing", "symmetric", "bidding", "randomwalk"):
        assert t[spec] < t["local"], f"{spec} lost to keep-local"
    # CWN leads the locally informed schemes.
    for spec in ("gm", "gm-event", "gm-batch", "threshold", "bidding", "randomwalk"):
        assert t["cwn"] <= t[spec], f"cwn trails {spec}"
    # Interval latency is real but not the whole story.
    assert t["gm-event"] <= t["gm"]
    assert t["cwn"] <= t["gm-event"]
    # Load information beats blind walks; distribution beats centralization.
    assert t["cwn"] < t["randomwalk"]
    assert t["cwn"] < t["central"]
