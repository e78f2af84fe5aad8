#!/usr/bin/env python
"""Dynamic load distribution on a heterogeneous machine.

The paper argues dynamic strategies are necessary because *computation
structure* is unpredictable.  This example shows the same machinery also
absorbs unpredictable *machines*: half the PEs run at half speed, and
the dynamic schemes route work toward the fast half using nothing but
their ordinary load measures, while a static round-robin deal splits
work evenly and stalls on the slow PEs.

Run:  python examples/heterogeneous_machine.py
"""

from repro import Scenario, SimConfig
from repro.core import RoundRobin, paper_cwn, paper_gm
from repro.topology import Grid
from repro.workload import NQueens

TOPOLOGY = Grid(5, 5)
#: every other PE at half speed: aggregate capacity 19.0 "full" PEs
SPEEDS = tuple(1.0 if pe % 2 == 0 else 0.5 for pe in range(TOPOLOGY.n))


def main() -> None:
    workload = NQueens(8)  # 2057 goals of genuinely irregular sizes
    capacity = sum(SPEEDS)
    print(f"queens(8) on a 5x5 grid; capacity {capacity:.1f} of 25 nominal PEs\n")
    print(f"{'strategy':>12s}  {'speedup':>8s}  {'% of capacity':>13s}  {'goals on fast PEs':>18s}")

    for name, strategy in (
        ("cwn", paper_cwn("grid")),
        ("gm", paper_gm("grid")),
        ("roundrobin", RoundRobin()),
    ):
        cfg = SimConfig(seed=1, pe_speeds=SPEEDS)
        res = Scenario(workload, TOPOLOGY, strategy, config=cfg).run()
        assert res.result_value == 92  # queens(8) has 92 solutions
        fast_share = res.goals_per_pe[::2].sum() / res.total_goals
        print(
            f"{name:>12s}  {res.speedup:8.2f}  {100 * res.speedup / capacity:12.1f}%"
            f"  {100 * fast_share:17.1f}%"
        )

    print()
    print("The dynamic schemes push well over half the goals onto the fast")
    print("PEs without being told which ones are fast; the static deal")
    print("cannot, and pays for it in speedup.")


if __name__ == "__main__":
    main()
