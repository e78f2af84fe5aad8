#!/usr/bin/env python
"""Quickstart: run the paper's two competitors head to head.

Simulates the naive-Fibonacci workload on a 10x10 wrap-around grid (one
of the paper's machines) under CWN and under the Gradient Model, then
prints the comparison the whole paper is about.

Run:  python examples/quickstart.py
"""

from repro import Scenario

WORKLOAD = "fib:15"      # 1,973 goals — one of the paper's six sizes
TOPOLOGY = "grid:10x10"  # 100 PEs, wrap-around (a torus)


def main() -> None:
    print(f"Workload {WORKLOAD} on {TOPOLOGY}\n")

    # Bare strategy names pick up the paper's Table 1 parameters for the
    # topology family (radius 9 / horizon 2 on grids, etc.).
    cwn = Scenario(WORKLOAD, TOPOLOGY, "cwn", seed=1).run()
    gm = Scenario(WORKLOAD, TOPOLOGY, "gm", seed=1).run()

    print(cwn.summary())
    print(gm.summary())
    print()
    print(f"speedup of CWN over GM : {cwn.speedup / gm.speedup:.2f}x")
    print(f"communication ratio    : {cwn.mean_goal_distance / gm.mean_goal_distance:.2f}x")
    print()
    print("The paper's conclusion in two lines: CWN distributes work more")
    print("effectively (higher speedup), at ~3x GM's communication volume.")

    # Every SimResult also carries the raw material: per-PE utilizations,
    # channel statistics, the hop histogram of Table 3...
    print()
    print(f"CWN hop histogram: {cwn.hop_histogram}")


if __name__ == "__main__":
    main()
