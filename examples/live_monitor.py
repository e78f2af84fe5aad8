#!/usr/bin/env python
"""Replay a run through ORACLE's load-distribution monitor.

The paper: "This data is displayed on the graphics device with a
continuum of colors representing relative activity on each PE (red:
busy, blue: idle).  We found this facility particularly useful for
debugging the load balancing strategies."

This example runs the same workload under CWN and GM with per-PE
sampling enabled and prints both films side by side conceptually: watch
CWN light the whole grid almost immediately while GM's activity creeps
outward from the injection corner — the rise-time difference of Plots
11-16, visible PE by PE.

Run:  python examples/live_monitor.py           # plain characters
      python examples/live_monitor.py --color   # ANSI 256-color heat map
"""

import sys

from repro import Scenario, SimConfig
from repro.oracle.monitor import render_film

WORKLOAD = "fib:13"
TOPOLOGY = "grid:8x8"
FRAMES = 8


def film(strategy: str, color: bool) -> str:
    pilot = Scenario(WORKLOAD, TOPOLOGY, strategy, seed=1).run()
    interval = max(pilot.completion_time / FRAMES, 1.0)
    cfg = SimConfig(seed=1, sample_interval=interval, sample_per_pe=True)
    result = Scenario(WORKLOAD, TOPOLOGY, strategy, config=cfg).run()
    header = result.summary()
    return header + "\n" + render_film(result, cols=8, color=color)


def main() -> None:
    color = "--color" in sys.argv
    for strategy in ("cwn", "gm"):
        print("=" * 64)
        print(f"strategy: {strategy}")
        print("=" * 64)
        print(film(strategy, color))
        print()


if __name__ == "__main__":
    main()
