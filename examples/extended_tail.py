#!/usr/bin/env python
"""The extended tail of Plot 11 — the paper's diagnosis, tested.

Section 4, on CWN's weakest case: "Another problem we notice is the
extended tail in plot 11.  This suggests that only a few processors
were involved in the computation in that phase.  We believe the reason
for this to be our current method for computing the load on a PE...
This ignores potential future commitments."

The conclusion proposes counting suspended tasks into the advertised
load — and immediately warns: "Care must be taken not to lose the
agility of CWN while modifying it."

This example reproduces the tail on the paper's own configuration
(Fibonacci on the 100-PE double-lattice-mesh), measures it with the
time-series reductions (`rise_time`, `tail_length`), then applies the
suggested fix.  The result, under our cost model, is a **negative
result**: the commitments-aware metric makes every measure slightly
worse.  Inflating busy-looking PEs' loads deters *all* placement near
them, slowing the early spread (the rise time grows) by more than the
tail shrinks — exactly the agility loss the paper warned about.  The
suggestion is a hypothesis, and this is the experiment it called for.

Run:  python examples/extended_tail.py
"""

from repro.core import AdaptiveCWN, paper_cwn
from repro.experiments.timeseries import rise_time, tail_length
from repro.oracle.config import SimConfig
from repro.scenario import Scenario
from repro.topology import paper_dlm

FIB_N = 13  # the paper used fib(18); 13 keeps this example snappy
TOPO = paper_dlm(100)


def measure(strategy, label):
    pilot = Scenario(f"fib:{FIB_N}", TOPO, strategy, seed=1).run()
    interval = max(pilot.completion_time / 80, 1.0)
    cfg = SimConfig(seed=1, sample_interval=interval)
    res = Scenario(f"fib:{FIB_N}", TOPO, strategy, config=cfg).run()
    trace = [(s.time, 100.0 * s.utilization) for s in res.samples]
    rise = rise_time(trace, level=50.0)
    tail = tail_length(trace, res.completion_time, level=20.0)
    print(
        f"  {label:28s} completion={res.completion_time:7.0f}  "
        f"rise(50%)={rise:6.0f}  tail(<20%)={tail:6.0f}  "
        f"util={res.utilization_percent:5.1f}%"
    )
    return rise, tail


def main() -> None:
    print(f"fib({FIB_N}) on {TOPO.name} — the Plot 11 configuration\n")

    rise_plain, tail_plain = measure(paper_cwn("dlm"), "CWN (queue-length load)")
    rise_fix, tail_fix = measure(
        AdaptiveCWN(
            radius=5, horizon=1, load_metric="commitments", commitment_weight=0.5,
            saturation=None, pull=False,
        ),
        "CWN (commitments-aware load)",
    )
    measure(
        AdaptiveCWN(radius=5, horizon=1, load_metric="commitments"),
        "ACWN (all three fixes)",
    )

    verdict = (
        "confirmed: the fix trades away rise-time agility"
        if rise_fix >= rise_plain
        else "surprising: agility survived here — try more seeds"
    )
    print(f"""
The diagnosis is real — the run ends with a long low-utilization tail
({tail_plain:.0f} time units under the paper's queue-length measure).
The *suggested cure*, under our cost model, does not pay: the
commitments-aware metric makes suspended-task-heavy PEs repel new
goals, which slows the initial spread (rise {rise_plain:.0f} -> {rise_fix:.0f})
without reliably shrinking the tail ({tail_plain:.0f} -> {tail_fix:.0f}).
{verdict} — precisely the "care must be taken not to lose the agility
of CWN" caveat the conclusion attached to its own suggestion.  See
benchmarks/bench_ablation_acwn.py for the full component ablation.""")


if __name__ == "__main__":
    main()
