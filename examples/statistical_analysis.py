#!/usr/bin/env python
"""Statistical analysis: turn a comparison grid into defensible claims.

The paper's evidence is a sentence — "In 118 out of 120 cases, the CWN
is seen to be better".  This example runs a small CWN-vs-GM grid, then
uses ``repro.analysis`` to produce what a modern evaluation would
attach: an exact sign-test p-value, a Wilcoxon signed-rank check on the
magnitudes, a bootstrap confidence interval on the geometric-mean
ratio, and a Markdown report block ready for EXPERIMENTS.md.

Run:  python examples/statistical_analysis.py
"""

from repro import Scenario
from repro.analysis import (
    bootstrap_ci,
    paired_summary,
    render_report,
    wilcoxon_signed_rank,
)

# A reduced Table-2-style grid: 2 workloads x 2 sizes x 2 machines.
WORKLOADS = ["fib:11", "fib:13", "dc:1:144", "dc:1:377"]
TOPOLOGIES = ["grid:5x5", "grid:8x8"]


def main() -> None:
    ratios = []
    print("cell-by-cell speedup ratios (CWN / GM):")
    for workload in WORKLOADS:
        for topology in TOPOLOGIES:
            cwn = Scenario(workload, topology, "cwn", seed=1).run()
            gm = Scenario(workload, topology, "gm", seed=1).run()
            ratio = cwn.speedup / gm.speedup
            ratios.append(ratio)
            print(f"  {workload:10s} on {topology:10s}: {ratio:.2f}")

    summary = paired_summary(ratios)
    print(f"\nsummary: {summary}")

    # Magnitude-aware check: are the log-ratios centred above zero?
    import math

    log_ratios = [math.log(r) for r in ratios]
    if len([d for d in log_ratios if d != 0]) >= 10:
        w, p = wilcoxon_signed_rank(log_ratios)
        print(f"Wilcoxon signed-rank on log-ratios: W+ = {w:.0f}, p = {p:.3g}")
    else:
        print("(grid too small for the Wilcoxon normal approximation — "
              "run more cells for that)")

    lo, hi = bootstrap_ci(ratios, seed=0)
    print(f"bootstrap 95% CI of the mean ratio: [{lo:.2f}, {hi:.2f}]")

    print("\n--- Markdown report block ---\n")
    print(
        render_report(
            "Reduced Table 2 grid",
            summary,
            paper_claims={"wins": "118/120", "wins by >10%": "110"},
            notes=[
                f"{len(ratios)} cells (reduced grid; REPRO_FULL bench runs all 120)",
                "single seed per cell, like the paper",
            ],
        )
    )


if __name__ == "__main__":
    main()
