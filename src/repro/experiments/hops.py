"""Table 3 — distribution of goal-message travel distances.

The paper's communication-cost analysis: for Fibonacci of 18 on a 10x10
grid it histograms how far each goal travelled before executing.  CWN's
row (mean 3.15 hops, a mode at 1 and a pile-up at the radius because "a
message that has gone that far must stop at that distance") against GM's
(mean 0.92, almost half the goals never leaving their source), giving
the paper's "typically thrice as much communication" remark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..core import paper_cwn, paper_gm
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology import Topology, paper_grid
from ..workload import Fibonacci, Program
from .plan import ExperimentPlan, execute
from .tables import format_table

__all__ = ["HopStudy", "hop_plan", "render_table3", "run_hop_study"]


@dataclass(frozen=True)
class HopStudy:
    """Paired hop histograms for one workload/topology."""

    workload: str
    topology: str
    cwn: SimResult
    gm: SimResult

    @property
    def communication_ratio(self) -> float:
        """CWN's mean goal distance over GM's (the "thrice" claim)."""
        gm_mean = self.gm.mean_goal_distance
        if gm_mean == 0:
            return float("inf")
        return self.cwn.mean_goal_distance / gm_mean


def hop_plan(
    fib_n: int = 18,
    topology: Topology | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
) -> ExperimentPlan:
    """Table 3 as a plan: one CWN/GM pair with hop tracing on."""
    topology = topology or paper_grid(100)
    config = config or SimConfig()
    program: Program = Fibonacci(fib_n)
    family = topology.family
    scenarios = [
        Scenario(program, topology, strategy, config, seed=seed)
        for strategy in (paper_cwn(family), paper_gm(family))
    ]

    def _reduce(results: Sequence[SimResult], labels: Sequence[Any]) -> HopStudy:
        cwn_res, gm_res = results
        return HopStudy(cwn_res.workload, labels[0], cwn_res, gm_res)

    return ExperimentPlan(
        "table3", scenarios, _reduce, (topology.name, topology.name)
    )


def run_hop_study(
    fib_n: int = 18,
    topology: Topology | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> HopStudy:
    """Reproduce Table 3 (fib(18), 10x10 grid by default; farmable)."""
    return execute(hop_plan(fib_n, topology, config, seed), jobs=jobs, cache=cache)


def render_table3(study: HopStudy) -> str:
    """The paper's layout: one row per strategy, one column per hop count."""
    max_hop = max(
        max(study.cwn.hop_histogram, default=0), max(study.gm.hop_histogram, default=0)
    )
    headers = ["Hops"] + [str(h) for h in range(max_hop + 1)] + ["Average"]
    rows = []
    for label, res in (("CWN", study.cwn), ("GM", study.gm)):
        row: list[object] = [label]
        row += [res.hop_histogram.get(h, 0) for h in range(max_hop + 1)]
        row.append(res.mean_goal_distance)
        rows.append(row)
    title = (
        f"Distribution of message distance (Table 3): {study.workload} on {study.topology}"
    )
    return format_table(headers, rows, title=title)
