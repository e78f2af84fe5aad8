"""Grain-size study — the introduction's framing, measured.

The paper's introduction motivates *medium* grain: "A potential
alternative is to divide the computation into a large number of medium
granules.  (Too small a grainsize would lead to undue overhead.)"  This
study makes that trade-off measurable: with communication costs fixed,
sweep the per-goal work (the grain) and record each strategy's speedup.

At tiny grains the fixed per-goal costs (placement messages, responses,
routing decisions) dominate and utilization collapses; at huge grains
everything amortizes but the *number* of goals per PE shrinks toward
the granularity floor where load balancing has nothing left to balance.
The medium-grain sweet spot in between is exactly what the paper
asserts exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from ..core import paper_cwn, paper_gm
from ..oracle.config import CostModel, SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology import Topology, paper_grid
from ..workload import Fibonacci, Program
from .plan import ExperimentPlan, execute, paired
from .tables import format_table

__all__ = ["GrainPoint", "grainsize_plan", "render_grainsize", "run_grainsize"]

#: work multipliers swept: leaf/split/combine costs scale together
DEFAULT_GRAINS: tuple[float, ...] = (0.05, 0.2, 1.0, 5.0, 20.0)


@dataclass(frozen=True)
class GrainPoint:
    """One grain setting's paired measurement."""

    grain: float
    comm_per_goal: float  # fixed message cost relative to one goal's work
    cwn_speedup: float
    gm_speedup: float

    @property
    def ratio(self) -> float:
        return self.cwn_speedup / self.gm_speedup


def scaled_costs(base: CostModel, grain: float) -> CostModel:
    """Scale all *work* costs by ``grain``, leaving message costs fixed."""
    if grain <= 0:
        raise ValueError("grain must be positive")
    return replace(
        base,
        leaf_work=base.leaf_work * grain,
        split_work=base.split_work * grain,
        combine_work=base.combine_work * grain,
    )


def grainsize_plan(
    program: Program | None = None,
    topology: Topology | None = None,
    grains: tuple[float, ...] = DEFAULT_GRAINS,
    seed: int = 1,
) -> ExperimentPlan:
    """The grain sweep as a plan: per grain, a CWN/GM pair at scaled costs."""
    program = program or Fibonacci(13)
    topology = topology or paper_grid(64)
    family = topology.family
    base = CostModel()
    scenarios = []
    meta: list[Any] = []
    for grain in grains:
        costs = scaled_costs(base, grain)
        cfg = SimConfig(costs=costs, seed=seed)
        comm_per_goal = costs.transfer_time(4) / (costs.leaf_work or 1.0)
        for strategy in (paper_cwn(family), paper_gm(family)):
            scenarios.append(Scenario(program, topology, strategy, cfg))
            meta.append((grain, comm_per_goal))

    def _reduce(
        results: Sequence[SimResult], labels: Sequence[Any]
    ) -> list[GrainPoint]:
        return [
            GrainPoint(grain, comm_per_goal, cwn.speedup, gm.speedup)
            for cwn, gm, (grain, comm_per_goal) in paired(results, labels)
        ]

    return ExperimentPlan("grainsize", scenarios, _reduce, meta)


def run_grainsize(
    program: Program | None = None,
    topology: Topology | None = None,
    grains: tuple[float, ...] = DEFAULT_GRAINS,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[GrainPoint]:
    """Sweep the grain with fixed communication costs (farmable)."""
    return execute(
        grainsize_plan(program, topology, grains, seed), jobs=jobs, cache=cache
    )


def render_grainsize(points: list[GrainPoint]) -> str:
    rows = [
        (p.grain, p.comm_per_goal, p.cwn_speedup, p.gm_speedup, p.ratio)
        for p in points
    ]
    return format_table(
        ["grain (x work)", "msg cost / work", "CWN speedup", "GM speedup", "CWN/GM"],
        rows,
        title="Grain-size study: per-goal work vs fixed communication cost",
    )
