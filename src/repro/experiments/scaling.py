"""Machine-size scaling study — the paper's diameter conjecture.

Section 4: "The superior performance of CWN on the grids leads us to
conjecture that it performs better than the GM on large systems, which
of course tend to have larger diameters."  This study fixes a workload
and sweeps machine size within each family, recording the CWN/GM ratio
against PE count and network diameter so the conjecture can be checked
directly rather than read off Table 2's corners.

:func:`scaling_plan` builds the sweep as a declarative
:class:`~repro.experiments.plan.ExperimentPlan`; :func:`run_scaling`
executes it (optionally farmed/cached).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..core import paper_cwn, paper_gm
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology import paper_dlm, paper_grid
from ..workload import Fibonacci, Program
from . import scale
from .plan import ExperimentPlan, execute, paired
from .tables import format_table

__all__ = ["ScalingPoint", "render_scaling", "run_scaling", "scaling_plan"]


@dataclass(frozen=True)
class ScalingPoint:
    """One machine size's paired measurement."""

    family: str
    n_pes: int
    diameter: int
    cwn_speedup: float
    gm_speedup: float

    @property
    def ratio(self) -> float:
        return self.cwn_speedup / self.gm_speedup


def scaling_plan(
    program: Program | None = None,
    families: tuple[str, ...] = ("grid", "dlm"),
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
) -> ExperimentPlan:
    """Machine sizes x families with a fixed workload (fib(15) default)."""
    if program is None:
        program = Fibonacci(15 if not scale.full_scale() else 18)
    config = config or SimConfig()
    scenarios = []
    meta: list[Any] = []
    for family in families:
        make = paper_grid if family == "grid" else paper_dlm
        for n_pes in scale.pe_counts(full):
            topo = make(n_pes)
            for strategy in (paper_cwn(family), paper_gm(family)):
                scenarios.append(Scenario(program, topo, strategy, config, seed=seed))
                meta.append((family, n_pes, topo.diameter))

    def _reduce(
        results: Sequence[SimResult], labels: Sequence[Any]
    ) -> list[ScalingPoint]:
        return [
            ScalingPoint(family, n_pes, diameter, cwn.speedup, gm.speedup)
            for cwn, gm, (family, n_pes, diameter) in paired(results, labels)
        ]

    return ExperimentPlan("scaling", scenarios, _reduce, meta)


def run_scaling(
    program: Program | None = None,
    families: tuple[str, ...] = ("grid", "dlm"),
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[ScalingPoint]:
    """Execute :func:`scaling_plan` (``jobs``/``cache`` farm the grid)."""
    return execute(
        scaling_plan(program, families, full, config, seed), jobs=jobs, cache=cache
    )


def render_scaling(points: list[ScalingPoint]) -> str:
    """Ratio against machine size and diameter, per family."""
    rows = [
        (
            f"{p.family}:{p.n_pes}",
            p.diameter,
            p.cwn_speedup,
            p.gm_speedup,
            p.ratio,
        )
        for p in points
    ]
    return format_table(
        ["machine", "diameter", "CWN speedup", "GM speedup", "CWN/GM"],
        rows,
        title="Scaling study: CWN's edge vs machine size (the diameter conjecture)",
    )
