"""Large-machine scaling study — the regime the paper argues about.

Section 4's conjecture is about *large* systems: CWN should beat the
Gradient Model "on large systems, which of course tend to have larger
diameters".  The paper stops at 400 PEs; the classic scaling study
(:mod:`repro.experiments.scaling`) sweeps the same sizes.  This study
rides the O(N) machine representation — closed-form routing, sparse
load beliefs — into 1024-4096-PE grids, 3-D tori and hypercubes, where
diameters range from 10 (hypercube) to 64 (the 64x64 torus): an order
of magnitude past the paper's largest machine, with the diameter axis
spread wide at fixed PE count.

:func:`large_machine_plan` builds the sweep as a declarative
:class:`~repro.experiments.plan.ExperimentPlan`; :func:`run_large_machines`
executes it (optionally farmed/cached); ``repro large`` is the CLI face
and ``benchmarks/bench_large_machines.py`` the regression harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology import make as make_topology
from ..workload import Fibonacci, Program
from . import scale
from .plan import ExperimentPlan, execute
from .tables import format_table

__all__ = [
    "LARGE_STRATEGIES",
    "LargeMachinePoint",
    "large_machine_plan",
    "large_topology_spec",
    "render_large_machines",
    "run_large_machines",
]

#: The paper's two competitors plus the conclusion's proposed improvement.
LARGE_STRATEGIES: tuple[str, ...] = ("cwn", "acwn", "gm")

#: Machine shapes per family and PE count.  Grids keep the aspect ratio
#: near square (largest diameter per PE), tori go cubic (same PE counts,
#: ~1/3 the diameter), hypercubes are the log-diameter extreme.
_LARGE_SHAPES: dict[str, dict[int, str]] = {
    "grid": {1024: "grid:32x32", 2048: "grid:32x64", 4096: "grid:64x64"},
    "torus3d": {
        1024: "torus3d:16x16x4",
        2048: "torus3d:16x16x8",
        4096: "torus3d:16x16x16",
    },
    "hypercube": {1024: "hypercube:10", 2048: "hypercube:11", 4096: "hypercube:12"},
}

_REDUCED_SIZES: tuple[int, ...] = (1024,)
_FULL_SIZES: tuple[int, ...] = (1024, 2048, 4096)


def large_topology_spec(family: str, n_pes: int) -> str:
    """The study's canonical shape for ``family`` at ``n_pes`` PEs."""
    try:
        return _LARGE_SHAPES[family][n_pes]
    except KeyError:
        raise ValueError(
            f"no large-machine shape for family {family!r} at {n_pes} PEs "
            f"(families {sorted(_LARGE_SHAPES)}, sizes {_FULL_SIZES})"
        ) from None


@dataclass(frozen=True)
class LargeMachinePoint:
    """One (machine, strategy) measurement of the large-machine sweep."""

    family: str
    n_pes: int
    diameter: int
    strategy: str
    speedup: float
    utilization: float
    completion_time: float


def large_machine_plan(
    program: Program | None = None,
    families: tuple[str, ...] = ("grid", "torus3d", "hypercube"),
    strategies: tuple[str, ...] = LARGE_STRATEGIES,
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
) -> ExperimentPlan:
    """Machine sizes x families x strategies with a fixed workload.

    Reduced scale runs the 1024-PE machines; ``full`` (or
    ``REPRO_FULL=1``) extends to 2048 and 4096 PEs.  The default
    workload follows the classic scaling study: fib(15), or fib(18) at
    full scale, so large-machine points are directly comparable with the
    25-400-PE sweep.
    """
    if full is None:
        full = scale.full_scale()
    if program is None:
        program = Fibonacci(18 if full else 15)
    sizes = _FULL_SIZES if full else _REDUCED_SIZES
    config = config or SimConfig()
    scenarios = []
    meta: list[Any] = []
    for family in families:
        for n_pes in sizes:
            spec = large_topology_spec(family, n_pes)
            diameter = make_topology(spec).diameter
            for strategy in strategies:
                scenarios.append(Scenario(program, spec, strategy, config, seed=seed))
                meta.append((family, n_pes, diameter, strategy))

    def _reduce(
        results: Sequence[SimResult], labels: Sequence[Any]
    ) -> list[LargeMachinePoint]:
        return [
            LargeMachinePoint(
                family,
                n_pes,
                diameter,
                strategy,
                res.speedup,
                res.utilization,
                res.completion_time,
            )
            for res, (family, n_pes, diameter, strategy) in zip(results, labels)
        ]

    return ExperimentPlan.from_scenarios("large-machines", scenarios, _reduce, meta)


def run_large_machines(
    program: Program | None = None,
    families: tuple[str, ...] = ("grid", "torus3d", "hypercube"),
    strategies: tuple[str, ...] = LARGE_STRATEGIES,
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[LargeMachinePoint]:
    """Execute :func:`large_machine_plan` (``jobs``/``cache`` farm it)."""
    return execute(
        large_machine_plan(program, families, strategies, full, config, seed),
        jobs=jobs,
        cache=cache,
    )


def render_large_machines(points: list[LargeMachinePoint]) -> str:
    """Per-machine strategy comparison, with the CWN/GM ratio column the
    diameter conjecture is judged on."""
    ratios: dict[tuple[str, int], float] = {}
    by_machine: dict[tuple[str, int], dict[str, LargeMachinePoint]] = {}
    for p in points:
        by_machine.setdefault((p.family, p.n_pes), {})[p.strategy] = p
    for key, per_strategy in by_machine.items():
        cwn = per_strategy.get("cwn")
        gm = per_strategy.get("gm")
        if cwn is not None and gm is not None and gm.speedup:
            ratios[key] = cwn.speedup / gm.speedup
    rows = [
        (
            f"{p.family}:{p.n_pes}",
            p.diameter,
            p.strategy,
            p.speedup,
            p.utilization,
            f"{ratios[(p.family, p.n_pes)]:.2f}"
            if p.strategy == "cwn" and (p.family, p.n_pes) in ratios
            else "",
        )
        for p in points
    ]
    return format_table(
        ["machine", "diameter", "strategy", "speedup", "utilization", "CWN/GM"],
        rows,
        title="Large-machine study: 1024-4096 PEs (the paper's conjecture, at scale)",
    )
