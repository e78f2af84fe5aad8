"""Table 1 — the parameter-optimization experiments.

Section 3.1: "In the interest of fairness, the parameters must be chosen
in such a way each scheme is working at its best.  We chose a few sample
points in the space of planned experiments, and ran the simulations for
various combination of parameters.  The winning combinations were used
for the comparison experiments."

:func:`parameter_plan` builds one scheme's sweep as a declarative
:class:`~repro.experiments.plan.ExperimentPlan`; :func:`optimize_cwn`
and :func:`optimize_gm` execute it at configurable sample points and
return every combination's score (mean speedup over the sample points)
plus the winner; :func:`run_optimization` does both for a topology
family and renders a Table-1-style parameter listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core import CWN, GradientModel
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology import Topology, paper_dlm, paper_grid
from ..workload import DivideConquer, Fibonacci, Program
from .plan import ExperimentPlan, execute
from .tables import format_table

__all__ = [
    "SweepPoint",
    "default_sample_points",
    "optimize_cwn",
    "optimize_gm",
    "parameter_plan",
    "render_table1",
    "run_optimization",
]


@dataclass(frozen=True)
class SweepPoint:
    """One parameter combination's aggregate score."""

    params: dict[str, Any]
    mean_speedup: float
    speedups: tuple[float, ...]


def default_sample_points(family: str, small: bool = False) -> list[tuple[Program, Topology]]:
    """Sample points mirroring the paper's setup: mid-size problems on a
    mid-size machine of the family under study."""
    make = paper_grid if family == "grid" else paper_dlm
    topo = make(64 if small else 100)
    sizes: Sequence[Program] = (
        [Fibonacci(11), DivideConquer(1, 144)]
        if small
        else [Fibonacci(13), DivideConquer(1, 377)]
    )
    return [(program, topo) for program in sizes]


def parameter_plan(
    build: Callable[..., Any],
    grid: list[dict[str, Any]],
    points: list[tuple[Program, Topology]],
    config: SimConfig | None = None,
    seed: int = 1,
    name: str = "table1",
) -> ExperimentPlan:
    """One scheme's parameter sweep as a plan.

    One run per (parameter combination, sample point); ``build`` is
    called afresh for every run (strategies are single-run objects).
    The reducer scores each combination by mean speedup over the sample
    points and returns the grid best-first.
    """
    config = config or SimConfig()
    scenarios = [
        Scenario(program, topo, build(**params), config, seed=seed)
        for params in grid
        for program, topo in points
    ]
    meta = tuple(params for params in grid for _ in points)

    def _reduce(
        results: Sequence[SimResult], labels: Sequence[Any]
    ) -> list[SweepPoint]:
        per_point = len(points)
        scored = []
        for i, params in enumerate(grid):
            chunk = results[i * per_point : (i + 1) * per_point]
            speedups = tuple(res.speedup for res in chunk)
            scored.append(SweepPoint(params, sum(speedups) / len(speedups), speedups))
        scored.sort(key=lambda sp: -sp.mean_speedup)
        return scored

    return ExperimentPlan(name, scenarios, _reduce, meta)


def _sweep(
    build: Callable[..., Any],
    grid: list[dict[str, Any]],
    points: list[tuple[Program, Topology]],
    config: SimConfig | None,
    seed: int,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    name: str = "table1",
) -> list[SweepPoint]:
    return execute(
        parameter_plan(build, grid, points, config=config, seed=seed, name=name),
        jobs=jobs,
        cache=cache,
    )


def optimize_cwn(
    points: list[tuple[Program, Topology]],
    radii: Sequence[int] = (2, 3, 5, 7, 9),
    horizons: Sequence[int] = (0, 1, 2, 3),
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[SweepPoint]:
    """Sweep CWN's (radius, horizon) space; best first."""
    grid = [
        {"radius": r, "horizon": h}
        for r in radii
        for h in horizons
        if h <= r
    ]
    return _sweep(
        lambda **p: CWN(**p), grid, points, config, seed, jobs, cache, name="table1:cwn"
    )


def optimize_gm(
    points: list[tuple[Program, Topology]],
    high_water_marks: Sequence[float] = (1, 2, 3),
    low_water_marks: Sequence[float] = (1, 2),
    intervals: Sequence[float] = (10.0, 20.0, 40.0),
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[SweepPoint]:
    """Sweep GM's (high, low, interval) space; best first."""
    grid = [
        {"high_water_mark": h, "low_water_mark": l, "interval": i}
        for h in high_water_marks
        for l in low_water_marks
        for i in intervals
        if l <= h
    ]
    return _sweep(
        lambda **p: GradientModel(**p),
        grid,
        points,
        config,
        seed,
        jobs,
        cache,
        name="table1:gm",
    )


def run_optimization(
    families: tuple[str, ...] = ("grid", "dlm"),
    small: bool = False,
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> dict[str, dict[str, list[SweepPoint]]]:
    """Both sweeps for each family: ``{family: {"cwn": [...], "gm": [...]}}``.

    ``jobs``/``cache`` fan the parameter grids out through the
    :mod:`repro.parallel` farm (identical results, see ``run_comparison``).
    """
    out: dict[str, dict[str, list[SweepPoint]]] = {}
    for family in families:
        points = default_sample_points(family, small=small)
        out[family] = {
            "cwn": optimize_cwn(points, config=config, seed=seed, jobs=jobs, cache=cache),
            "gm": optimize_gm(points, config=config, seed=seed, jobs=jobs, cache=cache),
        }
    return out


def render_table1(results: dict[str, dict[str, list[SweepPoint]]]) -> str:
    """A Table-1-style "Selected Parameters" listing (winners per family)."""
    families = list(results)
    rows = []
    param_names = [
        ("cwn", "radius"),
        ("cwn", "horizon"),
        ("gm", "high_water_mark"),
        ("gm", "low_water_mark"),
        ("gm", "interval"),
    ]
    for scheme, pname in param_names:
        row: list[object] = [f"{scheme.upper()}: {pname.replace('_', '-')}"]
        for family in families:
            best = results[family][scheme][0]
            row.append(best.params[pname])
        rows.append(row)
    headers = ["parameter"] + [f"{f} topologies" for f in families]
    return format_table(headers, rows, title="Selected Parameters (Table 1)")
