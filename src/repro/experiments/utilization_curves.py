"""Plots 1-10 — average PE utilization vs problem size.

Each of the paper's Plots 1-10 fixes one topology instance (five DLMs,
five grids) and the dc program, and shows average PE utilization (Y, in
percent) against the problem size in total goals generated (X), one
curve per strategy.  The fib counterparts were "very similar, so we omit
them from the plots" — we can generate both.

:func:`curve_plan` builds one plot as a declarative
:class:`~repro.experiments.plan.ExperimentPlan`; :func:`run_curve`
produces one plot's data; :func:`run_all_curves` merges the whole
family into one farmed batch; :func:`render_curve` draws the ASCII
figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..core import paper_cwn, paper_gm
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology import Topology, paper_dlm, paper_grid
from ..workload import DivideConquer, Fibonacci, Program
from . import scale
from .plan import ExperimentPlan, execute, merge_plans
from .plots import ascii_plot
from .tables import format_table

__all__ = [
    "UtilizationCurve",
    "curve_plan",
    "render_curve",
    "run_all_curves",
    "run_curve",
]


@dataclass(frozen=True)
class UtilizationCurve:
    """One plot: utilization vs goals for both strategies."""

    topology: str
    workload_kind: str
    #: list of (total_goals, utilization_percent) per strategy
    series: dict[str, list[tuple[int, float]]]


def _programs(kind: str, full: bool | None) -> list[Program]:
    if kind == "dc":
        return [DivideConquer(1, x) for x in scale.dc_sizes(full)]
    if kind == "fib":
        return [Fibonacci(n) for n in scale.fib_sizes(full)]
    raise ValueError(f"workload kind must be 'dc' or 'fib', not {kind!r}")


def curve_plan(
    topology: Topology,
    kind: str = "dc",
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    strategies: tuple[str, ...] = ("cwn", "gm"),
) -> ExperimentPlan:
    """One plot as a plan: problem sizes x strategies on one topology."""
    family = topology.family
    builders = {"cwn": paper_cwn, "gm": paper_gm}
    config = config or SimConfig()
    scenarios = []
    meta: list[Any] = []
    for program in _programs(kind, full):
        for strat in strategies:
            scenarios.append(
                Scenario(program, topology, builders[strat](family), config, seed=seed)
            )
            meta.append(strat)

    def _reduce(
        results: Sequence[SimResult], labels: Sequence[Any]
    ) -> UtilizationCurve:
        series: dict[str, list[tuple[int, float]]] = {s: [] for s in strategies}
        for strat, res in zip(labels, results):
            series[strat].append((res.total_goals, res.utilization_percent))
        return UtilizationCurve(topology.name, kind, series)

    return ExperimentPlan(f"plot:{topology.name}", scenarios, _reduce, meta)


def run_curve(
    topology: Topology,
    kind: str = "dc",
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    strategies: tuple[str, ...] = ("cwn", "gm"),
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> UtilizationCurve:
    """One topology's utilization-vs-goals curve for both strategies."""
    return execute(
        curve_plan(topology, kind, full, config, seed, strategies),
        jobs=jobs,
        cache=cache,
    )


#: The paper's plot inventory: (plot number, family, PE count).
PAPER_PLOTS: tuple[tuple[int, str, int], ...] = (
    (1, "dlm", 400),
    (2, "dlm", 256),
    (3, "dlm", 100),
    (4, "dlm", 64),
    (5, "dlm", 25),
    (6, "grid", 400),
    (7, "grid", 100),
    (8, "grid", 100),  # the paper shows two 10x10 grid plots (8 duplicates 7's setup)
    (9, "grid", 64),
    (10, "grid", 25),
)


def run_all_curves(
    kind: str = "dc",
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[tuple[int, UtilizationCurve]]:
    """Plots 1-10 (deduplicated; plot 8 repeats plot 7's configuration).

    The whole family merges into one plan, so every cell of every plot
    fans out together instead of plot by plot.
    """
    machine_sizes = set(scale.pe_counts(full))
    plot_nos: list[int] = []
    plans: list[ExperimentPlan] = []
    seen: set[tuple[str, int]] = set()
    for plot_no, family, n_pes in PAPER_PLOTS:
        if n_pes not in machine_sizes or (family, n_pes) in seen:
            continue
        seen.add((family, n_pes))
        topo = paper_grid(n_pes) if family == "grid" else paper_dlm(n_pes)
        plot_nos.append(plot_no)
        plans.append(curve_plan(topo, kind, full, config, seed))
    curves = execute(merge_plans("plots", plans), jobs=jobs, cache=cache)
    return list(zip(plot_nos, curves))


def render_curve(curve: UtilizationCurve, plot_no: int | None = None) -> str:
    """ASCII figure plus the exact numbers as a table."""
    tag = f"Plot {plot_no}: " if plot_no is not None else ""
    title = f"{tag}{curve.workload_kind} on {curve.topology} — % PE utilization vs goals"
    fig = ascii_plot(
        {name: pts for name, pts in curve.series.items()},
        title=title,
        x_label="goals",
        y_max=100.0,
    )
    headers = ["goals"] + list(curve.series)
    xs = [x for x, _ in next(iter(curve.series.values()))]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [pts[i][1] for pts in curve.series.values()])
    return fig + "\n" + format_table(headers, rows)
