"""Plots 11-16 — utilization over time within single runs.

"To understand the operation of each method, we plot the utilizations
during short sampling intervals throughout the course of computation."
Plots 11-13: Fibonacci of 18/15/9 on the 100-PE double-lattice-mesh;
Plots 14-16: the same on the 10x10 grid.

These plots carry the paper's key diagnostics:

* CWN's much faster **rise time** — "it spreads work quickly to all the
  PEs at beginning";
* CWN's inability to hold 100% once reached (no redistribution), where
  GM "manages to maintain 100% when it reaches that level";
* CWN's **extended tail** on fib(18) (the load measure ignores future
  commitments);
* GM's slow start and, on the grids, the hoarding "vicious cycle" that
  flattens its curve.

Each study is a two-stage pipeline on the plan spine: a **pilot plan**
(no sampling) sizes each strategy's sampling interval from its
completion time, then a **sampled plan** records the trace — both
stages farm and cache like any other experiment, and
:func:`run_many_timeseries` merges a whole plot family into one batch
per stage.

:func:`rise_time` and :func:`tail_length` quantify the first and third
observations so tests/benches can assert them.
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
from ..workload import Fibonacci
from .plan import ExperimentPlan, execute, merge_plans
from .plots import ascii_plot

__all__ = [
    "TimeSeriesStudy",
    "pilot_plan",
    "render_timeseries",
    "rise_time",
    "run_many_timeseries",
    "run_timeseries",
    "sampled_plan",
    "tail_length",
]

#: the strategies every time-series study traces, in plot order
_STRATEGIES = (("cwn", paper_cwn), ("gm", paper_gm))


@dataclass(frozen=True)
class TimeSeriesStudy:
    """One plot: sampled utilization traces for both strategies."""

    topology: str
    workload: str
    #: per strategy: list of (time, utilization_percent)
    series: dict[str, list[tuple[float, float]]]
    completion: dict[str, float]


def pilot_plan(
    fib_n: int,
    topology: Topology,
    config: SimConfig | None = None,
    seed: int = 1,
) -> ExperimentPlan:
    """Stage 1: unsampled runs whose completion times size the intervals.

    Reduces to ``{strategy: completion_time}``.
    """
    base = config or SimConfig()
    family = topology.family
    scenarios = [
        Scenario(Fibonacci(fib_n), topology, build(family), base, seed=seed)
        for _name, build in _STRATEGIES
    ]
    meta = tuple(name for name, _build in _STRATEGIES)

    def _reduce(results: Sequence[SimResult], labels: Sequence[Any]) -> dict[str, float]:
        return {name: res.completion_time for name, res in zip(labels, results)}

    return ExperimentPlan("timeseries:pilot", scenarios, _reduce, meta)


def sampled_plan(
    fib_n: int,
    topology: Topology,
    intervals: dict[str, float],
    config: SimConfig | None = None,
    seed: int = 1,
) -> ExperimentPlan:
    """Stage 2: the real traces, each strategy at its pilot-sized interval."""
    base = config or SimConfig()
    family = topology.family
    scenarios = [
        Scenario(
            Fibonacci(fib_n),
            topology,
            build(family),
            base.replace(sample_interval=intervals[name]),
            seed=seed,
        )
        for name, build in _STRATEGIES
    ]
    meta = tuple(name for name, _build in _STRATEGIES)

    def _reduce(results: Sequence[SimResult], labels: Sequence[Any]) -> TimeSeriesStudy:
        series: dict[str, list[tuple[float, float]]] = {}
        completion: dict[str, float] = {}
        label = ""
        for name, res in zip(labels, results):
            series[name] = [(s.time, 100.0 * s.utilization) for s in res.samples]
            completion[name] = res.completion_time
            label = res.workload
        return TimeSeriesStudy(topology.name, label, series, completion)

    return ExperimentPlan("timeseries", scenarios, _reduce, meta)


def _intervals(pilot: dict[str, float], samples: int) -> dict[str, float]:
    """Interval per strategy: about ``samples`` points over its run."""
    return {name: max(ct / samples, 1.0) for name, ct in pilot.items()}


def run_timeseries(
    fib_n: int,
    topology: Topology,
    config: SimConfig | None = None,
    seed: int = 1,
    samples: int = 60,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> TimeSeriesStudy:
    """Sample both strategies' utilization through a fib(n) run.

    The sampling interval adapts to each run's length so every trace has
    about ``samples`` points (the paper's "short sampling intervals").
    """
    [study] = run_many_timeseries(
        [(fib_n, topology)], config, seed, samples, jobs=jobs, cache=cache
    )
    return study


def run_many_timeseries(
    combos: Sequence[tuple[int, Topology]],
    config: SimConfig | None = None,
    seed: int = 1,
    samples: int = 60,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[TimeSeriesStudy]:
    """Several studies, each stage merged into one farmed batch.

    ``combos`` is a list of (fib size, topology); the returned studies
    are in the same order.
    """
    combos = list(combos)
    pilots = execute(
        merge_plans(
            "timeseries:pilot",
            [pilot_plan(n, topo, config, seed) for n, topo in combos],
        ),
        jobs=jobs,
        cache=cache,
    )
    return execute(
        merge_plans(
            "timeseries",
            [
                sampled_plan(n, topo, _intervals(pilot, samples), config, seed)
                for (n, topo), pilot in zip(combos, pilots)
            ],
        ),
        jobs=jobs,
        cache=cache,
    )


def run_paper_timeseries(
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    sizes: tuple[int, ...] | None = None,
    topologies: Sequence[Topology] | None = None,
) -> list[tuple[int, TimeSeriesStudy]]:
    """Plots 11-16 (fib 18/15/9 on 100-PE DLM, then 10x10 grid).

    At reduced scale fib(18) is replaced by fib(15)'s cheaper cousin
    fib(13) to keep bench runtimes low; pass ``full=True`` (or set
    REPRO_FULL=1) for the paper's exact sizes.  ``sizes`` / ``topologies``
    override the paper's inventory for focused studies and tests.
    """
    from . import scale

    if full is None:
        full = scale.full_scale()
    if sizes is None:
        sizes = (18, 15, 9) if full else (13, 11, 9)
    if topologies is None:
        topologies = (paper_dlm(100), paper_grid(100))
    combos = [(n, topo) for topo in topologies for n in sizes]
    studies = run_many_timeseries(combos, config, seed, jobs=jobs, cache=cache)
    return [(11 + i, study) for i, study in enumerate(studies)]


def render_timeseries(study: TimeSeriesStudy, plot_no: int | None = None) -> str:
    """ASCII reproduction of one utilization-vs-time plot."""
    tag = f"Plot {plot_no}: " if plot_no is not None else ""
    title = f"{tag}{study.workload} on {study.topology} — % PE utilization vs time"
    return ascii_plot(study.series, title=title, x_label="time", y_max=100.0)


# ---------------------------------------------------------------------------
# Quantitative reductions of the paper's qualitative observations
# ---------------------------------------------------------------------------

def rise_time(trace: list[tuple[float, float]], level: float = 50.0) -> float:
    """First time the trace reaches ``level`` percent utilization.

    The paper: "the CWN has much faster 'rise-time' than GM".  Returns
    ``inf`` when the level is never reached (GM's flattened grid runs).
    """
    for t, u in trace:
        if u >= level:
            return t
    return float("inf")


def tail_length(
    trace: list[tuple[float, float]], completion: float, level: float = 20.0
) -> float:
    """Duration of the final low-utilization phase (< ``level`` percent).

    The paper's "extended tail in plot 11": how long the run lingers
    below ``level`` at the end.
    """
    tail_start = completion
    for t, u in reversed(trace):
        if u >= level:
            break
        tail_start = t
    return completion - tail_start
