"""Generic one-factor parameter sweeps with paired-strategy analysis.

The optimization experiments (§3.1), the comm-ratio caveat (§5), and the
diameter conjecture (§4) are all instances of one shape: vary a single
factor, run two strategies at every point, look at how the comparison
moves.  :class:`PairedSweep` is that shape as a reusable object —

* :meth:`PairedSweep.plan` emits the grid as a declarative
  :class:`~repro.experiments.plan.ExperimentPlan`;
* :meth:`PairedSweep.run` executes it (one seed or several);
* :attr:`SweepResult.ratios` gives the A/B metric ratio per point;
* :meth:`SweepResult.crossovers` locates where the winner changes
  (via :mod:`repro.analysis.crossover`);
* :meth:`SweepResult.table` renders the paper-style rows.

The factor is abstract: a callable from the swept value to a
``(strategy_a, strategy_b, config)`` triple, so the same machinery
sweeps strategy parameters (radius, watermarks), cost-model knobs
(comm ratio), or machine properties (size — via the topology factory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..analysis.crossover import Crossover, find_crossovers
from ..core.base import Strategy
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology.base import Topology
from ..workload.base import Program
from .plan import ExperimentPlan, execute
from .tables import format_table

__all__ = ["PairedSweep", "SweepPoint", "SweepResult"]

#: factory signature: swept value -> (strategy A, strategy B, config)
PointFactory = Callable[[float], tuple[Strategy, Strategy, SimConfig]]


@dataclass(frozen=True)
class SweepPoint:
    """Both strategies' results at one swept value (seed-averaged)."""

    x: float
    metric_a: float
    metric_b: float

    @property
    def ratio(self) -> float:
        return self.metric_a / self.metric_b


@dataclass(frozen=True)
class SweepResult:
    """A completed sweep: factor name, points, and analysis helpers."""

    factor: str
    metric: str
    a_name: str
    b_name: str
    points: tuple[SweepPoint, ...]

    @property
    def xs(self) -> list[float]:
        return [p.x for p in self.points]

    @property
    def ratios(self) -> list[float]:
        return [p.ratio for p in self.points]

    def crossovers(self) -> list[Crossover]:
        """Where the better strategy changes along the factor."""
        return find_crossovers(
            self.xs,
            [p.metric_a for p in self.points],
            [p.metric_b for p in self.points],
        )

    def table(self) -> str:
        return format_table(
            [self.factor, self.a_name, self.b_name, f"{self.a_name}/{self.b_name}"],
            [
                [f"{p.x:g}", f"{p.metric_a:.2f}", f"{p.metric_b:.2f}", f"{p.ratio:.2f}"]
                for p in self.points
            ],
            title=f"{self.metric} vs {self.factor}",
        )


class PairedSweep:
    """Run two strategies across a one-dimensional factor grid.

    Parameters
    ----------
    program, topology:
        Fixed for the whole sweep (sweep machine size by constructing
        one ``PairedSweep`` per size instead — sizes change the topology
        object, which is deliberately not a swept value here).
    factory:
        Maps the swept value to ``(strategy_a, strategy_b, config)``.
        A fresh pair must be returned per call (strategies are
        single-run objects).
    metric:
        Attribute of :class:`~repro.oracle.stats.SimResult` to compare
        (default ``"speedup"``).
    """

    def __init__(
        self,
        program: Program,
        topology: Topology,
        factory: PointFactory,
        factor: str,
        metric: str = "speedup",
        a_name: str = "A",
        b_name: str = "B",
    ) -> None:
        if not hasattr(SimResult, metric):
            raise ValueError(f"SimResult has no metric {metric!r}")
        self.program = program
        self.topology = topology
        self.factory = factory
        self.factor = factor
        self.metric = metric
        self.a_name = a_name
        self.b_name = b_name

    def plan(
        self,
        values: Sequence[float],
        seeds: Sequence[int] = (1,),
    ) -> ExperimentPlan:
        """The ``2 x |values| x |seeds|`` grid as a plan.

        One factory call per (value, seed): strategies run exactly once,
        so every simulation needs a fresh pair.  The reducer averages
        the metric over seeds per swept value.
        """
        if not values:
            raise ValueError("sweep needs at least one value")
        if not seeds:
            raise ValueError("sweep needs at least one seed")
        scenarios = []
        meta: list[Any] = []
        for x in values:
            for seed in seeds:
                strat_a, strat_b, config = self.factory(x)
                for strat in (strat_a, strat_b):
                    scenarios.append(
                        Scenario(self.program, self.topology, strat, config, seed=seed)
                    )
                    meta.append((x, seed))

        def _reduce(
            results: Sequence[SimResult], labels: Sequence[Any]
        ) -> SweepResult:
            points = []
            per_value = 2 * len(seeds)
            for i, x in enumerate(values):
                chunk = results[i * per_value : (i + 1) * per_value]
                total_a = sum(float(getattr(res, self.metric)) for res in chunk[0::2])
                total_b = sum(float(getattr(res, self.metric)) for res in chunk[1::2])
                points.append(
                    SweepPoint(float(x), total_a / len(seeds), total_b / len(seeds))
                )
            return SweepResult(
                self.factor, self.metric, self.a_name, self.b_name, tuple(points)
            )

        return ExperimentPlan.from_scenarios(f"sweep:{self.factor}", scenarios, _reduce, meta)

    def run(
        self,
        values: Sequence[float],
        seeds: Sequence[int] = (1,),
        jobs: int | None = None,
        cache: ResultCache | None = None,
    ) -> SweepResult:
        """Execute the sweep; metrics are averaged over ``seeds``.

        ``jobs``/``cache`` route the grid through the
        :mod:`repro.parallel` farm with identical results; sweeps whose
        program/topology/strategies cannot be spelled as factory specs
        run in-process.
        """
        return execute(self.plan(values, seeds), jobs=jobs, cache=cache)
