"""Multi-seed replication: confidence intervals for the paper's claims.

The paper reports single runs per cell; our simulations break ties with
a seeded RNG, so any single-seed ratio carries sampling noise.  This
module reruns a comparison across seeds and reports mean, standard
deviation and a t-based confidence interval, so benches can assert the
conclusion is not a tie-breaking artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core import Strategy, paper_cwn, paper_gm
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Scenario
from ..topology import Topology
from ..workload import Program
from .plan import ExperimentPlan, execute, paired

__all__ = [
    "Replication",
    "metric_plan",
    "pair_plan",
    "replicate_metric",
    "replicate_pair",
]

# Two-sided 95% Student-t critical values for df = 1..30 (no scipy
# dependency at runtime keeps this importable everywhere; scipy users
# can of course compute their own).
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t95(df: int) -> float:
    """Two-sided 95% t critical value (1.96 beyond the tabulated range)."""
    if df < 1:
        raise ValueError("need at least 2 samples for an interval")
    return _T95[df - 1] if df <= len(_T95) else 1.96


@dataclass(frozen=True)
class Replication:
    """Summary of one metric across seeds."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((v - m) ** 2 for v in self.values) / (self.n - 1))

    @property
    def ci95(self) -> tuple[float, float]:
        """95% confidence interval for the mean."""
        if self.n < 2:
            return (self.mean, self.mean)
        half = t95(self.n - 1) * self.std / math.sqrt(self.n)
        return (self.mean - half, self.mean + half)

    def excludes(self, value: float) -> bool:
        """True when ``value`` lies outside the 95% CI."""
        lo, hi = self.ci95
        return value < lo or value > hi

    def __str__(self) -> str:
        lo, hi = self.ci95
        return f"{self.mean:.3f} (95% CI [{lo:.3f}, {hi:.3f}], n={self.n})"


def pair_plan(
    program: Program,
    topology: Topology,
    seeds: Sequence[int] = range(1, 9),
    config: SimConfig | None = None,
) -> ExperimentPlan:
    """CWN/GM pairs across seeds as a plan; reduces to ratio statistics."""
    family = topology.family
    config = config or SimConfig()
    scenarios = [
        Scenario(program, topology, strategy, config, seed=seed)
        for seed in seeds
        for strategy in (paper_cwn(family), paper_gm(family))
    ]
    meta = tuple(seed for seed in seeds for _ in range(2))

    def _reduce(results: Sequence[SimResult], labels: Sequence[Any]) -> Replication:
        return Replication(
            tuple(cwn.speedup / gm.speedup for cwn, gm, _seed in paired(results, labels))
        )

    return ExperimentPlan("replicate:pair", scenarios, _reduce, meta)


def replicate_pair(
    program: Program,
    topology: Topology,
    seeds: Sequence[int] = range(1, 9),
    config: SimConfig | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Replication:
    """CWN/GM speedup ratio across seeds (both sides share each seed).

    ``jobs``/``cache`` route the 2x|seeds| runs through the
    :mod:`repro.parallel` farm — the statistically honest regime (many
    seeds per point) is exactly where fan-out pays.  Results are
    identical to the serial path; programs or topologies the spec
    grammar cannot express run in-process.
    """
    return execute(pair_plan(program, topology, seeds, config), jobs=jobs, cache=cache)


def metric_plan(
    program: Program,
    topology: Topology,
    strategy_factory: Callable[[], Strategy],
    metric: str = "speedup",
    seeds: Sequence[int] = range(1, 9),
    config: SimConfig | None = None,
) -> ExperimentPlan:
    """One strategy across seeds as a plan; reduces to metric statistics.

    ``strategy_factory`` is called once per seed (strategies carry
    per-run state); ``metric`` names a SimResult attribute or property.
    """
    config = config or SimConfig()
    scenarios = [
        Scenario(program, topology, strategy_factory(), config, seed=seed) for seed in seeds
    ]
    meta = tuple(seeds)

    def _reduce(results: Sequence[SimResult], labels: Sequence[Any]) -> Replication:
        return Replication(tuple(float(getattr(res, metric)) for res in results))

    return ExperimentPlan(f"replicate:{metric}", scenarios, _reduce, meta)


def replicate_metric(
    program: Program,
    topology: Topology,
    strategy_factory: Callable[[], Strategy],
    metric: str = "speedup",
    seeds: Sequence[int] = range(1, 9),
    config: SimConfig | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> Replication:
    """Any SimResult attribute across seeds for one strategy (farmable)."""
    return execute(
        metric_plan(program, topology, strategy_factory, metric, seeds, config),
        jobs=jobs,
        cache=cache,
    )
