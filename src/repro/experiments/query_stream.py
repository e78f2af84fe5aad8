"""Query streams — the open-system extension.

The paper's runs are closed: one query, one machine, run to completion.
Its own diagnosis of CWN's weakness, though, is about *sustained*
operation: once every PE has work, CWN's inability to re-shuffle starts
to cost, while GM "manages to maintain 100% when it reaches that level".
A stream of queries arriving at different PEs is the regime where that
difference should matter most — work keeps arriving at arbitrary points
and the machine is (nearly) never empty.

:func:`stream_plan` builds the study as a declarative
:class:`~repro.experiments.plan.ExperimentPlan` (open-system runs are
ordinary specs now that :class:`~repro.parallel.spec.RunSpec` carries
arrival parameters); :func:`run_stream` injects ``queries`` instances
of a program, ``spacing`` apart, round-robin over injection PEs spread
across the machine, and reports makespan, mean/max response time and
utilization for each strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..core import Strategy, paper_cwn, paper_gm
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..parallel import ResultCache
from ..scenario import Arrivals, Scenario
from ..topology import Topology, paper_grid
from ..workload import Fibonacci, Program
from .plan import ExperimentPlan, execute
from .tables import format_table

__all__ = ["StreamResult", "render_stream", "run_stream", "stream_plan"]


@dataclass(frozen=True)
class StreamResult:
    """One strategy's behaviour under a query stream."""

    strategy: str
    makespan: float
    mean_response: float
    max_response: float
    utilization_percent: float
    results_ok: bool


def spread_pes(topology: Topology, count: int) -> list[int]:
    """``count`` injection points spread evenly over the PE index space."""
    n = topology.n
    return [(k * n) // count for k in range(count)]


def stream_plan(
    program: Program | None = None,
    topology: Topology | None = None,
    strategies: dict[str, Strategy] | None = None,
    queries: int = 8,
    spacing: float = 200.0,
    seed: int = 1,
    config: SimConfig | None = None,
) -> ExperimentPlan:
    """The stream study as a plan: one open-system run per strategy."""
    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    program = program or Fibonacci(11)
    topology = topology or paper_grid(64)
    if strategies is None:
        strategies = {
            "cwn": paper_cwn(topology.family),
            "gm": paper_gm(topology.family),
        }
    config = config or SimConfig()
    arrivals = Arrivals(queries, spacing, spread_pes(topology, queries))
    expected = program.expected_result()
    scenarios = [
        Scenario(program, topology, strategy, config, seed=seed, arrivals=arrivals)
        for strategy in strategies.values()
    ]
    meta = tuple(strategies)

    def _reduce(
        results: Sequence[SimResult], labels: Sequence[Any]
    ) -> list[StreamResult]:
        out = []
        for name, res in zip(labels, results):
            responses = res.response_times
            # A single-query machine reports its result unwrapped.
            values = res.result_value if queries > 1 else [res.result_value]
            out.append(
                StreamResult(
                    strategy=name,
                    makespan=res.completion_time,
                    mean_response=sum(responses) / len(responses),
                    max_response=max(responses),
                    utilization_percent=res.utilization_percent,
                    results_ok=all(v == expected for v in values),
                )
            )
        return out

    return ExperimentPlan.from_scenarios("stream", scenarios, _reduce, meta)


def run_stream(
    program: Program | None = None,
    topology: Topology | None = None,
    strategies: dict[str, Strategy] | None = None,
    queries: int = 8,
    spacing: float = 200.0,
    seed: int = 1,
    config: SimConfig | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[StreamResult]:
    """Drive each strategy with the same query stream (farmable)."""
    return execute(
        stream_plan(program, topology, strategies, queries, spacing, seed, config),
        jobs=jobs,
        cache=cache,
    )


def render_stream(results: list[StreamResult], header: str = "") -> str:
    rows = [
        (r.strategy, r.makespan, r.mean_response, r.max_response, r.utilization_percent)
        for r in results
    ]
    return format_table(
        ["strategy", "makespan", "mean response", "max response", "util %"],
        rows,
        title=header or "Query-stream study",
    )
