"""The experiment spine: declarative plan → farm → reduce.

Every result in this reproduction — Table 1's parameter optimization,
Table 2's speedup matrix, Table 3's hop counts, the utilization curves,
the scaling and grain-size studies — is a *grid of independent runs*
followed by a fold.  This module makes that shape explicit:

* a **plan builder** is a pure function that emits an
  :class:`ExperimentPlan`: an ordered list of runs (canonical
  :class:`~repro.parallel.spec.RunSpec` where the spec grammar can
  express the run, :class:`LocalRun` thunks where it cannot) plus
  per-run metadata (cell labels, axis values);
* a **reducer** is a pure function folding the returned
  :class:`~repro.oracle.stats.SimResult` list (plus the metadata) into
  the experiment's existing result type;
* :func:`execute` is the single engine between them: it routes every
  spec-expressible run through :func:`repro.parallel.run_batch` — which
  does all fan-out (``jobs=``), content-addressed caching (``cache=``),
  retry and resumability — and runs the rare unspellable leftovers
  in-process.

Because the engine is shared, *every* experiment is parallel, cached
and resumable by construction: a new experiment only writes a builder
and a reducer.  Plans compose too — :func:`merge_plans` concatenates
several plans into one batch so a whole plot family fans out together.

The :func:`collect_reports` context manager captures one
:class:`ExecutionReport` per :func:`execute` call for callers (the CLI)
that want farm telemetry without threading a callback through every
experiment signature.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from ..obs import telemetry as _telemetry
from ..oracle.stats import SimResult
from ..parallel import ResultCache, RunSpec, run_batch
from ..parallel.pool import RunFailure
from ..scenario import Scenario

__all__ = [
    "ExecutionReport",
    "ExperimentPlan",
    "LocalRun",
    "collect_reports",
    "execute",
    "merge_plans",
    "paired",
    "planned_scenario",
]

#: progress callback: (completed, total, source) with source
#: "cache" | "sim" | "local"
PlanProgressFn = Callable[[int, int, str], None]

#: reducer contract: (results, meta) -> experiment result, where
#: ``results[i]`` and ``meta[i]`` describe run ``i`` of the plan.
Reducer = Callable[[Sequence[SimResult], Sequence[Any]], Any]


@dataclass(frozen=True)
class LocalRun:
    """A run the spec grammar cannot express, as an in-process thunk.

    Custom strategy objects, recorded workloads and other constructs
    without a factory spelling cannot ship to worker processes or be
    content-addressed; they still belong in a plan.  ``thunk`` runs the
    simulation in the calling process; ``label`` names the run for
    progress and error messages.
    """

    thunk: Callable[[], SimResult]
    label: str = ""


#: one plan entry: farmable spec, or in-process fallback
PlanRun = RunSpec | LocalRun


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment as data: ordered runs, metadata, and a reducer.

    ``meta[i]`` labels ``runs[i]`` (cell coordinates, axis values —
    whatever the reducer needs to place result ``i``); an empty ``meta``
    means no labels, and the reducer receives ``None`` per run.
    """

    name: str
    runs: tuple[PlanRun, ...]
    reduce: Reducer
    meta: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.meta and len(self.meta) != len(self.runs):
            raise ValueError(
                f"plan {self.name!r}: {len(self.meta)} meta entries for "
                f"{len(self.runs)} runs"
            )

    @property
    def labels(self) -> tuple[Any, ...]:
        """``meta`` padded to one entry per run (``None`` when absent)."""
        return self.meta if self.meta else (None,) * len(self.runs)

    @classmethod
    def from_scenarios(
        cls,
        name: str,
        scenarios: "Sequence[Scenario]",
        reduce: Reducer,
        meta: Sequence[Any] = (),
    ) -> "ExperimentPlan":
        """Build a plan straight from :class:`~repro.scenario.Scenario` values.

        Each scenario becomes a farmable :class:`~repro.parallel.spec.RunSpec`
        where the spec grammar can express it, and a :class:`LocalRun`
        otherwise (see :func:`planned_scenario`).
        """
        return cls(name, tuple(planned_scenario(sc) for sc in scenarios), reduce, tuple(meta))


def planned_scenario(scenario: "Scenario") -> PlanRun:
    """One plan entry for ``scenario``: a canonical spec, or a fallback.

    Scenarios the spec grammar can express become
    :class:`~repro.parallel.spec.RunSpec` (farmable, cacheable); the
    rest degrade to a :class:`LocalRun` closing over the live objects —
    the plan still executes, serially and uncached, exactly as the old
    hand-rolled loops did.
    """
    try:
        return RunSpec.from_scenario(scenario)
    except ValueError:
        return LocalRun(thunk=scenario.run, label=scenario.label())


def paired(
    results: Sequence[SimResult], labels: Sequence[Any]
) -> Iterator[tuple[SimResult, SimResult, Any]]:
    """Walk stride-2 (A, B) run pairs with each pair's shared label.

    The paper's studies are overwhelmingly *paired*: every cell runs
    strategy A then strategy B under identical conditions, emitted as
    adjacent plan runs.  Reducers iterate this instead of re-deriving
    the interleave — one place owns the pairing convention.
    """
    for i in range(0, len(results), 2):
        yield results[i], results[i + 1], labels[i]


def merge_plans(name: str, plans: Sequence[ExperimentPlan]) -> ExperimentPlan:
    """Concatenate plans into one batch; reduces to a list of sub-results.

    The merged plan's runs are every sub-plan's runs in order, so one
    :func:`execute` call fans a whole experiment family (all ten
    utilization plots, all six time-series pilots) out together instead
    of farming each member separately.
    """
    plans = list(plans)
    runs: list[PlanRun] = []
    meta: list[Any] = []
    for plan in plans:
        runs.extend(plan.runs)
        meta.extend(plan.labels)

    def _reduce(results: Sequence[SimResult], labels: Sequence[Any]) -> list[Any]:
        out = []
        offset = 0
        for plan in plans:
            width = len(plan.runs)
            out.append(
                plan.reduce(
                    list(results[offset : offset + width]),
                    list(labels[offset : offset + width]),
                )
            )
            offset += width
        return out

    return ExperimentPlan(name, tuple(runs), _reduce, tuple(meta))


@dataclass
class ExecutionReport:
    """Telemetry of one :func:`execute` call (see :func:`collect_reports`)."""

    plan: str
    runs: int
    hits: int
    simulated: int
    local: int
    retried: int
    failures: list[RunFailure] = field(default_factory=list)

    @property
    def executed(self) -> int:
        """Runs that actually simulated (farm misses + local thunks)."""
        return self.simulated + self.local

    def __str__(self) -> str:
        return (
            f"{self.plan}: {self.runs} runs, {self.hits} cache hits, "
            f"{self.executed} simulated"
        )


#: active collect_reports() sinks (append-only while a with-block is open)
_collectors: list[list[ExecutionReport]] = []


@contextmanager
def collect_reports() -> Iterator[list[ExecutionReport]]:
    """Capture an :class:`ExecutionReport` per :func:`execute` call.

    Nestable and re-entrant (every active collector sees every report);
    the CLI wraps each experiment command in one of these to print its
    ``[farm]`` summary without the experiment signatures knowing.
    """
    sink: list[ExecutionReport] = []
    _collectors.append(sink)
    try:
        yield sink
    finally:
        _collectors.remove(sink)


def execute(
    plan: ExperimentPlan,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    retries: int = 1,
    progress: PlanProgressFn | None = None,
) -> Any:
    """Run a plan and return its reduced result.

    The spec-expressible runs go through :func:`repro.parallel.run_batch`
    — ``jobs`` worker processes for the cache misses (``None``/1 =
    serial in-process, 0 = all cores), every fresh result persisted to
    ``cache`` before the batch returns, transient failures retried —
    and the :class:`LocalRun` leftovers execute in this process.
    Results reach the reducer in plan order regardless of completion
    order, so ``execute(plan)`` with no farm arguments is the old serial
    loop, bit for bit, and ``execute(plan, jobs=N, cache=...)`` is the
    same result computed as fast as the hardware allows.
    """
    runs = plan.runs
    total = len(runs)
    results: list[SimResult | None] = [None] * total
    done = 0

    def advance(source: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, source)

    spec_indices = [i for i, run in enumerate(runs) if isinstance(run, RunSpec)]
    report = None
    if spec_indices:
        report = run_batch(
            [runs[i] for i in spec_indices],
            jobs=jobs,
            cache=cache,
            use_cache=use_cache,
            retries=retries,
            progress=(lambda _d, _t, source: advance(source)) if progress else None,
        )
        for i, result in zip(spec_indices, report.results):
            results[i] = result
    local = 0
    for i, run in enumerate(runs):
        if isinstance(run, LocalRun):
            results[i] = run.thunk()
            local += 1
            advance("local")

    outcome = ExecutionReport(
        plan=plan.name,
        runs=total,
        hits=report.hits if report else 0,
        simulated=report.simulated if report else 0,
        local=local,
        retried=report.retried if report else 0,
        failures=list(report.failures) if report else [],
    )
    for sink in _collectors:
        sink.append(outcome)
    tele = _telemetry.sink()
    if tele is not None:
        tele.emit(
            "plan.report",
            plan=outcome.plan,
            runs=outcome.runs,
            hits=outcome.hits,
            simulated=outcome.simulated,
            local=outcome.local,
            retried=outcome.retried,
            failures=len(outcome.failures),
        )

    return plan.reduce(results, plan.labels)
