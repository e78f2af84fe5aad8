"""The experiment spine: declarative plan → farm → reduce.

Every result in this reproduction — Table 1's parameter optimization,
Table 2's speedup matrix, Table 3's hop counts, the utilization curves,
the scaling and grain-size studies — is a *grid of independent runs*
followed by a fold.  This module makes that shape explicit:

* a **plan builder** is a pure function that emits an
  :class:`ExperimentPlan`: an ordered tuple of
  :class:`~repro.scenario.Scenario` runs plus per-run metadata (cell
  labels, axis values);
* a **reducer** is a pure function folding the returned
  :class:`~repro.oracle.stats.SimResult` list (plus the metadata) into
  the experiment's existing result type;
* :func:`execute` is the single engine between them: it is
  :func:`repro.parallel.run_batch` — which does all fan-out
  (``jobs=``), content-addressed caching (``cache=``), retry and
  resumability, and runs the rare unspellable scenario in-process —
  followed by the reducer.

Because the engine is shared, *every* experiment is parallel, cached
and resumable by construction: a new experiment only writes a builder
and a reducer.  Plans compose too — :func:`merge_plans` concatenates
several plans into one batch so a whole plot family fans out together.

The :func:`collect_reports` context manager captures the
:class:`~repro.parallel.BatchReport` of every :func:`execute` call for
callers (the CLI) that want farm telemetry without threading a callback
through every experiment signature.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from ..obs import telemetry as _telemetry
from ..oracle.stats import SimResult
from ..parallel import BatchReport, ResultCache, run_batch
from ..parallel.orchestrator import BatchProgressFn
from ..scenario import Scenario

__all__ = [
    "ExperimentPlan",
    "collect_reports",
    "execute",
    "merge_plans",
    "paired",
]

#: reducer contract: (results, meta) -> experiment result, where
#: ``results[i]`` and ``meta[i]`` describe run ``i`` of the plan.
Reducer = Callable[[Sequence[SimResult], Sequence[Any]], Any]


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment as data: ordered runs, metadata, and a reducer.

    ``runs`` and ``meta`` take any sequences and are kept as tuples.
    ``meta[i]`` labels ``runs[i]`` (cell coordinates, axis values —
    whatever the reducer needs to place result ``i``); an empty ``meta``
    means no labels, and the reducer receives ``None`` per run.
    """

    name: str
    runs: tuple[Scenario, ...]
    reduce: Reducer
    meta: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))
        object.__setattr__(self, "meta", tuple(self.meta))
        if self.meta and len(self.meta) != len(self.runs):
            raise ValueError(
                f"plan {self.name!r}: {len(self.meta)} meta entries for "
                f"{len(self.runs)} runs"
            )

    @property
    def labels(self) -> tuple[Any, ...]:
        """``meta`` padded to one entry per run (``None`` when absent)."""
        return self.meta if self.meta else (None,) * len(self.runs)


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
    runs: list[Scenario] = []
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

    return ExperimentPlan(name, runs, _reduce, meta)


#: active collect_reports() sinks (append-only while a with-block is open)
_collectors: list[list[BatchReport]] = []


@contextmanager
def collect_reports() -> Iterator[list[BatchReport]]:
    """Capture the :class:`~repro.parallel.BatchReport` of each :func:`execute` call.

    Nestable and re-entrant (every active collector sees every report);
    the CLI wraps each experiment command in one of these to print its
    ``[farm]`` summary without the experiment signatures knowing.
    """
    sink: list[BatchReport] = []
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
    progress: BatchProgressFn | None = None,
) -> Any:
    """Run a plan through :func:`repro.parallel.run_batch` and reduce it.

    ``jobs`` worker processes take the cache misses (``None``/1 =
    serial in-process, 0 = all cores), every fresh result is persisted
    to ``cache`` before the batch returns, transient failures are
    retried, and unspellable scenarios run in this process.  Results
    reach the reducer in plan order regardless of completion order, so
    ``execute(plan)`` with no farm arguments is the old serial loop, bit
    for bit, and ``execute(plan, jobs=N, cache=...)`` is the same result
    computed as fast as the hardware allows.
    """
    report = run_batch(
        plan.runs,
        jobs=jobs,
        cache=cache,
        use_cache=use_cache,
        retries=retries,
        progress=progress,
    )
    for sink in _collectors:
        sink.append(report)
    tele = _telemetry.sink()
    if tele is not None:
        tele.emit(
            "plan.report",
            plan=plan.name,
            runs=len(report.results),
            hits=report.hits,
            simulated=report.simulated,
            local=report.local,
            retried=report.retried,
            failures=len(report.failures),
        )
    return plan.reduce(report.results, plan.labels)
