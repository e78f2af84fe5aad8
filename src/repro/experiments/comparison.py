"""Table 2 — "Speedup of CWN over GM".

The paper's central result: for every (program, size, topology family,
machine size) cell, the ratio of the speedup achieved by CWN to that
achieved by GM.  120 paired cells at full scale ("In 118 out of 120
cases, the CWN is seen to be better.  In 110 of those cases, the
difference is significant, i.e. more than 10%.  On grids at times the
CWN leads to thrice as much speed as GM.").

:func:`comparison_plan` builds the grid as a declarative
:class:`~repro.experiments.plan.ExperimentPlan`; :func:`run_comparison`
executes it (optionally farmed/cached) and returns structured cells;
:func:`render_table2` prints them in the paper's layout (workload rows,
machine-size columns, grids block then DLM block);
:func:`summarize_claims` reduces a grid to the paper's three headline
counts so benches and tests can assert the qualitative reproduction.
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
from ..workload import DivideConquer, Fibonacci, Program
from . import scale
from .plan import ExperimentPlan, execute, paired
from .tables import format_table

__all__ = [
    "ComparisonCell",
    "comparison_plan",
    "render_table2",
    "run_comparison",
    "summarize_claims",
]


@dataclass(frozen=True)
class ComparisonCell:
    """One paired (CWN, GM) measurement."""

    workload: str
    family: str
    n_pes: int
    cwn: SimResult
    gm: SimResult

    @property
    def ratio(self) -> float:
        """Speedup of CWN over GM (the paper's table entry)."""
        if self.gm.speedup == 0:
            return float("inf")
        return self.cwn.speedup / self.gm.speedup


def _topology(family: str, n_pes: int):
    if family == "grid":
        return paper_grid(n_pes)
    if family == "dlm":
        return paper_dlm(n_pes)
    raise ValueError(f"table 2 families are 'grid' and 'dlm', not {family!r}")


def _workloads(
    kind: str,
    full: bool | None,
    fib_sizes: tuple[int, ...] | None,
    dc_sizes: tuple[int, ...] | None,
) -> list[Program]:
    programs: list[Program] = []
    if kind in ("fib", "both"):
        programs += [Fibonacci(n) for n in (fib_sizes or scale.fib_sizes(full))]
    if kind in ("dc", "both"):
        programs += [DivideConquer(1, x) for x in (dc_sizes or scale.dc_sizes(full))]
    if not programs:
        raise ValueError(f"workload kind must be 'fib', 'dc' or 'both', not {kind!r}")
    return programs


def comparison_plan(
    kind: str = "both",
    families: tuple[str, ...] = ("grid", "dlm"),
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    pe_counts: tuple[int, ...] | None = None,
    fib_sizes: tuple[int, ...] | None = None,
    dc_sizes: tuple[int, ...] | None = None,
) -> ExperimentPlan:
    """The Table 2 grid as a plan: CWN/GM spec pairs plus cell labels.

    Both competitors in a cell see the same workload, topology, cost
    model and seed, so the ratio isolates the strategies.  The explicit
    ``pe_counts`` / ``fib_sizes`` / ``dc_sizes`` overrides exist for
    focused sub-grids (tests, custom studies); they default to the scale
    module's grids.
    """
    config = config or SimConfig()
    grid: list[tuple[str, int, Program]] = [
        (family, n_pes, program)
        for family in families
        for n_pes in pe_counts or scale.pe_counts(full)
        for program in _workloads(kind, full, fib_sizes, dc_sizes)
    ]
    scenarios = []
    meta: list[Any] = []
    for family, n_pes, program in grid:
        topo = _topology(family, n_pes)
        for strategy in (paper_cwn(family), paper_gm(family)):
            scenarios.append(Scenario(program, topo, strategy, config, seed=seed))
            meta.append((family, n_pes))

    def _reduce(
        results: Sequence[SimResult], labels: Sequence[Any]
    ) -> list[ComparisonCell]:
        return [
            ComparisonCell(cwn_res.workload, family, n_pes, cwn_res, gm_res)
            for cwn_res, gm_res, (family, n_pes) in paired(results, labels)
        ]

    return ExperimentPlan.from_scenarios("table2", scenarios, _reduce, meta)


def run_comparison(
    kind: str = "both",
    families: tuple[str, ...] = ("grid", "dlm"),
    full: bool | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
    pe_counts: tuple[int, ...] | None = None,
    fib_sizes: tuple[int, ...] | None = None,
    dc_sizes: tuple[int, ...] | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[ComparisonCell]:
    """Execute :func:`comparison_plan` and return its cells.

    ``jobs`` fans the grid out over worker processes and ``cache`` skips
    previously computed cells; results are identical to serial,
    uncached execution (the farm's determinism guarantee).
    """
    return execute(
        comparison_plan(
            kind=kind,
            families=families,
            full=full,
            config=config,
            seed=seed,
            pe_counts=pe_counts,
            fib_sizes=fib_sizes,
            dc_sizes=dc_sizes,
        ),
        jobs=jobs,
        cache=cache,
    )


def render_table2(cells: list[ComparisonCell]) -> str:
    """The paper's layout: one row per workload, grid block then DLM."""
    families = []
    for c in cells:
        if c.family not in families:
            families.append(c.family)
    sizes = sorted({c.n_pes for c in cells})
    workloads = []
    for c in cells:
        if c.workload not in workloads:
            workloads.append(c.workload)
    lookup = {(c.workload, c.family, c.n_pes): c.ratio for c in cells}
    headers = ["PEs"] + [
        f"{fam}:{n}" for fam in families for n in sizes
    ]
    rows = []
    for wl in workloads:
        row: list[object] = [wl]
        for fam in families:
            for n in sizes:
                ratio = lookup.get((wl, fam, n))
                row.append("-" if ratio is None else ratio)
        rows.append(row)
    return format_table(headers, rows, title="Speedup of CWN over GM (Table 2)")


@dataclass(frozen=True)
class ClaimSummary:
    """The paper's headline counts over a comparison grid."""

    total: int
    cwn_wins: int
    significant: int  # CWN better by more than 10%
    max_ratio: float
    min_ratio: float

    def __str__(self) -> str:
        return (
            f"CWN wins {self.cwn_wins}/{self.total} cells "
            f"({self.significant} by >10%); ratio range "
            f"[{self.min_ratio:.2f}, {self.max_ratio:.2f}]"
        )


def summarize_claims(cells: list[ComparisonCell]) -> ClaimSummary:
    """Reduce a grid to the quantities quoted in the paper's section 4."""
    ratios = [c.ratio for c in cells]
    return ClaimSummary(
        total=len(cells),
        cwn_wins=sum(r > 1.0 for r in ratios),
        significant=sum(r > 1.1 for r in ratios),
        max_ratio=max(ratios),
        min_ratio=min(ratios),
    )
