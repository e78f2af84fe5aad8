"""Workloads: tree-structured medium-grain computations.

The paper's two programs (divide-and-conquer and naive Fibonacci) plus
synthetic generators for extension studies.  :func:`paper_workloads`
yields the exact twelve (program, size) points of the evaluation.
"""

from __future__ import annotations

from collections.abc import Iterator

from .._spec_util import fmt_num, parse_kv, require_defaults
from ..scenario.registry import Registry
from .base import Goal, Leaf, Program, Split
from .binomial import BinomialCoefficient
from .composite import ParallelMix
from .divide_conquer import PAPER_DC_SIZES, DivideConquer
from .fibonacci import PAPER_FIB_SIZES, Fibonacci, fib_calls, fib_value
from .nqueens import NQueens
from .quicksort import QuicksortTree
from .recorded import RecordedProgram, record
from .synthetic import CyclicTree, RandomTree, SkewedTree
from .uts import UnbalancedTreeSearch

__all__ = [
    "BinomialCoefficient",
    "CyclicTree",
    "DivideConquer",
    "Fibonacci",
    "Goal",
    "Leaf",
    "NQueens",
    "PAPER_DC_SIZES",
    "PAPER_FIB_SIZES",
    "ParallelMix",
    "Program",
    "QuicksortTree",
    "RecordedProgram",
    "RandomTree",
    "SkewedTree",
    "Split",
    "UnbalancedTreeSearch",
    "WORKLOADS",
    "fib_calls",
    "fib_value",
    "record",
    "canonical_spec",
    "make",
    "paper_workloads",
    "spec_of",
]


def paper_workloads(kind: str = "both") -> Iterator[Program]:
    """The paper's problem instances: 6 dc sizes and/or 6 fib sizes.

    ``kind`` is ``"dc"``, ``"fib"`` or ``"both"``.
    """
    if kind not in ("dc", "fib", "both"):
        raise ValueError(f"kind must be 'dc', 'fib' or 'both', not {kind!r}")
    if kind in ("dc", "both"):
        for x in PAPER_DC_SIZES:
            yield DivideConquer(1, x)
    if kind in ("fib", "both"):
        for n in PAPER_FIB_SIZES:
            yield Fibonacci(n)


#: The open workload vocabulary: :func:`make` / :func:`spec_of` / the
#: Scenario spec grammar / ``repro list workloads`` all read this one
#: table.  Third parties extend it with ``@WORKLOADS.register`` or a
#: ``repro.workloads`` entry point.
WORKLOADS = Registry("workload", entry_point_group="repro.workloads")


@WORKLOADS.register(
    "dc",
    cls=DivideConquer,
    spell=lambda p: f"dc:{p.lo}:{p.hi}",
    metadata={"summary": "the paper's divide-and-conquer program (lo : hi)",
              "example": "dc:1:987"},
)
def _build_dc(rest: str) -> DivideConquer:
    lo, hi = (int(x) for x in rest.split(":"))
    return DivideConquer(lo, hi)


@WORKLOADS.register(
    "fib",
    cls=Fibonacci,
    spell=lambda p: f"fib:{p.n}",
    metadata={"summary": "the paper's naive Fibonacci program", "example": "fib:15"},
)
def _build_fib(rest: str) -> Fibonacci:
    return Fibonacci(int(rest))


@WORKLOADS.register(
    "queens",
    cls=NQueens,
    spell=lambda p: f"queens:{p.n}",
    metadata={"summary": "n-queens backtracking tree", "example": "queens:8"},
)
def _build_queens(rest: str) -> NQueens:
    return NQueens(int(rest))


def _spell_random(program: RandomTree) -> str:
    require_defaults(program, work_spread=4.0, max_depth=24)
    return (
        f"random:seed={program.seed},depth={program.expected_depth},"
        f"children={program.max_children}"
    )


@WORKLOADS.register(
    "random",
    cls=RandomTree,
    spell=_spell_random,
    metadata={"summary": "random tree generator (seed, depth, children)",
              "example": "random:seed=3,depth=8"},
)
def _build_random(rest: str) -> RandomTree:
    kwargs = parse_kv(rest, int)
    mapping = {"seed": "seed", "depth": "expected_depth", "children": "max_children"}
    return RandomTree(**{mapping[k]: v for k, v in kwargs.items()})


def _spell_cyclic(program: CyclicTree) -> str:
    require_defaults(program, expand_depth=4, chain_depth=4)
    return f"cyclic:{program.cycles}"


@WORKLOADS.register(
    "cyclic",
    cls=CyclicTree,
    spell=_spell_cyclic,
    metadata={"summary": "expand/contract phases (load comes in waves)",
              "example": "cyclic:3"},
)
def _build_cyclic(rest: str) -> CyclicTree:
    return CyclicTree(int(rest)) if rest else CyclicTree()


@WORKLOADS.register(
    "skewed",
    cls=SkewedTree,
    spell=lambda p: f"skewed:{p.size}:{fmt_num(p.skew)}",
    metadata={"summary": "deliberately unbalanced tree (size : skew)",
              "example": "skewed:500:0.8"},
)
def _build_skewed(rest: str) -> SkewedTree:
    size_s, _, skew_s = rest.partition(":")
    return SkewedTree(int(size_s), float(skew_s) if skew_s else 0.7)


@WORKLOADS.register(
    "binom",
    cls=BinomialCoefficient,
    spell=lambda p: f"binom:{p.n_param}:{p.k_param}",
    metadata={"summary": "binomial coefficient C(n, k) recursion", "example": "binom:16:8"},
)
def _build_binom(rest: str) -> BinomialCoefficient:
    n_s, _, k_s = rest.partition(":")
    return BinomialCoefficient(int(n_s), int(k_s))


def _spell_uts(program: UnbalancedTreeSearch) -> str:
    require_defaults(program, max_depth=200)
    return (
        f"uts:seed={program.seed},b0={program.root_children},"
        f"q={fmt_num(program.q)},m={program.m}"
    )


@WORKLOADS.register(
    "uts",
    cls=UnbalancedTreeSearch,
    spell=_spell_uts,
    metadata={"summary": "unbalanced tree search (geometric branching)",
              "example": "uts:seed=1,b0=12,q=0.4,m=2"},
)
def _build_uts(rest: str) -> UnbalancedTreeSearch:
    kwargs = parse_kv(rest)
    return UnbalancedTreeSearch(
        seed=int(kwargs.get("seed", 0)),
        root_children=int(kwargs.get("b0", 12)),
        q=kwargs.get("q", 0.45),
        m=int(kwargs.get("m", 2)),
    )


def _spell_qsort(program: QuicksortTree) -> str:
    require_defaults(program, seed=0, cutoff=4)
    return f"qsort:{program.size}:{fmt_num(program.pivot_bias)}"


@WORKLOADS.register(
    "qsort",
    cls=QuicksortTree,
    spell=_spell_qsort,
    metadata={"summary": "quicksort recursion tree (size : pivot_bias)",
              "example": "qsort:2000:0.5"},
)
def _build_qsort(rest: str) -> QuicksortTree:
    size_s, _, bias_s = rest.partition(":")
    return QuicksortTree(int(size_s), pivot_bias=float(bias_s) if bias_s else 0.0)


def make(spec: str) -> Program:
    """Build a workload from a compact spec string (via :data:`WORKLOADS`).

    Examples: ``dc:1:4181``, ``fib:18``, ``queens:8``,
    ``random:seed=3,depth=8``, ``cyclic:3``, ``skewed:500:0.8``,
    ``binom:16:8``, ``uts:seed=1,b0=12,q=0.4,m=2``, ``qsort:2000`` or
    ``qsort:2000:0.5`` (size : pivot_bias).  Unknown kinds raise
    :class:`ValueError` listing the registered vocabulary and the
    nearest match.
    """
    return WORKLOADS.make(spec)


def spec_of(program: Program) -> str:
    """The canonical :func:`make` spec that rebuilds ``program``.

    The exact inverse of :func:`make` up to spelling: every program
    built by ``make`` satisfies ``make(spec_of(p))`` equivalent to
    ``p``, and aliases (default parameters spelled or omitted) collapse
    to one canonical string.  Programs whose parameters ``make`` cannot
    express — e.g. a :class:`RandomTree` with a non-default
    ``work_spread`` — raise ``ValueError``; the parallel farm falls back
    to in-process execution for those.
    """
    return WORKLOADS.spec_of(program)


def canonical_spec(spec: str | Program) -> str:
    """Normalize a workload spec (or program) to its canonical spelling.

    ``canonical_spec("FIB:9") == canonical_spec("fib:9") == "fib:9"`` —
    the content-addressed result cache keys on this, so spelling
    variants of the same workload share cache entries.  Spec strings go
    through the registry's memo
    (:meth:`~repro.scenario.Registry.canonical`).
    """
    return WORKLOADS.canonical(spec).spec if isinstance(spec, str) else spec_of(spec)
