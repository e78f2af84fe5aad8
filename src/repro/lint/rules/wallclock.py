"""wall-clock-in-kernel — simulated time only in determinism-critical code.

Simulation behavior must be a pure function of the scenario: the event
calendar runs on ``engine.now``, never on the host's clock.  A
``time.time()`` / ``perf_counter()`` that leaks into an event path,
cache key, or iteration bound makes runs irreproducible in the way the
golden suites cannot catch (it still *completes*, just differently).

Every spelling counts: ``from time import perf_counter`` and ``import
time as t`` resolve to the same clock (see :mod:`repro.lint.sources`).
The observability layers (``repro/obs``, ``benchmarks``, the CLI) are
outside this rule's scope — measuring wall time is their job.  Inside
the kernel packages, legitimate wall-clock reads (telemetry throughput
metrics that never feed simulation state) carry an inline waiver::

    wall = time.perf_counter()  # lint: ok[wall-clock-in-kernel] telemetry only
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..sources import KERNEL_SCOPE, Sources
from . import RULES, Rule
from ._ast_util import in_scope

_SCOPE = KERNEL_SCOPE + ("repro/workload/", "repro/scenario/", "repro/parallel/")


class WallClockInKernel(Rule):
    id = "wall-clock-in-kernel"
    hint = (
        "use the simulated clock (engine.now); if this read only feeds "
        "telemetry, waive it inline with `# lint: ok[wall-clock-in-kernel] ...`"
    )

    def check_file(self, ctx, index) -> Iterable[Finding]:
        if not in_scope(ctx.rel, _SCOPE):
            return []
        sources = Sources(ctx.tree)
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = sources.clock(node)
            if name is not None:
                out.append(
                    self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"{name}() reads the host wall clock inside a "
                        f"determinism-critical package",
                    )
                )
        return out


@RULES.register(
    "wall-clock-in-kernel",
    metadata={
        "summary": "no time.time()/perf_counter() in kernel packages — "
        "wall clock is for obs/benchmarks; waive telemetry-only reads inline",
    },
)
def _build(rest: str = "") -> WallClockInKernel:
    return WallClockInKernel()
