"""determinism-taint — nondeterministic values never reach results.

The repo's reproducibility story rests on three sinks being functions
of the seed alone: :class:`SimResult` fields (golden suites diff them),
cache keys (``content_hash`` / hashlib digests — a nondeterministic key
silently splits the cache), and the ``stats`` counters the PDES shard
boundary protocol undo-logs (a nondeterministic counter breaks shard
equality).  The point rules (``wall-clock-in-kernel``, ``global-rng``,
``unordered-iteration``) flag the *sources* where they appear; this
rule tracks the *values*: wall-clock reads, module-level RNG draws, and
set-iteration loop variables — recognized exactly as the point rules
recognize them (:mod:`repro.lint.sources`) — are taint sources, and the
taint is propagated through local assignments and helper-function
returns (an interprocedural fixpoint over the flow project's call
tables) to any of the three sinks.  The full source→sink chain is
attached to the finding — ``repro lint --explain`` prints it.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from ..sources import KERNEL_SCOPE
from . import RULES, Rule

#: files scanned for sinks: the kernel packages plus the two layers
#: that build cache keys from run artifacts
_SINK_SCOPE = KERNEL_SCOPE + ("repro/scenario/", "repro/parallel/")


class DeterminismTaint(Rule):
    id = "determinism-taint"
    hint = (
        "derive the value from the seed/config (or drop it from the "
        "result); run `repro lint --explain` for the source→sink chain"
    )

    def check_project(self, index) -> Iterable[Finding]:
        from ..flow.project import flow_for
        from ..flow.strategies import logged_counters, render_trace
        from ..flow.taint import TaintAnalysis

        project = flow_for(index)
        analysis = TaintAnalysis(project, _SINK_SCOPE)
        out: list[Finding] = []
        for tf in analysis.findings(logged_counters(index)):
            out.append(
                self.finding(
                    tf.rel,
                    tf.line,
                    tf.col,
                    f"{tf.sink} derives from {tf.source}",
                    explain=render_trace(tf.chain, ""),
                )
            )
        return out


@RULES.register(
    "determinism-taint",
    metadata={
        "summary": "wall-clock, global-RNG, and set-iteration-order values "
        "must not flow into SimResult fields, cache keys, or undo-logged "
        "counters",
    },
)
def _build(rest: str = "") -> DeterminismTaint:
    return DeterminismTaint()
