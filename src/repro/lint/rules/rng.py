"""global-rng — only seeded RNG instances, never global RNG state.

Every randomized decision in the simulator must replay bit-for-bit from
a :class:`~repro.scenario.Scenario`'s seed: strategies draw from the
machine's per-PE streams (``machine.rngs[pe]``), analysis code builds
``random.Random(seed)``.  The module-level ``random.*`` functions and
``numpy.random``'s global state are process-wide and invisible to the
content hash — a single ``random.shuffle`` in a kernel path silently
splits the result cache and breaks the sharded-PDES equality.

Allowed: constructing ``random.Random(seed)`` and
``numpy.random.default_rng(seed)`` / ``Generator`` / ``SeedSequence``
with an explicit seed.  Flagged: every other ``random.*`` /
``np.random.*`` reference, unseeded ``default_rng()``, and importing the
module-level helpers (``from random import choice``).  Imports resolve
the way :mod:`repro.lint.sources` resolves them for every rule, so
``import random as rnd`` and ``import numpy.random as npr`` are seen.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..sources import Sources, is_module_rng
from . import RULES, Rule


class GlobalRng(Rule):
    id = "global-rng"
    hint = (
        "draw from the machine's seeded per-PE streams (machine.rngs[pe]) "
        "or a local random.Random(seed)"
    )

    def check_file(self, ctx, index) -> Iterable[Finding]:
        sources = Sources(ctx.tree)
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    imported = f"{node.module}.{alias.name}"
                    if is_module_rng(imported):
                        out.append(
                            self.finding(
                                ctx,
                                node.lineno,
                                node.col_offset,
                                f"importing {imported} binds the process-global "
                                f"RNG stream",
                            )
                        )
            elif isinstance(node, ast.Attribute):
                name = sources.rng_fn(node)
                if name is not None:
                    out.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            f"{name} uses process-global RNG state "
                            f"(unseeded, shared across the run)",
                        )
                    )
            elif isinstance(node, ast.Call) and sources.rng_fn(node.func) is None:
                # a draw that names no module-RNG function: default_rng()
                # without a seed
                name = sources.rng_draw(node)
                if name is not None:
                    out.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            f"{name}() without a seed draws OS entropy — "
                            f"results cannot replay from the scenario seed",
                        )
                    )
        return out


@RULES.register(
    "global-rng",
    metadata={
        "summary": "no random.* / np.random global-state calls anywhere in "
        "repro — every draw must come from a seeded instance",
    },
)
def _build(rest: str = "") -> GlobalRng:
    return GlobalRng()
