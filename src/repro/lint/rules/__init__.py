"""The rule registry and the rule interface.

Rules register through the same string-keyed
:class:`~repro.scenario.registry.Registry` that backs the strategy /
topology / workload vocabularies, so third-party packages can ship
repo-specific rules via the ``repro.lint_rules`` entry-point group
exactly the way they ship strategies — one ``@RULES.register``
decorator::

    from repro.lint.rules import RULES, Rule

    @RULES.register("my-rule", metadata={"summary": "what it guards"})
    def _build(rest: str) -> Rule:
        return MyRule()

A rule sees each parsed file once (:meth:`Rule.check_file`) and the
whole project once (:meth:`Rule.check_project` — for contracts that
span modules, like undo-log coverage).  Both return iterables of
:class:`~repro.lint.findings.Finding`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ...scenario.registry import Registry
from ..findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from ..context import FileContext, ProjectIndex

__all__ = ["RULES", "Rule"]

#: The open rule vocabulary (see the module docstring).
RULES = Registry("lint rule", entry_point_group="repro.lint_rules")


class Rule:
    """Base class; rules override one or both check methods."""

    #: the rule id findings carry (matches the registry name)
    id = "abstract"
    #: one-line fix guidance attached to every finding by default
    hint = ""

    def check_file(
        self, ctx: "FileContext", index: "ProjectIndex"
    ) -> Iterable[Finding]:
        return ()

    def check_project(self, index: "ProjectIndex") -> Iterable[Finding]:
        return ()

    def finding(
        self,
        ctx_or_rel: object,
        line: int,
        col: int,
        message: str,
        hint: str | None = None,
        explain: str = "",
    ) -> Finding:
        """Build a finding for this rule (accepts a context or rel path)."""
        rel = ctx_or_rel if isinstance(ctx_or_rel, str) else ctx_or_rel.rel  # type: ignore[union-attr]
        return Finding(
            path=rel,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            hint=self.hint if hint is None else hint,
            explain=explain,
        )


# Register the built-in rules (import for side effect, like the
# strategy/topology/workload vocabularies do in their __init__).
from . import cache_key  # noqa: E402,F401
from . import determinism_taint  # noqa: E402,F401
from . import fork_state  # noqa: E402,F401
from . import iteration  # noqa: E402,F401
from . import registry_contract  # noqa: E402,F401
from . import rng  # noqa: E402,F401
from . import shardable_contract  # noqa: E402,F401
from . import telemetry_guard  # noqa: E402,F401
from . import undo_coverage  # noqa: E402,F401
from . import wallclock  # noqa: E402,F401
