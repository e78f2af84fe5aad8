"""Load-distribution strategy interface.

The two competitors of the paper — and every baseline/extension — plug
into the :class:`~repro.oracle.machine.Machine` through this interface.
A strategy owns all its per-PE state (neighbor-load beliefs are provided
by the machine's load-information service; proximity tables etc. live in
the strategy) and reacts to four events:

* :meth:`Strategy.on_goal_created` — a PE just spawned a goal; place it
  (locally or onto the network);
* :meth:`Strategy.on_goal_message` — a goal message arrived at a PE;
  accept it into the queue or forward it;
* :meth:`Strategy.on_word` — a one-word control datum arrived (GM
  proximity updates, ACWN work requests);
* :meth:`Strategy.on_idle` — a PE's executor just ran out of work
  (receiver-initiated extensions hook this; the paper's two schemes
  ignore it);
* :meth:`Strategy.on_load_changed` — a PE's own load measure just
  changed (event-driven extensions such as the reactive Gradient Model
  hook this; everything else ignores it).

Strategies decide *placement*; the machine does all transport, charging
channel occupancy and co-processor routing latency per the cost model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..oracle.message import GoalMessage
from ..workload.base import Goal

if TYPE_CHECKING:  # pragma: no cover
    from ..oracle.machine import Machine

__all__ = ["Strategy", "argmin_load"]


def argmin_load(
    candidates: Sequence[int],
    loads: Sequence[float],
    rng: Any,
    tie_break: str = "random",
) -> int:
    """Index into ``candidates`` of the least-loaded entry.

    ``tie_break`` is ``"random"`` (seeded, avoids the systematic
    lowest-index hotspot) or ``"lowest"`` (fully order-deterministic).
    """
    best = min(loads)
    if loads.count(best) == 1:
        return candidates[loads.index(best)]
    ties = [c for c, ld in zip(candidates, loads) if ld == best]
    if tie_break == "lowest":
        return ties[0]
    return rng.choice(ties)


class Strategy:
    """Base class; subclasses override the event hooks they care about.

    Two declared flags tell the machine what the hooks do; the flow
    engine (:mod:`repro.lint.flow`) infers both from the hook bodies and
    the test suite checks each declaration against the inference:

    * ``shardable`` — hooks touch only the acting PE's state and
      schedule only at its event site, so :mod:`repro.pdes` may shard
      the run;
    * ``reads_beliefs`` — some hook reads neighbor-load beliefs
      (``known_load`` / ``known_loads_of``).  Where it is False the
      machine keeps none: load words still travel, with the same events
      and control-word counts, but update nothing, and a belief read
      raises :class:`~repro.oracle.engine.SimulationError`.
    """

    #: short name used in result tables ("cwn", "gm", ...)
    name = "abstract"

    #: whether hooks only touch the acting PE's state and schedule only
    #: at the acting PE's event site — the contract the conservative
    #: parallel engine (repro.pdes) needs to replicate control words on
    #: remote shards.  Strategies that synchronously mutate *another*
    #: PE's state from a hook must set this False.
    shardable = True

    #: whether any hook reads neighbor-load beliefs; strategies that
    #: never call ``known_load`` / ``known_loads_of`` set this False and
    #: their machines skip belief upkeep
    reads_beliefs = True

    def __init__(self) -> None:
        self.machine: "Machine" | None = None

    # -- lifecycle -------------------------------------------------------------

    def bind(self, machine: "Machine") -> None:
        """Attach to a machine and (re)build all per-PE state."""
        self.machine = machine
        self.setup()

    def setup(self) -> None:
        """Allocate per-PE state; called by :meth:`bind`."""

    def start(self) -> None:
        """Spawn any asynchronous strategy processes (called before run)."""

    # -- event hooks -----------------------------------------------------------

    def on_goal_created(self, pe: int, goal: Goal) -> None:
        """Place a goal that was just spawned on ``pe``."""
        raise NotImplementedError

    def on_goal_message(self, pe: int, msg: GoalMessage) -> None:
        """A goal message arrived at ``pe``; accept or forward."""
        raise NotImplementedError

    def on_word(self, dst: int, src: int, kind: str, value: float) -> None:
        """A control word from neighbor ``src`` arrived at ``dst``."""

    def on_idle(self, pe: int) -> None:
        """``pe``'s executor just went idle."""

    def on_load_changed(self, pe: int) -> None:
        """``pe``'s own load measure just changed (push/pop/suspend).

        Called synchronously from queue operations; implementations that
        move goals from here must guard against re-entrancy (moving a
        goal changes loads, which re-fires this hook).
        """

    # The machine elides calls to hooks a strategy did not override —
    # these two fire on every queue operation / every executor drain, so
    # a no-op virtual call is real money on the kernel hot path.  The
    # tags survive only on the base implementations; any override is
    # called normally.
    on_idle._noop_hook = True  # type: ignore[attr-defined]
    on_load_changed._noop_hook = True  # type: ignore[attr-defined]

    # -- reporting ---------------------------------------------------------------

    def describe_params(self) -> dict[str, Any]:
        """The strategy's tunable parameters, for result records."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v}" for k, v in self.describe_params().items())
        return f"<{type(self).__name__} {params}>"
