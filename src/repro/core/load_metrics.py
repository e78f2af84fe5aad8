"""Load measures — what a PE advertises to its neighbors.

The paper uses the simple measure throughout: "We simply count all the
messages waiting to be processed as 'load'", and then diagnoses its
weakness in the extended-tail discussion of Plot 11: "This ignores
potential future commitments, indicated by the count of the tasks that
are waiting for messages."  A PE whose queue is momentarily empty but
which hosts many suspended tasks *will* receive their combine
continuations soon; advertising 0 invites goals it cannot serve promptly.

:func:`make_load_metric` builds the callable installed as
``Machine.load_fn``:

* ``"queue"`` — the paper's measure, ``len(queue)`` (the machine's
  own default, :func:`repro.oracle.machine.queue_length`);
* ``"commitments"`` — ``len(queue) + weight * pending_tasks``, the
  conclusion's suggested refinement.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

# The paper's measure is defined once, in the oracle layer: it is the
# machine's default, so installing it keeps the machine's queue fast paths.
from ..oracle.machine import queue_length

if TYPE_CHECKING:  # pragma: no cover
    from ..oracle.pe import PE

__all__ = ["make_load_metric", "queue_length", "with_commitments"]


def with_commitments(weight: float = 0.5) -> Callable[["PE"], float]:
    """Queue length plus ``weight`` per task awaiting responses."""
    if weight < 0:
        raise ValueError("commitment weight must be non-negative")

    def metric(pe: "PE") -> float:
        return float(pe.queue_length) + weight * pe.pending_tasks

    return metric


def make_load_metric(name: str, commitment_weight: float = 0.5) -> Callable[["PE"], float]:
    """Resolve a metric by name (``"queue"`` or ``"commitments"``)."""
    if name == "queue":
        return queue_length
    if name == "commitments":
        return with_commitments(commitment_weight)
    raise ValueError(f"unknown load metric {name!r}")
