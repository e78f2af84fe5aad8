"""Gradient Model variants probing the paper's two GM diagnoses.

Section 4 blames GM's losses on two design choices:

1. **Sampling latency** — the gradient process wakes only every
   ``interval`` units, so state changes sit unnoticed for up to one full
   interval.  The paper already stacked the deck for GM here (20-unit
   interval against 1000-23000-unit runs) and notes the co-processor
   assumption hides the cost of running it so often.
   :class:`EventGradient` is the limiting case: the gradient logic runs
   *reactively* — every local load change and every proximity-word
   arrival re-evaluates the node immediately, as if the interval were
   zero and the co-processor free.  If GM still loses to CWN with an
   infinitely fast gradient process, the interval is exonerated and the
   blame shifts to the watermark hoarding itself.

2. **One-goal-per-cycle shipping** — an abundant node relieves at most
   one goal per wakeup, so a deep queue drains toward starving
   neighbors at rate 1/interval.  :class:`BatchGradient` ships up to
   ``batch`` goals per abundant cycle (each toward the then-least
   proximity neighbor, re-reading the local queue each time), testing
   whether GM's problem is *throughput* of redistribution rather than
   *information*.

Both variants keep every other GM rule unchanged (watermarks,
proximity clamped to diameter+1, broadcast-on-change), so zoo
comparisons isolate exactly one design axis each.
"""

from __future__ import annotations

from typing import Any

from .gradient import GradientModel

__all__ = ["BatchGradient", "EventGradient"]


class EventGradient(GradientModel):
    """GM with a zero-latency, event-driven gradient process.

    No periodic process exists; the classify / recompute-proximity /
    broadcast-on-change / ship-if-abundant cycle runs synchronously on

    * every local load change (queue push/pop, task suspend/resume), and
    * every proximity-word arrival from a neighbor.

    A re-entrancy guard makes the cascade terminate: shipping a goal
    changes the local load, which re-fires the hook; the nested call is
    deferred into a zero-delay engine event rather than recursing.
    """

    name = "gm-event"

    def __init__(
        self,
        low_water_mark: float = 1.0,
        high_water_mark: float = 2.0,
        ship: str = "newest",
        tie_break: str = "random",
    ) -> None:
        # interval is irrelevant (no periodic process); pass a dummy.
        super().__init__(
            low_water_mark=low_water_mark,
            high_water_mark=high_water_mark,
            interval=1.0,
            ship=ship,
            stagger=False,
            tie_break=tie_break,
        )

    def describe_params(self) -> dict[str, Any]:
        return {
            "low_water_mark": self.low_water_mark,
            "high_water_mark": self.high_water_mark,
        }

    def setup(self) -> None:
        super().setup()
        self._evaluating = [False] * self.machine.topology.n
        self._pending = [False] * self.machine.topology.n

    def start(self) -> None:
        """No asynchronous process — evaluation is purely reactive.

        One initial sweep seeds the proximity field (the periodic GM
        gets this from every process's first wakeup).
        """
        for pe in range(self.machine.topology.n):
            self._evaluate(pe)

    # -- reactive triggers -------------------------------------------------------

    def on_load_changed(self, pe: int) -> None:
        self._evaluate(pe)

    def on_word(self, dst: int, src: int, kind: str, value: float) -> None:
        if kind == "prox":
            if self.neighbor_proximity[dst][src] == int(value):
                return
            self.neighbor_proximity[dst][src] = int(value)
            self._evaluate(dst)

    # -- one evaluation cycle ------------------------------------------------------

    def _evaluate(self, pe: int) -> None:
        if self._evaluating[pe]:
            # Load changed while we were mid-cycle (we shipped a goal):
            # run one more cycle after this one unwinds instead of
            # recursing unboundedly.
            self._pending[pe] = True
            return
        self._evaluating[pe] = True
        try:
            while True:
                self._pending[pe] = False
                self._cycle(pe)
                if not self._pending[pe]:
                    break
        finally:
            self._evaluating[pe] = False

    def _cycle(self, pe: int) -> None:
        # One reactive evaluation is exactly one periodic-GM wakeup body.
        self._gradient_cycle(pe)


class BatchGradient(GradientModel):
    """GM shipping up to ``batch`` goals per abundant wakeup.

    Each shipment re-reads the proximity table and the local queue, so a
    batch stops early when the queue drops out of abundance or runs out
    of shippable goals — the watermark semantics are preserved mid-batch,
    only the per-cycle relief throughput changes.
    """

    name = "gm-batch"

    def __init__(
        self,
        low_water_mark: float = 1.0,
        high_water_mark: float = 2.0,
        interval: float = 20.0,
        batch: int = 4,
        ship: str = "newest",
        stagger: bool = True,
        tie_break: str = "random",
    ) -> None:
        super().__init__(
            low_water_mark=low_water_mark,
            high_water_mark=high_water_mark,
            interval=interval,
            ship=ship,
            stagger=stagger,
            tie_break=tie_break,
        )
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = batch

    def describe_params(self) -> dict[str, Any]:
        params = super().describe_params()
        params["batch"] = self.batch
        return params

    def _ship_one(self, pe: int) -> bool:
        """The batch relief: GM's one-goal shipment, up to ``batch`` times.

        Runs from GM's own wakeup cycle when the node is abundant.
        Returns whether any goal moved.
        """
        machine = self.machine
        shipped = 0
        while (
            shipped < self.batch
            and self.node_state(machine.load_of(pe)) == self.ABUNDANT
        ):
            if not super()._ship_one(pe):
                break  # queue held only pinned continuations
            shipped += 1
        return shipped > 0
