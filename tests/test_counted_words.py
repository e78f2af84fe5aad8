"""Belief-free load words are counted, not calendared: the exactness witness.

A machine whose strategy declares ``reads_beliefs = False`` keeps no load
beliefs, so its load words run nothing; it sends every one through
:meth:`~repro.oracle.engine.Engine.noop`, which counts the word's event
instead of calendaring it.  Every run must stay bit-identical, in every
``SimResult`` field and ``events_executed`` above all, to a machine that
calendars each word as a ``len`` event at the same key.  The strategies
come from the registry, so a new belief-free strategy is covered when it
is registered.
"""

from __future__ import annotations

import pytest
from test_kernel_golden import assert_bit_identical

from repro.core import STRATEGIES, GradientModel, KeepLocal
from repro.oracle.config import SimConfig
from repro.oracle.engine import SimulationError
from repro.oracle.machine import Machine
from repro.scenario import Scenario
from repro.topology import Grid
from repro.workload import Fibonacci

BELIEF_FREE = [name for name in STRATEGIES.names() if not STRATEGIES.entry(name).cls.reads_beliefs]
TOPOLOGIES = ("grid:4x4", "dlm:3x3x3", "hypercube:4", "ring:8")


class CalendaredWords(Machine):
    """Calendars every load word as a ``len`` event at its key, as the
    kernel did before belief-free words were counted (``on_change`` and
    ``periodic`` modes)."""

    def load_changed(self, pe: int) -> None:  # an override keeps the bound closure off
        if self._on_load_changed is not None:
            self._on_load_changed(pe)
        if self._post_on_change:
            self._calendar_word(pe)

    def _broadcast_loads(self) -> None:
        for pe in range(self.topology.n):
            self._calendar_word(pe)

    def _calendar_word(self, pe: int) -> None:
        value = self.load_of(pe)
        if value != self._last_posted[pe]:
            self._last_posted[pe] = value
            self.stats.control_words_sent += 1
            self.engine.after(self.config.load_info_delay, len, (pe, value), site=1 + pe)


def build(cls: type[Machine], scenario: Scenario) -> Machine:
    """``scenario.build()``, for any Machine class."""
    topology = scenario.resolve_topology()
    return cls(
        topology,
        scenario.resolve_workload(),
        scenario.resolve_strategy(family=topology.family),
        scenario.effective_config,
        scenario.start_pe,
        arrivals=scenario.arrivals,
    )


def test_every_gradient_variant_is_belief_free():
    assert {"gm", "gm-batch", "gm-event", "threshold"} <= set(BELIEF_FREE)


@pytest.mark.parametrize("mode", ["on_change", "periodic"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("name", BELIEF_FREE)
def test_counted_words_match_calendared_words(name, topology, mode):
    spec = f"fib:9 @ {topology} / {name}?seed=3&cfg.load_info={mode}"
    counted = Scenario.from_spec(spec).build()
    assert counted._count_words
    assert_bit_identical(counted.run(), build(CalendaredWords, Scenario.from_spec(spec)).run())


class Witness(Machine):
    """Records the ledger's no-ops due at the very instant the run stops."""

    def finished(self, value, query: int = 0) -> None:
        now = self.engine.now
        ledger = self.engine._ledger
        self.ties = [ledger[i : i + 4] for i in range(0, len(ledger), 4) if ledger[i] == now]
        super().finished(value, query)


def test_unstaggered_gm_ties_words_with_the_stopping_event():
    """Unstaggered GM ticks land on whole numbers, and a word delay equal
    to the combine time makes the words posted when the root's last
    combine starts fall due at the very instant it stops the run, at its
    own site: the tie is decided by the site's push counter."""

    def scenario() -> Scenario:
        config = SimConfig(seed=1, load_info_delay=SimConfig().costs.combine_work)
        return Scenario(Fibonacci(13), Grid(8, 8), GradientModel(stagger=False), config)

    counted = build(Witness, scenario())
    assert_bit_identical(counted.run(), build(CalendaredWords, scenario()).run())
    assert counted.ties


class DropsChildren(KeepLocal):
    """Keeps each root goal and loses every other one."""

    def on_goal_created(self, pe: int, goal) -> None:
        if goal.parent_pe is None:
            self.machine.enqueue(pe, goal)


def test_a_deadlocked_run_counts_every_word():
    """The calendar drains before the root response: the run still raises,
    with every word counted."""
    machines = [
        cls(Grid(2, 2), Fibonacci(5), DropsChildren(), SimConfig(seed=1))
        for cls in (Machine, CalendaredWords)
    ]
    for machine in machines:
        with pytest.raises(SimulationError, match="deadlocked"):
            machine.run()
    counted, reference = (m.engine for m in machines)
    assert (counted.events_executed, counted.now) == (reference.events_executed, reference.now)
    assert machines[0].stats.control_words_sent > 0 and not counted._ledger
