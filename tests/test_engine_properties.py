"""Property-based tests of the discrete-event kernel.

The engine's contract is small but everything rests on it: time never
runs backwards, equal-time events fire in schedule order, callback
chains interleave deterministically, and `until` semantics are exact.  These
properties are checked over randomized event programs generated by
hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle.engine import Engine, SimulationError

DELAYS = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(DELAYS)
@settings(max_examples=60, deadline=None)
def test_execution_times_are_sorted(delays):
    """Whatever order events are scheduled in, they execute in time order."""
    engine = Engine()
    fired: list[float] = []
    for d in delays:
        engine.schedule(d, lambda _p: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_equal_time_events_fifo(n):
    """Simultaneous events fire in the order they were scheduled."""
    engine = Engine()
    fired: list[int] = []
    for i in range(n):
        engine.schedule(5.0, lambda _p, i=i: fired.append(i))
    engine.run()
    assert fired == list(range(n))


@given(DELAYS)
@settings(max_examples=40, deadline=None)
def test_hold_sequence_advances_clock_exactly(delays):
    """A chain rescheduling itself after each delay ends at their sum."""
    engine = Engine()
    observed: list[float] = []

    def step(k):
        observed.append(engine.now)
        if k < len(delays):
            engine.schedule(delays[k], step, k + 1)

    engine.schedule(delays[0], step, 1)
    engine.run()
    expected = []
    acc = 0.0
    for d in delays:
        acc += d
        expected.append(acc)
    assert observed == pytest.approx(expected)


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=8),
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_two_processes_interleave_deterministically(d1, d2):
    """Two identical runs produce identical interleavings."""

    def trace_run():
        engine = Engine()
        log: list[tuple[str, float]] = []

        def chain(name, delays):
            def step(k):
                log.append((name, engine.now))
                if k < len(delays):
                    engine.schedule(delays[k], step, k + 1)

            engine.schedule(delays[0], step, 1)

        chain("a", d1)
        chain("b", d2)
        engine.run()
        return log

    assert trace_run() == trace_run()


@given(st.floats(min_value=0.5, max_value=50.0), DELAYS)
@settings(max_examples=40, deadline=None)
def test_until_is_exact_boundary(until, delays):
    """run(until=T): events at <= T fire, events at > T stay pending."""
    engine = Engine()
    fired: list[float] = []
    for d in delays:
        engine.schedule(d, lambda _p: fired.append(engine.now))
    engine.run(until=until)
    should_fire = sorted(d for d in delays if d <= until)
    assert fired == pytest.approx(should_fire)
    assert engine.pending == sum(1 for d in delays if d > until)
    # A second run continues where the first stopped.
    engine.run()
    assert len(fired) == len(delays)


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda _p: None)


def test_stop_is_sticky_against_self_rescheduling():
    """An event chain that reschedules itself cannot outlive stop()."""
    engine = Engine()
    count = [0]

    def reschedule(_p):
        count[0] += 1
        engine.schedule(1.0, reschedule)
        if count[0] == 5:
            engine.stop()

    engine.schedule(0.0, reschedule)
    engine.run()
    assert count[0] == 5


def test_max_events_guard_trips():
    engine = Engine()
    engine.max_events = 100

    def forever(_p):
        engine.schedule(1.0, forever)

    engine.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="event limit"):
        engine.run()


@given(st.integers(min_value=0, max_value=30))
@settings(max_examples=20, deadline=None)
def test_events_executed_counter(n):
    engine = Engine()
    for i in range(n):
        engine.schedule(float(i), lambda _p: None)
    engine.run()
    assert engine.events_executed == n
