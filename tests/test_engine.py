"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.oracle.engine import Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(3.0, lambda _: log.append("c"))
        engine.schedule(1.0, lambda _: log.append("a"))
        engine.schedule(2.0, lambda _: log.append("b"))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        engine = Engine()
        times = []
        engine.schedule(1.5, lambda _: times.append(engine.now))
        engine.schedule(4.25, lambda _: times.append(engine.now))
        engine.run()
        assert times == [1.5, 4.25]

    def test_simultaneous_events_fifo(self):
        engine = Engine()
        log = []
        for tag in "abcde":
            engine.schedule(1.0, lambda _, t=tag: log.append(t))
        engine.run()
        assert log == list("abcde")

    def test_priority_orders_simultaneous_events(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda _: log.append("low"), priority=20)
        engine.schedule(1.0, lambda _: log.append("high"), priority=1)
        engine.run()
        assert log == ["high", "low"]

    def test_payload_passed_to_action(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, seen.append, payload={"x": 1})
        engine.run()
        assert seen == [{"x": 1}]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="past"):
            engine.schedule(-0.5, lambda _: None)

    def test_events_scheduled_during_run_fire(self):
        engine = Engine()
        log = []

        def first(_):
            engine.schedule(2.0, lambda _: log.append(("second", engine.now)))

        engine.schedule(1.0, first)
        engine.run()
        assert log == [("second", 3.0)]

    def test_zero_delay_event_fires_at_current_time(self):
        engine = Engine()
        times = []
        engine.schedule(0.0, lambda _: times.append(engine.now))
        engine.run()
        assert times == [0.0]


class TestRunControl:
    def test_run_until_stops_clock(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda _: log.append(1))
        engine.schedule(5.0, lambda _: log.append(5))
        final = engine.run(until=3.0)
        assert final == 3.0
        assert log == [1]
        # The 5.0 event survives for a later run.
        engine.run()
        assert log == [1, 5]

    def test_run_until_includes_boundary_events(self):
        engine = Engine()
        log = []
        engine.schedule(3.0, lambda _: log.append("edge"))
        engine.run(until=3.0)
        assert log == ["edge"]

    def test_run_returns_final_time(self):
        engine = Engine()
        engine.schedule(7.5, lambda _: None)
        assert engine.run() == 7.5

    def test_run_not_reentrant(self):
        engine = Engine()

        def nested(_):
            engine.run()

        engine.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="reentrant"):
            engine.run()

    def test_step_executes_one_event(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda _: log.append("a"))
        engine.schedule(2.0, lambda _: log.append("b"))
        assert engine.step() is True
        assert log == ["a"]
        assert engine.step() is True
        assert engine.step() is False

    def test_peek_and_pending(self):
        engine = Engine()
        assert engine.peek() is None
        assert engine.pending == 0
        engine.schedule(2.0, lambda _: None)
        engine.schedule(1.0, lambda _: None)
        assert engine.peek() == 1.0
        assert engine.pending == 2

    def test_clear_drops_pending_events(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda _: log.append(1))
        engine.clear()
        engine.run()
        assert log == []

    def test_max_events_limit_raises(self):
        engine = Engine()
        engine.max_events = 10

        def rearm(_):
            engine.schedule(1.0, rearm)

        engine.schedule(1.0, rearm)
        with pytest.raises(SimulationError, match="event limit"):
            engine.run()

    def test_events_executed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda _: None)
        engine.run()
        assert engine.events_executed == 5

    def test_step_respects_stop(self):
        """Regression: step() used to bypass the sticky stopped flag and
        silently keep executing a finished simulation."""
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda _: log.append("a"))
        engine.schedule(2.0, lambda _: log.append("b"))
        assert engine.step() is True
        engine.stop()
        assert engine.step() is False
        assert log == ["a"]
        assert engine.pending == 1  # the event survives, it just won't run

    def test_step_respects_max_events(self):
        """Regression: step() used to bypass the runaway-model guard."""
        engine = Engine()
        engine.max_events = 2
        for _ in range(5):
            engine.schedule(1.0, lambda _: None)
        assert engine.step() is True
        assert engine.step() is True
        with pytest.raises(SimulationError, match="event limit"):
            engine.step()

    def test_step_and_run_share_the_limit(self):
        engine = Engine()
        engine.max_events = 3
        for _ in range(5):
            engine.schedule(1.0, lambda _: None)
        assert engine.step() is True
        with pytest.raises(SimulationError, match="event limit"):
            engine.run()
        assert engine.events_executed == 4  # 1 stepped + 2 run + the overrun


class TestAfter:
    def test_after_matches_schedule(self):
        engine = Engine()
        log = []
        engine.after(2.0, lambda _: log.append(("fast", engine.now)))
        engine.schedule(1.0, lambda _: log.append(("checked", engine.now)))
        engine.run()
        assert log == [("checked", 1.0), ("fast", 2.0)]

    def test_after_passes_payload_and_priority(self):
        engine = Engine()
        log = []
        engine.after(1.0, log.append, payload="lo", priority=20)
        engine.after(1.0, log.append, payload="hi", priority=1)
        engine.run()
        assert log == ["hi", "lo"]


class TestTick:
    def test_fires_at_offset_then_every_interval(self):
        engine = Engine()
        times = []
        engine.tick(10.0, lambda: times.append(engine.now), offset=3.0)
        engine.schedule(35.0, lambda _: engine.stop())
        engine.run()
        assert times == [3.0, 13.0, 23.0, 33.0]

    def test_skip_first_emulates_hold_first_processes(self):
        """skip_first=True: a silent event at the offset, the first body
        call one interval later."""
        engine = Engine()
        times = []
        engine.tick(10.0, lambda: times.append(engine.now), skip_first=True)
        engine.schedule(25.0, lambda _: engine.stop())
        engine.run()
        assert times == [10.0, 20.0]

    def test_reuses_one_heap_entry(self):
        engine = Engine()
        tick = engine.tick(5.0, lambda: None)
        entry = tick._entry
        for _ in range(4):
            assert engine.pending == 1
            engine.step()
            assert tick._entry is entry, "the tick must recycle its entry"

    def test_payload_fires_every_period_on_one_entry(self):
        """``payload=`` calls ``fn(payload)`` each period on the tick's one
        recycled entry; a payload of 0 (PE 0) is passed, not dropped."""
        engine = Engine()
        calls = []
        tick = engine.tick(
            5.0, lambda pe: calls.append((pe, engine.now)), offset=1.0, payload=0
        )
        entry = tick._entry
        for _ in range(3):
            engine.step()
            assert tick._entry is entry and engine.pending == 1
        assert calls == [(0, 1.0), (0, 6.0), (0, 11.0)]

    def test_payload_ticks_share_one_callback(self):
        engine = Engine()
        engine.ensure_sites(3)
        log = []
        for pe in range(2):
            engine.tick(10.0, log.append, float(pe), site=1 + pe, payload=pe)
        engine.schedule(25.0, lambda _: engine.stop())
        engine.run()
        assert log == [0, 1, 0, 1, 0, 1]

    def test_stop_cancels_future_firings(self):
        engine = Engine()
        times = []
        tick = engine.tick(5.0, lambda: times.append(engine.now))
        engine.schedule(12.0, lambda _: tick.stop())
        engine.run()
        assert times == [0.0, 5.0, 10.0]
        assert engine.pending == 0

    def test_tick_matches_generator_event_sequence(self):
        """Event-sequence witness: the body fires at the offset and every
        interval after, each same-instant event it schedules right behind
        it.  The literal trace is the one the generator-process kernel
        produced for a process looping on the body and a 10-unit hold."""
        engine = Engine()
        log = []

        def body():
            log.append(("body", engine.now))
            engine.schedule(0.0, lambda _: log.append(("side", engine.now)))

        engine.tick(10.0, body, offset=1.0)
        engine.schedule(22.0, lambda _: engine.stop())
        engine.run()
        assert log == [
            ("body", 1.0), ("side", 1.0),
            ("body", 11.0), ("side", 11.0),
            ("body", 21.0), ("side", 21.0),
        ]

    def test_validation(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="interval"):
            engine.tick(0.0, lambda: None)
        with pytest.raises(SimulationError, match="past"):
            engine.tick(1.0, lambda: None, offset=-1.0)
