"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import random

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


def calendared(engine: Engine):
    """What ``engine.noop`` stands for: a calendared event that runs
    ``len`` on an empty payload, a no-op in C."""

    def post(delay: float, priority: int = 10, site: int = 0) -> None:
        engine.after(delay, len, (), priority, site)

    return post


def twin_runs(script, drive=lambda engine, log: engine.run()):
    """Run one event program twice, its no-ops counted and then calendared.

    ``script(engine, post, log)`` sets the program up, posting each no-op
    through ``post(delay, priority, site)``; ``drive(engine, log)`` runs
    it.  Each twin's transcript is its log, its final count and clock,
    and the error it raised, if any.
    """
    transcripts = []
    for make_post in (lambda engine: engine.noop, calendared):
        engine = Engine()
        engine.ensure_sites(8)
        log: list = []
        script(engine, make_post(engine), log)
        try:
            drive(engine, log)
            error = None
        except SimulationError as exc:
            error = str(exc)
        transcripts.append((log, engine.events_executed, engine.now, error))
    return transcripts


class TestCountedNoop:
    """``Engine.noop`` counts an event that does nothing instead of
    calendaring it; every run-control contract sees it as the calendar
    would."""

    def test_a_counted_noop_stays_off_the_calendar(self):
        engine = Engine()
        engine.noop(2.0)
        assert engine.pending == 0  # the calendar size leaves it out
        assert engine.peek() == 2.0  # the next event is still it
        engine.noop(0.0)  # a zero delay could sort before its poster: calendared
        assert engine.pending == 1
        with pytest.raises(SimulationError, match="past"):
            engine.noop(-1.0)
        engine.run()
        assert (engine.events_executed, engine.now) == (2, 2.0)

    @pytest.mark.parametrize("clear", [False, True], ids=["stop", "stop+clear"])
    def test_ties_at_the_stopping_instant(self, clear):
        """The stopping event sits at t=5, priority 10, site 3."""

        def script(engine, post, log):
            def finish(_):
                log.append(engine.now)
                engine.stop()
                if clear:  # as Machine.finished does
                    engine.clear()
                post(1.0, site=1)  # posted by the stopping event: never runs

            post(5.0, site=2)  # lower site: before
            post(5.0, site=4)  # higher site: after
            post(5.0, 5, 4)  # higher site, earlier priority: before
            post(5.0, 20, 2)  # lower site, later priority: after
            post(5.0, site=3)  # its own site, posted before it: before
            engine.after(5.0, finish, site=3)
            post(5.0, site=3)  # its own site, posted after it: after
            post(4.0, site=7)  # earlier: before
            post(6.0, site=0)  # later: after

        counted, reference = twin_runs(script)
        assert counted == reference == ([5.0], 5, 5.0, None)

    def test_ties_with_a_stopping_tick(self):
        """A tick recycles its heap entry: the key it stopped on is the
        one it fired with, not the one it was pushed back with."""

        def script(engine, post, log):
            fired = []

            def body():
                fired.append(engine.now)
                if len(fired) == 3:
                    log.append(engine.now)
                    engine.stop()

            engine.tick(1.0, body, site=2)  # fires at 0, 1, 2
            # At the tick's own site: posted before the firing at 1 drew
            # the key of the firing at 2, so before it ...
            post(2.0, site=2)
            # ... and posted after, so after it.
            engine.after(1.5, lambda _: post(0.5, site=2))
            post(2.0, site=1)  # lower site: before

        counted, reference = twin_runs(script)
        assert counted == reference == ([2.0], 6, 2.0, None)

    def test_clear_inside_a_run_keeps_what_already_ran(self):
        def script(engine, post, log):
            def clearer(_):
                engine.clear()
                post(1.0, site=1)  # posted after the clear: runs
                engine.after(2.0, log.append, "after")

            post(1.0)  # before the clearing event
            post(2.0, site=0)  # same instant, lower site: before it
            post(2.0, site=5)  # same instant, higher site: cleared
            post(3.0)  # cleared
            engine.after(2.0, clearer, site=1)

        counted, reference = twin_runs(script)
        assert counted == reference == (["after"], 5, 4.0, None)

    def test_an_action_that_raises_counts_the_noops_before_it(self):
        def script(engine, post, log):
            def boom(_):
                raise SimulationError("boom")

            post(1.0)
            post(2.0, site=0)  # same instant, lower site: before it
            engine.after(2.0, boom, site=1)
            post(2.0, site=2)  # same instant, higher site: never runs

        counted, reference = twin_runs(script)
        assert counted == reference == ([], 3, 2.0, "boom")

    def test_a_drained_calendar_counts_every_noop(self):
        def script(engine, post, log):
            engine.after(1.0, log.append, "real")
            post(3.0)
            post(7.5, site=1)

        counted, reference = twin_runs(script)
        assert counted == reference == (["real"], 3, 7.5, None)

    def test_run_until_counts_up_to_until(self):
        def script(engine, post, log):
            engine.after(1.0, log.append, "real")
            post(2.0)
            post(3.0)  # exactly at until: runs
            post(3.0, site=1)
            post(4.0)  # after until: waits for the next run

        def drive(engine, log):
            log.append((engine.run(until=3.0), engine.events_executed))
            log.append((engine.run(until=3.5), engine.events_executed))
            log.append((engine.run(), engine.events_executed))

        counted, reference = twin_runs(script, drive)
        assert counted == reference
        assert counted[0] == ["real", (3.0, 4), (3.5, 4), (4.0, 5)]

    def test_step_runs_counted_noops_in_key_order(self):
        def script(engine, post, log):
            engine.after(1.0, log.append, "a", site=2)
            post(1.0, site=1)  # lower site: before "a"
            post(1.0, site=2)  # posted after "a" at its site: after it
            post(0.5, site=3)
            engine.after(1.0, log.append, "b", site=2)

        def drive(engine, log):
            while engine.step():
                log.append((engine.now, engine.events_executed))

        counted, reference = twin_runs(script, drive)
        assert counted == reference
        assert counted[0] == [
            (0.5, 1), (1.0, 2), "a", (1.0, 3), (1.0, 4), "b", (1.0, 5),
        ]

    def test_step_respects_stop_with_noops_pending(self):
        engine = Engine()
        engine.noop(1.0)
        engine.stop()
        assert engine.step() is False
        assert engine.events_executed == 0

    @pytest.mark.parametrize("until", [None, 100.0], ids=["run", "run-until"])
    @pytest.mark.parametrize(
        "limit, stops_at",
        [(10, (6.0, "a real event")), (9, (5.5, "a counted no-op"))],
        ids=["real", "noop"],
    )
    def test_noops_carry_a_run_past_max_events(self, limit, stops_at, until):
        """Six real events, one second apart, each posting a no-op half a
        second on: twelve events, which pass either limit."""

        def script(engine, post, log):
            engine.max_events = limit

            def link(n):
                log.append(engine.now)
                post(0.5, site=1)
                if n < 6:
                    engine.after(1.0, link, n + 1)

            engine.after(1.0, link, 1)

        counted, reference = twin_runs(script, lambda engine, log: engine.run(until))
        assert counted == reference
        log, executed, now, error = counted
        assert "event limit exceeded" in error
        assert (executed, now) == (limit + 1, stops_at[0])
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_a_runaway_counts_its_noops_against_max_events(self):
        def script(engine, post, log):
            engine.max_events = 5_000  # past the ledger size: the guard's slow path

            def rearm(_):
                post(0.25, site=1)
                post(0.25, site=2)
                engine.after(0.5, rearm)

            engine.after(0.5, rearm)

        counted, reference = twin_runs(script)
        assert counted == reference
        assert counted[1] == 5_001 and "event limit exceeded" in counted[3]

    def test_step_counts_noops_against_max_events(self):
        engine = Engine()
        engine.max_events = 1
        engine.noop(1.0)
        engine.noop(2.0)
        assert engine.step() is True
        with pytest.raises(SimulationError, match="event limit"):
            engine.step()
        assert (engine.events_executed, engine.now) == (2, 2.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_count_as_the_calendar_does(self, seed):
        """Tied times, three priorities and six sites, thousands of no-ops
        (past the ledger size), a stop with or without a clear, and a
        limit that may trip first."""

        def script(engine, post, log):
            rng = random.Random(seed)
            engine.max_events = rng.choice([None, rng.randrange(2_000, 9_000)])
            stop_at = rng.randrange(1_000, 3_000)
            clear = rng.random() < 0.5

            def act(n):
                log.append((n, engine.now))
                if n == stop_at:
                    engine.stop()
                    if clear:
                        engine.clear()
                for _ in range(rng.randrange(4)):
                    post(rng.choice((0.5, 1.0, 2.0)), rng.choice((5, 10, 20)), rng.randrange(6))
                engine.after(rng.choice((0.5, 1.0)), act, n + 1, rng.choice((5, 10)), rng.randrange(6))

            for actor in range(5):
                engine.after(actor * 0.5, act, actor * 10_000, 10, actor)

        def drive(engine, log):
            log.append(engine.run(until=40.0))
            log.append(engine.events_executed)
            engine.run()

        counted, reference = twin_runs(script, drive)
        assert counted == reference
