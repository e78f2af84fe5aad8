"""Microbenchmarks of the simulation substrate itself.

Not a paper figure — these track the event kernel's and the end-to-end
simulator's throughput so performance regressions in the substrate are
caught by the same harness that regenerates the paper.

CI runs this file twice: with ``--benchmark-disable`` as a correctness
smoke (every bench still executes once and asserts its result), and the
floor tests below measure wall-clock events/sec with a 10x safety margin
so a gross slowdown of event dispatch fails the build.
"""

from __future__ import annotations

import time

from repro.core import CWN, GradientModel
from repro.oracle.config import SimConfig
from repro.oracle.engine import Engine
from repro.oracle.machine import Machine
from repro.topology import Grid
from repro.workload import Fibonacci


def test_engine_event_throughput(benchmark):
    """Raw calendar throughput: schedule-and-fire 50k events."""

    def run_events():
        engine = Engine()
        count = 50_000
        for i in range(count):
            engine.schedule(float(i % 97), lambda _: None)
        engine.run()
        return engine.events_executed

    executed = benchmark(run_events)
    assert executed == 50_000


def test_tick_scheduler_throughput(benchmark):
    """Recurring-tick rate: 100 payload ticks x 1k periods on one recycled
    entry each — the pattern of GM wakeups and diffusion cycles, which
    share one bound method and pass each tick its PE."""

    def run_ticks():
        engine = Engine()
        fired = [0] * 100

        def body(pe):
            fired[pe] += 1

        for i in range(100):
            engine.tick(1.0, body, offset=0.001 * i, payload=i)
        engine.schedule(999.9, lambda _: engine.stop())
        engine.run()
        return fired

    fired = benchmark(run_ticks)
    assert fired == [1_000] * 100


def test_end_to_end_simulation_throughput(benchmark):
    """A full mid-size CWN run: fib(13) on a 64-PE torus."""

    def run_sim():
        machine = Machine(
            Grid(8, 8), Fibonacci(13), CWN(radius=5, horizon=1), SimConfig(seed=1)
        )
        return machine.run()

    res = benchmark(run_sim)
    assert res.result_value == 233


def test_end_to_end_gm_throughput(benchmark):
    """The same run under GM: engine ticks and gradient cycles instead of
    CWN's placements and channels."""

    def run_sim():
        return Machine(Grid(8, 8), Fibonacci(13), GradientModel(), SimConfig(seed=1)).run()

    res = benchmark(run_sim)
    assert res.result_value == 233


# -- events/sec floors (plain wall-clock; run even with --benchmark-disable) ----

def _events_per_second(run, events_of, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return events_of(result) / best


def test_raw_calendar_floor():
    """Schedule-and-fire floor: the bare heap loop must stay >200k evt/s
    (measured ~2-4M locally; 10x margin plus CI-machine headroom)."""

    def run():
        engine = Engine()
        for i in range(20_000):
            engine.schedule(float(i % 97), lambda _: None)
        engine.run()
        return engine

    assert _events_per_second(run, lambda e: e.events_executed) > 200_000


def test_end_to_end_floor():
    """fib(13)/Grid(8,8)/CWN must stay >25k events/s end-to-end (measured
    ~300-400k locally after the callback-executor overhaul; the floor
    catches a 10x regression without flaking on slow CI hardware)."""

    def run():
        return Machine(
            Grid(8, 8), Fibonacci(13), CWN(radius=5, horizon=1), SimConfig(seed=1)
        ).run()

    assert _events_per_second(run, lambda r: r.events_executed) > 25_000


def test_end_to_end_gm_floor():
    """fib(13)/Grid(8,8)/GM must stay >25k events/s end-to-end: a
    GM-only slowdown (ticks, gradient cycles, load words) fails here
    even when the CWN floor holds."""

    def run():
        return Machine(Grid(8, 8), Fibonacci(13), GradientModel(), SimConfig(seed=1)).run()

    assert _events_per_second(run, lambda r: r.events_executed) > 25_000


def test_disabled_telemetry_floor():
    """The ISSUE-6 observability contract: with no telemetry sink
    configured, a sampled end-to-end run pays only a handful of
    ``sink() is None`` checks and must clear the same 25k evt/s floor —
    the per-event hot path is untouched by instrumentation."""
    from repro.obs import telemetry

    assert telemetry.sink() is None, "floor must measure the disabled path"

    def run():
        return Machine(
            Grid(8, 8),
            Fibonacci(13),
            CWN(radius=5, horizon=1),
            SimConfig(seed=1, sample_interval=50.0, sample_per_pe=True),
        ).run()

    assert _events_per_second(run, lambda r: r.events_executed) > 25_000
