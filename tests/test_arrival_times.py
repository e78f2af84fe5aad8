"""Tests for explicit (e.g. Poisson) query arrival schedules."""

from __future__ import annotations

import random

import pytest

from repro.core import paper_cwn
from repro.oracle.config import SimConfig
from repro.oracle.machine import Machine
from repro.scenario.arrivals import Arrivals
from repro.topology import Grid
from repro.validation import check_result
from repro.workload import Fibonacci


def machine(arrival_times, queries=3):
    return Machine(
        Grid(5, 5),
        Fibonacci(9),
        paper_cwn("grid"),
        SimConfig(seed=7),
        arrivals=Arrivals(queries=queries, times=arrival_times),
    )


class TestArrivalTimes:
    def test_explicit_times_recorded(self):
        m = machine([0.0, 50.0, 400.0])
        result = m.run()
        assert result.query_arrivals == [0.0, 50.0, 400.0]
        assert all(done > arr for done, arr in zip(result.query_completions, result.query_arrivals))

    def test_unsorted_times_allowed(self):
        """Query k may arrive after query k+1; attribution must still hold."""
        m = machine([300.0, 0.0, 150.0])
        result = m.run()
        assert result.query_arrivals == [300.0, 0.0, 150.0]
        assert len([r for r in result.response_times if r > 0]) == 3

    def test_all_results_correct(self):
        m = machine([0.0, 10.0, 20.0])
        result = m.run()
        assert result.result_value == [Fibonacci(9).expected_result()] * 3

    def test_invariants_hold(self):
        m = machine([0.0, 75.0, 150.0])
        result = m.run()
        assert check_result(result, m) == []

    def test_poisson_process_usage(self):
        """The documented use case: a pre-drawn Poisson arrival stream."""
        rng = random.Random(5)
        times = []
        t = 0.0
        for _ in range(5):
            t += rng.expovariate(1 / 150.0)
            times.append(t)
        m = machine(times, queries=5)
        result = m.run()
        assert result.query_arrivals == pytest.approx(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            machine([0.0, 10.0])  # wrong length for 3 queries
        with pytest.raises(ValueError):
            machine([0.0, -1.0, 5.0])
        with pytest.raises(ValueError):
            Machine(
                Grid(4, 4),
                Fibonacci(7),
                paper_cwn("grid"),
                SimConfig(),
                arrivals=Arrivals(queries=2, spacing=10.0, times=[0.0, 5.0]),
            )

    def test_simultaneous_arrivals(self):
        m = machine([0.0, 0.0, 0.0])
        result = m.run()
        assert result.result_value == [Fibonacci(9).expected_result()] * 3

    def test_bursty_beats_simultaneous_response_time(self):
        """Spacing queries out cannot hurt mean response time."""
        burst = machine([0.0, 0.0, 0.0]).run()
        spaced = machine([0.0, 2000.0, 4000.0]).run()
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(spaced.response_times) <= mean(burst.response_times)
