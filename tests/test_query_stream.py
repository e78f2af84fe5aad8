"""Tests for multi-query (open-system) machine operation."""

from __future__ import annotations

import pytest

from repro.core import CWN, GradientModel, KeepLocal
from repro.experiments.query_stream import render_stream, run_stream, spread_pes
from repro.oracle.machine import Machine
from repro.scenario.arrivals import Arrivals
from repro.topology import Grid
from repro.workload import DivideConquer, Fibonacci


class TestMachineQueries:
    def test_validation(self, grid4, fast_config):
        with pytest.raises(ValueError):
            Machine(grid4, Fibonacci(5), KeepLocal(), fast_config, arrivals=Arrivals(queries=0))
        with pytest.raises(ValueError):
            Machine(
                grid4, Fibonacci(5), KeepLocal(), fast_config,
                arrivals=Arrivals(queries=2, spacing=-1),
            )
        with pytest.raises(ValueError, match="entries"):
            Machine(
                grid4, Fibonacci(5), KeepLocal(), fast_config,
                arrivals=Arrivals(queries=2, pes=[0]),
            )
        with pytest.raises(ValueError, match="valid PE"):
            Machine(
                grid4, Fibonacci(5), KeepLocal(), fast_config,
                arrivals=Arrivals(queries=2, pes=[0, 99]),
            )

    def test_all_queries_answered_correctly(self, grid4, fast_config):
        m = Machine(
            grid4, Fibonacci(9), CWN(radius=3, horizon=1), fast_config,
            arrivals=Arrivals(queries=3, spacing=100.0),
        )
        res = m.run()
        assert res.result_value == [34, 34, 34]
        assert len(res.query_completions) == 3

    def test_single_query_result_unwrapped(self, grid4, fast_config):
        res = Machine(grid4, Fibonacci(9), CWN(radius=3, horizon=1), fast_config).run()
        assert res.result_value == 34
        assert res.query_completions == [res.completion_time]
        assert res.response_times == [res.completion_time]

    def test_arrival_times_recorded(self, grid4, fast_config):
        m = Machine(
            grid4, Fibonacci(7), CWN(radius=3, horizon=1), fast_config,
            arrivals=Arrivals(queries=3, spacing=50.0),
        )
        res = m.run()
        assert res.query_arrivals == [0.0, 50.0, 100.0]

    def test_response_times_positive_and_consistent(self, grid4, fast_config):
        m = Machine(
            grid4, Fibonacci(9), CWN(radius=3, horizon=1), fast_config,
            arrivals=Arrivals(queries=4, spacing=75.0, pes=[0, 5, 10, 15]),
        )
        res = m.run()
        assert all(rt > 0 for rt in res.response_times)
        assert res.completion_time == max(res.query_completions)

    def test_goal_count_scales_with_queries(self, grid4, fast_config):
        program = Fibonacci(9)
        m = Machine(
            grid4, program, CWN(radius=3, horizon=1), fast_config,
            arrivals=Arrivals(queries=3, spacing=10.0),
        )
        res = m.run()
        assert res.total_goals == 3 * program.total_goals()
        assert int(res.goals_per_pe.sum()) == 3 * program.total_goals()

    def test_work_conservation_multi_query(self, grid4, fast_config):
        program = DivideConquer(1, 34)
        m = Machine(
            grid4, program, CWN(radius=3, horizon=1), fast_config,
            arrivals=Arrivals(queries=2, spacing=0.0),
        )
        res = m.run()
        assert res.busy_time.sum() == pytest.approx(
            2 * program.sequential_work(fast_config.costs)
        )
        # speedup uses the scaled total work too.
        assert res.speedup == pytest.approx(res.busy_time.sum() / res.completion_time)

    def test_concurrent_queries_raise_utilization(self, fast_config):
        single = Machine(
            Grid(5, 5), Fibonacci(11), CWN(radius=4, horizon=1), fast_config
        ).run()
        stream = Machine(
            Grid(5, 5), Fibonacci(11), CWN(radius=4, horizon=1), fast_config,
            arrivals=Arrivals(queries=4, spacing=0.0, pes=[0, 6, 12, 18]),
        ).run()
        assert stream.utilization > single.utilization

    def test_gm_handles_streams(self, grid4, fast_config):
        m = Machine(
            grid4, Fibonacci(9), GradientModel(), fast_config,
            arrivals=Arrivals(queries=3, spacing=120.0),
        )
        res = m.run()
        assert res.result_value == [34, 34, 34]


class TestStreamHarness:
    def test_spread_pes(self, grid4):
        assert spread_pes(grid4, 4) == [0, 4, 8, 12]
        assert spread_pes(grid4, 1) == [0]

    def test_run_stream_structure(self):
        results = run_stream(
            Fibonacci(9), Grid(4, 4), queries=3, spacing=100.0, seed=1
        )
        names = {r.strategy for r in results}
        assert names == {"cwn", "gm"}
        assert all(r.results_ok for r in results)
        assert all(r.mean_response <= r.max_response for r in results)

    def test_render(self):
        results = run_stream(Fibonacci(7), Grid(4, 4), queries=2, spacing=50.0)
        text = render_stream(results, header="demo")
        assert "demo" in text and "makespan" in text
