"""Integration tests for the Machine: end-to-end correctness invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CWN, GradientModel, KeepLocal
from repro.oracle.config import CostModel, SimConfig
from repro.oracle.engine import SimulationError
from repro.oracle.machine import Machine
from repro.topology import Grid, Ring
from repro.workload import DivideConquer, Fibonacci


def run(workload, topology, strategy, config=None, start_pe=0):
    return Machine(topology, workload, strategy, config, start_pe).run()


class TestEndToEnd:
    def test_result_value_correct(self, grid4, fast_config):
        res = run(Fibonacci(10), grid4, CWN(radius=4, horizon=1), fast_config)
        assert res.result_value == 55

    def test_every_goal_executes_exactly_once(self, grid4, fast_config):
        program = DivideConquer(1, 55)
        res = run(program, grid4, CWN(radius=4, horizon=1), fast_config)
        assert res.total_goals == program.total_goals()
        assert int(res.goals_per_pe.sum()) == program.total_goals()

    def test_work_conservation(self, grid4, fast_config):
        # Load balancing moves work; it must not create or destroy it.
        program = Fibonacci(9)
        res = run(program, grid4, CWN(radius=4, horizon=1), fast_config)
        assert res.busy_time.sum() == pytest.approx(
            program.sequential_work(fast_config.costs)
        )

    def test_hop_histogram_covers_every_goal(self, grid4, fast_config):
        program = Fibonacci(9)
        res = run(program, grid4, CWN(radius=4, horizon=1), fast_config)
        assert sum(res.hop_histogram.values()) == program.total_goals()

    def test_utilization_in_bounds(self, grid4, fast_config):
        res = run(Fibonacci(9), grid4, CWN(radius=4, horizon=1), fast_config)
        assert 0.0 < res.utilization <= 1.0
        assert np.all(res.per_pe_utilization <= 1.0 + 1e-9)

    def test_keep_local_uses_one_pe(self, grid4, fast_config):
        program = Fibonacci(9)
        res = run(program, grid4, KeepLocal(), fast_config, start_pe=5)
        assert res.goals_per_pe[5] == program.total_goals()
        assert res.goals_per_pe.sum() == program.total_goals()
        # Sequential on one PE: completion == sequential work, speedup == 1.
        assert res.completion_time == pytest.approx(
            program.sequential_work(fast_config.costs)
        )
        assert res.speedup == pytest.approx(1.0)

    def test_start_pe_validation(self, grid4):
        with pytest.raises(ValueError):
            Machine(grid4, Fibonacci(5), KeepLocal(), start_pe=99)

    def test_machine_runs_once(self, grid4, fast_config):
        m = Machine(grid4, Fibonacci(5), KeepLocal(), fast_config)
        m.run()
        with pytest.raises(SimulationError, match="exactly once"):
            m.run()

    def test_single_goal_program(self, grid4, fast_config):
        res = run(Fibonacci(1), grid4, CWN(radius=2, horizon=1), fast_config)
        assert res.result_value == 1
        assert res.total_goals == 1


class TestDeterminism:
    def test_same_seed_same_trace(self, grid4):
        results = [
            run(Fibonacci(10), Grid(4, 4), CWN(radius=4, horizon=1), SimConfig(seed=3))
            for _ in range(2)
        ]
        assert results[0].completion_time == results[1].completion_time
        assert np.array_equal(results[0].busy_time, results[1].busy_time)
        assert results[0].hop_histogram == results[1].hop_histogram
        assert results[0].events_executed == results[1].events_executed

    def test_different_seeds_differ(self):
        a = run(Fibonacci(10), Grid(4, 4), CWN(radius=4, horizon=1), SimConfig(seed=1))
        b = run(Fibonacci(10), Grid(4, 4), CWN(radius=4, horizon=1), SimConfig(seed=2))
        # Random tie-breaking must actually change placement somewhere.
        assert (
            a.completion_time != b.completion_time
            or a.hop_histogram != b.hop_histogram
        )

    def test_gm_deterministic(self):
        results = [
            run(Fibonacci(10), Grid(4, 4), GradientModel(), SimConfig(seed=3))
            for _ in range(2)
        ]
        assert results[0].completion_time == results[1].completion_time


class TestLoadInformation:
    @pytest.mark.parametrize("mode", ["instant", "on_change", "periodic", "channel"])
    def test_all_modes_complete_correctly(self, mode, grid4):
        cfg = SimConfig(seed=3, load_info=mode)
        res = run(Fibonacci(9), grid4, CWN(radius=4, horizon=1), cfg)
        assert res.result_value == 34

    def test_instant_mode_reads_live_load(self, grid4):
        cfg = SimConfig(seed=3, load_info="instant")
        m = Machine(grid4, Fibonacci(5), CWN(radius=4, horizon=1), cfg)
        m.pes[3].push(_dummy_goal())
        m.pes[3].push(_dummy_goal())
        assert m.known_load(observer=2, subject=3) == 2.0

    def test_on_change_mode_has_delay(self, grid4):
        cfg = SimConfig(seed=3, load_info="on_change", load_info_delay=5.0)
        m = Machine(grid4, Fibonacci(5), CWN(radius=4, horizon=1), cfg)
        # Two goals queued; at t=0 the executor pops one (posting load 1),
        # then computes for leaf_work=50 units, so at t=6 the last applied
        # load word is 1.
        m.pes[3].push(_dummy_goal())
        m.pes[3].push(_dummy_goal())
        nbr = grid4.neighbors(3)[0]
        assert m.known_load(nbr, 3) == 0.0  # nothing has arrived yet
        m.engine.run(until=6.0)
        assert m.known_load(nbr, 3) == 1.0

    def test_belief_free_machine_refuses_belief_reads(self, grid4):
        """GM reads no beliefs, so its machine keeps none and says so;
        a CWN machine still answers from its rows."""
        gm = Machine(grid4, Fibonacci(5), GradientModel(), SimConfig(seed=3))
        with pytest.raises(SimulationError, match="reads_beliefs"):
            gm.known_load(2, 3)
        with pytest.raises(SimulationError, match="reads_beliefs"):
            gm.known_loads_of(2, grid4.neighbors(2))
        cwn = Machine(grid4, Fibonacci(5), CWN(radius=4, horizon=1), SimConfig(seed=3))
        assert cwn.known_load(2, 3) == 0.0
        assert cwn.known_loads_of(2, grid4.neighbors(2)) == [0.0] * len(grid4.neighbors(2))

    def test_channel_mode_charges_channels(self, grid4):
        quiet = run(
            Fibonacci(9), grid4, CWN(radius=4, horizon=1), SimConfig(seed=3)
        )
        charged = run(
            Fibonacci(9),
            Grid(4, 4),
            CWN(radius=4, horizon=1),
            SimConfig(seed=3, load_info="channel"),
        )
        # Load words now occupy channels: strictly more transfers.
        assert charged.channel_messages.sum() > quiet.channel_messages.sum()


class TestResponses:
    def test_responses_route_multi_hop(self, fast_config):
        # On a ring, children land away from the parent; responses must
        # cross several channels and still fold correctly.
        res = run(DivideConquer(1, 21), Ring(8), CWN(radius=4, horizon=1), fast_config)
        assert res.result_value == 231
        assert res.response_messages_sent > 0

    def test_local_responses_free(self, fast_config):
        # All-local execution: no response traffic at all.
        res = run(DivideConquer(1, 21), Grid(4, 4), KeepLocal(), fast_config)
        assert res.response_messages_sent == 0
        assert res.goal_messages_sent == 0


class TestSampling:
    def test_sampler_records_series(self, grid4):
        cfg = SimConfig(seed=3, sample_interval=50.0)
        res = run(Fibonacci(10), grid4, CWN(radius=4, horizon=1), cfg)
        assert len(res.samples) >= 2
        times = [s.time for s in res.samples]
        assert times == sorted(times)
        assert all(0.0 <= s.utilization <= 1.0 + 1e-9 for s in res.samples)

    def test_per_pe_sampling(self, grid4):
        cfg = SimConfig(seed=3, sample_interval=50.0, sample_per_pe=True)
        res = run(Fibonacci(10), grid4, CWN(radius=4, horizon=1), cfg)
        assert all(len(s.per_pe) == 16 for s in res.samples)
        # Mean of per-PE values equals the aggregate sample.
        for s in res.samples:
            assert np.mean(s.per_pe) == pytest.approx(s.utilization)

    def test_sample_utilization_integrates_to_busy_time(self, grid4):
        # Accrual correctness: sum(interval * P * sample) over full
        # intervals must never exceed total work.
        cfg = SimConfig(seed=3, sample_interval=25.0)
        program = Fibonacci(10)
        res = run(program, Grid(4, 4), CWN(radius=4, horizon=1), cfg)
        integrated = sum(s.utilization for s in res.samples) * 25.0 * 16
        assert integrated <= program.sequential_work(cfg.costs) + 1e-6


class TestCostModelEffects:
    def test_higher_comm_slows_completion(self, grid4):
        fast = run(
            Fibonacci(10),
            Grid(4, 4),
            CWN(radius=4, horizon=1),
            SimConfig(seed=3, costs=CostModel.low_comm()),
        )
        slow = run(
            Fibonacci(10),
            Grid(4, 4),
            CWN(radius=4, horizon=1),
            SimConfig(seed=3, costs=CostModel.high_comm()),
        )
        assert slow.completion_time > fast.completion_time

    def test_route_decision_delays_but_does_not_consume_pe(self, grid4):
        costs = CostModel(route_decision=0.0)
        a = run(Fibonacci(9), Grid(4, 4), CWN(radius=4, horizon=1), SimConfig(seed=3, costs=costs))
        costs = CostModel(route_decision=5.0)
        b = run(Fibonacci(9), Grid(4, 4), CWN(radius=4, horizon=1), SimConfig(seed=3, costs=costs))
        # Same total work either way (co-processor assumption).
        assert a.busy_time.sum() == pytest.approx(b.busy_time.sum())


def _dummy_goal():
    from repro.workload import Goal

    return Goal(payload=0, parent_pe=0, parent_task=0)
