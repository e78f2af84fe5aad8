"""Tests for heterogeneous-machine support (SimConfig.pe_speeds)."""

from __future__ import annotations

import pytest

from repro.core import CWN, KeepLocal
from repro.oracle.config import SimConfig
from repro.oracle.machine import Machine
from repro.topology import Complete, Grid
from repro.workload import Fibonacci


def run(workload, topology, strategy, config=None, start_pe=0):
    return Machine(topology, workload, strategy, config, start_pe).run()


class TestConfiguration:
    def test_speed_validation(self):
        with pytest.raises(ValueError):
            SimConfig(pe_speeds=(1.0, 0.0))
        with pytest.raises(ValueError):
            SimConfig(pe_speeds=(1.0, -2.0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(pe_speeds=(1.0, bad))

    def test_length_mismatch_rejected(self):
        cfg = SimConfig(pe_speeds=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="entries"):
            Machine(Grid(4, 4), Fibonacci(5), KeepLocal(), cfg)

    def test_default_is_homogeneous(self, grid4, fast_config):
        m = Machine(grid4, Fibonacci(5), KeepLocal(), fast_config)
        assert all(pe.speed == 1.0 for pe in m.pes)


class TestPhysics:
    def test_fast_pe_finishes_sooner(self):
        # One PE alone, doubled speed: completion time halves exactly.
        slow = run(
            Fibonacci(9), Complete(2), KeepLocal(), SimConfig(seed=1)
        )
        fast = run(
            Fibonacci(9),
            Complete(2),
            KeepLocal(),
            SimConfig(seed=1, pe_speeds=(2.0, 1.0)),
        )
        assert fast.completion_time == pytest.approx(slow.completion_time / 2)

    def test_work_conservation_weighted_by_speed(self):
        speeds = tuple(1.0 if pe % 2 == 0 else 0.5 for pe in range(16))
        cfg = SimConfig(seed=1, pe_speeds=speeds)
        program = Fibonacci(11)
        m = Machine(Grid(4, 4), program, CWN(radius=3, horizon=1), cfg)
        res = m.run()
        # Wall-clock busy x speed = work executed; summed it must equal
        # the program's total work.
        executed = sum(b * s for b, s in zip(res.busy_time, speeds))
        assert executed == pytest.approx(program.sequential_work(cfg.costs))

    def test_speedup_bounded_by_aggregate_capacity(self):
        speeds = tuple(0.5 for _ in range(16))
        cfg = SimConfig(seed=1, pe_speeds=speeds)
        res = run(Fibonacci(12), Grid(4, 4), CWN(radius=3, horizon=1), cfg)
        assert res.speedup <= sum(speeds) + 1e-9

    def test_uniform_slowdown_scales_completion(self):
        base = run(Fibonacci(11), Grid(4, 4), CWN(radius=3, horizon=1), SimConfig(seed=1))
        # All PEs at half speed with *zero-cost* communication would
        # exactly double completion; with default (cheap) communication
        # it must stay close to double but never below the compute bound.
        half = run(
            Fibonacci(11),
            Grid(4, 4),
            CWN(radius=3, horizon=1),
            SimConfig(seed=1, pe_speeds=tuple(0.5 for _ in range(16))),
        )
        assert half.completion_time > 1.5 * base.completion_time

    def test_result_correct_on_heterogeneous_machine(self):
        speeds = tuple(0.25 + 0.25 * (pe % 4) for pe in range(16))
        res = run(
            Fibonacci(10),
            Grid(4, 4),
            CWN(radius=3, horizon=1),
            SimConfig(seed=1, pe_speeds=speeds),
        )
        assert res.result_value == 55

    def test_fast_pes_attract_more_work(self):
        # Dynamic balancing should let fast PEs execute more goals: they
        # drain queues quicker, so their advertised load stays lower.
        speeds = tuple(2.0 if pe < 8 else 0.5 for pe in range(16))
        res = run(
            Fibonacci(13),
            Grid(4, 4),
            CWN(radius=3, horizon=1),
            SimConfig(seed=1, pe_speeds=speeds),
        )
        fast_goals = res.goals_per_pe[:8].sum()
        slow_goals = res.goals_per_pe[8:].sum()
        assert fast_goals > 1.5 * slow_goals
