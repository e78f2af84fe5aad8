"""Tests for repro.validation: analytic bounds and result invariants.

The invariants are applied across the whole strategy zoo — any strategy
that loses, duplicates, or invents work fails here first.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_strategy
from repro.oracle.config import CostModel, SimConfig
from repro.oracle.machine import Machine
from repro.scenario.arrivals import Arrivals
from repro.topology import DoubleLatticeMesh, Grid, Hypercube
from repro.validation import (
    InvariantViolation,
    check_result,
    completion_bounds,
    validate_result,
)
from repro.workload import DivideConquer, Fibonacci, UnbalancedTreeSearch


class TestCompletionBounds:
    def test_one_pe_lower_is_work(self):
        prog = Fibonacci(11)
        costs = CostModel()
        b = completion_bounds(prog, costs, 1)
        assert b.lower == pytest.approx(prog.sequential_work(costs))

    def test_many_pes_lower_is_span(self):
        prog = Fibonacci(11)
        costs = CostModel()
        b = completion_bounds(prog, costs, 100_000)
        assert b.lower == pytest.approx(prog.critical_path(costs))

    def test_lower_below_brent(self):
        b = completion_bounds(Fibonacci(11), CostModel(), 25)
        assert b.lower <= b.brent_upper
        assert b.brent_upper <= 2 * b.lower  # max(a,b) vs a+b

    def test_max_speedup_bounded_by_pes(self):
        b = completion_bounds(DivideConquer(1, 144), CostModel(), 25)
        assert b.max_speedup <= 25 + 1e-9

    def test_heterogeneous_speeds(self):
        prog = Fibonacci(9)
        costs = CostModel()
        speeds = [2.0, 1.0, 1.0, 1.0]
        b = completion_bounds(prog, costs, 4, pe_speeds=speeds)
        assert b.effective_pes == 5.0
        assert b.max_speed == 2.0
        # Span can run on the fast PE: half the homogeneous span bound.
        assert b.lower <= completion_bounds(prog, costs, 4).lower

    def test_queries_scale_work_not_span(self):
        prog = Fibonacci(9)
        costs = CostModel()
        one = completion_bounds(prog, costs, 25, queries=1)
        four = completion_bounds(prog, costs, 25, queries=4)
        assert four.work == pytest.approx(4 * one.work)
        assert four.span == one.span

    def test_validation(self):
        prog = Fibonacci(7)
        costs = CostModel()
        with pytest.raises(ValueError):
            completion_bounds(prog, costs, 0)
        with pytest.raises(ValueError):
            completion_bounds(prog, costs, 2, pe_speeds=[1.0])
        with pytest.raises(ValueError):
            completion_bounds(prog, costs, 2, pe_speeds=[1.0, 0.0])
        with pytest.raises(ValueError):
            completion_bounds(prog, costs, 2, queries=0)

    def test_quality_positive(self):
        b = completion_bounds(Fibonacci(9), CostModel(), 25)
        assert b.quality(b.brent_upper) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            b.quality(0.0)


#: every registered strategy spec the zoo exercises
ZOO_SPECS = [
    "cwn", "gm", "local", "random", "roundrobin", "acwn", "threshold",
    "stealing", "diffusion", "bidding", "symmetric", "central",
    "randomwalk", "gm-event", "gm-batch",
]


@pytest.mark.parametrize("spec", ZOO_SPECS)
def test_every_strategy_satisfies_all_invariants(spec):
    machine = Machine(
        Grid(5, 5),
        Fibonacci(11),
        make_strategy(spec, family="grid"),
        SimConfig(seed=13),
    )
    result = machine.run()
    assert check_result(result, machine) == []


@pytest.mark.parametrize(
    "topo_factory",
    [lambda: Grid(6, 6), lambda: DoubleLatticeMesh(4, 8, 8), lambda: Hypercube(5)],
    ids=["grid", "dlm", "hypercube"],
)
def test_invariants_across_topologies(topo_factory):
    machine = Machine(
        topo_factory(), DivideConquer(1, 144), make_strategy("cwn"), SimConfig(seed=3)
    )
    result = machine.run()
    validate_result(result, machine)  # raises on violation


def test_invariants_on_irregular_workload():
    machine = Machine(
        Grid(5, 5),
        UnbalancedTreeSearch(seed=4, root_children=16),
        make_strategy("cwn"),
        SimConfig(seed=3),
    )
    result = machine.run()
    validate_result(result, machine)


def test_invariants_with_queries():
    machine = Machine(
        Grid(5, 5),
        Fibonacci(9),
        make_strategy("gm"),
        SimConfig(seed=3),
        arrivals=Arrivals(queries=3, spacing=100.0),
    )
    result = machine.run()
    validate_result(result, machine)


def test_invariants_heterogeneous():
    speeds = [2.0 if pe % 2 == 0 else 1.0 for pe in range(25)]
    machine = Machine(
        Grid(5, 5),
        Fibonacci(9),
        make_strategy("cwn"),
        SimConfig(seed=3, pe_speeds=speeds),
    )
    result = machine.run()
    validate_result(result, machine)


def test_violation_detected_when_result_tampered():
    machine = Machine(Grid(5, 5), Fibonacci(9), make_strategy("cwn"), SimConfig(seed=3))
    result = machine.run()
    result.busy_time[0] += 1000.0  # fake extra work
    violations = check_result(result, machine)
    assert any("work not conserved" in v for v in violations)
    with pytest.raises(InvariantViolation):
        validate_result(result, machine)


def test_violation_message_lists_all():
    machine = Machine(Grid(5, 5), Fibonacci(9), make_strategy("cwn"), SimConfig(seed=3))
    result = machine.run()
    result.busy_time[0] += 1000.0
    result.goals_per_pe[0] += 5
    with pytest.raises(InvariantViolation) as exc:
        validate_result(result, machine)
    msg = str(exc.value)
    assert "work not conserved" in msg
    assert "goal count mismatch" in msg


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_completion_never_beats_lower_bound(seed):
    """Property: no seed can produce a run faster than the analytic bound."""
    prog = Fibonacci(9)
    costs = CostModel()
    machine = Machine(Grid(5, 5), prog, make_strategy("cwn"), SimConfig(seed=seed))
    result = machine.run()
    assert result.completion_time >= completion_bounds(prog, costs, 25).lower
