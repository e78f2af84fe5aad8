"""Property-based tests over the full strategy zoo and machine options.

Complements test_properties.py: these sweep *configuration* dimensions
(strategy family, queue discipline, load-info mode, query count,
heterogeneity) under hypothesis-chosen seeds, asserting the invariants
that must survive any combination — right answer, exact goal accounting,
bounded utilization.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CWN,
    AdaptiveCWN,
    BatchGradient,
    Bidding,
    CentralScheduler,
    Diffusion,
    EventGradient,
    GradientModel,
    RandomWalk,
    Symmetric,
    ThresholdRandom,
    WorkStealing,
)
from repro.oracle.config import SimConfig
from repro.oracle.machine import Machine
from repro.scenario.arrivals import Arrivals
from repro.topology import DoubleLatticeMesh, Grid
from repro.workload import Fibonacci, NQueens, SkewedTree

SIM_SETTINGS = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

STRATEGY_FACTORIES = (
    lambda: CWN(radius=4, horizon=1),
    lambda: CWN(radius=4, horizon=1, keep_on_tie=False),
    lambda: GradientModel(),
    lambda: GradientModel(ship="oldest", stagger=False),
    lambda: AdaptiveCWN(radius=4, horizon=1, saturation=2.0, pull=True),
    lambda: ThresholdRandom(threshold=2.0, max_transfers=3),
    lambda: WorkStealing(threshold=2.0, max_probes=2),
    lambda: Diffusion(alpha=0.25, interval=15.0),
    lambda: Bidding(threshold=2.0),
    lambda: Symmetric(send_threshold=2.0, radius=3),
    lambda: CentralScheduler(dispatch_cost=0.5),
    lambda: RandomWalk(radius=4, horizon=1, keep_prob=0.4),
    lambda: EventGradient(),
    lambda: BatchGradient(batch=3),
)


@given(
    st.integers(0, len(STRATEGY_FACTORIES) - 1),
    st.integers(0, 10_000),
    st.sampled_from(["fifo", "lifo"]),
)
@SIM_SETTINGS
def test_any_strategy_any_seed_any_discipline(idx, seed, discipline):
    program = Fibonacci(9)
    cfg = SimConfig(seed=seed, queue_discipline=discipline)
    res = Machine(Grid(4, 4), program, STRATEGY_FACTORIES[idx](), cfg).run()
    assert res.result_value == 34
    assert res.total_goals == program.total_goals()
    assert int(res.goals_per_pe.sum()) == program.total_goals()
    assert 0 < res.utilization <= 1.0 + 1e-9


@given(st.integers(0, 10_000), st.sampled_from(["instant", "on_change", "periodic", "channel"]))
@SIM_SETTINGS
def test_gm_correct_under_every_information_model(seed, mode):
    cfg = SimConfig(seed=seed, load_info=mode)
    res = Machine(Grid(4, 4), Fibonacci(9), GradientModel(), cfg).run()
    assert res.result_value == 34


@given(st.integers(1, 5), st.floats(0.0, 300.0), st.integers(0, 1000))
@SIM_SETTINGS
def test_multi_query_accounting(queries, spacing, seed):
    program = SkewedTree(40, 0.7)
    m = Machine(
        Grid(4, 4),
        program,
        CWN(radius=3, horizon=1),
        SimConfig(seed=seed),
        arrivals=Arrivals(queries=queries, spacing=spacing),
    )
    res = m.run()
    expected = program.expected_result()
    values = res.result_value if queries > 1 else [res.result_value]
    assert values == [expected] * queries
    assert res.total_goals == queries * program.total_goals()
    assert len(res.response_times) == queries
    assert all(rt > 0 for rt in res.response_times)
    assert res.completion_time == max(res.query_completions)


@given(
    st.lists(st.floats(0.25, 4.0), min_size=16, max_size=16),
    st.integers(0, 1000),
)
@SIM_SETTINGS
def test_heterogeneity_preserves_work(speeds_list, seed):
    speeds = tuple(speeds_list)
    cfg = SimConfig(seed=seed, pe_speeds=speeds)
    program = Fibonacci(9)
    res = Machine(Grid(4, 4), program, CWN(radius=3, horizon=1), cfg).run()
    executed = sum(b * s for b, s in zip(res.busy_time, speeds))
    assert executed == pytest.approx(program.sequential_work(cfg.costs))
    assert res.speedup <= sum(speeds) + 1e-9


@given(st.integers(4, 7), st.integers(0, 1000))
@SIM_SETTINGS
def test_nqueens_correct_on_dlm(n, seed):
    from repro.workload.nqueens import SOLUTION_COUNTS

    res = Machine(
        DoubleLatticeMesh(3, 4, 4),
        NQueens(n),
        GradientModel(),
        SimConfig(seed=seed),
    ).run()
    assert res.result_value == SOLUTION_COUNTS[n]


@given(st.integers(0, 10_000))
@SIM_SETTINGS
def test_paired_seeding_is_fair(seed):
    # The comparison harness's fairness contract: the same seed gives
    # both strategies identical tie-breaking streams, so rerunning one
    # side twice is bit-identical.
    a = Machine(Grid(4, 4), Fibonacci(9), CWN(radius=3, horizon=1), SimConfig(seed=seed)).run()
    b = Machine(Grid(4, 4), Fibonacci(9), CWN(radius=3, horizon=1), SimConfig(seed=seed)).run()
    assert a.completion_time == b.completion_time
    assert a.hop_histogram == b.hop_histogram
