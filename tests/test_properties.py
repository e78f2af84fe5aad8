"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CWN, GradientModel
from repro.core.base import argmin_load
from repro.oracle.config import SimConfig
from repro.oracle.engine import Engine
from repro.oracle.machine import Machine
from repro.topology import DoubleLatticeMesh, Grid, Hypercube, Ring
from repro.workload import DivideConquer, Fibonacci, RandomTree, SkewedTree
from repro.workload.base import Split, _sequential_eval

# Simulation-backed properties are slow per example; keep example counts
# deliberately modest and silence the slow-data health checks.
SIM_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# Engine properties
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []
    for d in delays:
        engine.schedule(d, lambda _, dd=d: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Topology properties
# ---------------------------------------------------------------------------

topologies = st.one_of(
    st.tuples(st.integers(3, 8), st.integers(3, 8)).map(lambda rc: Grid(*rc)),
    st.integers(2, 6).map(Hypercube),
    st.integers(4, 20).map(Ring),
    st.tuples(st.integers(2, 4), st.integers(4, 8), st.integers(4, 8)).map(
        lambda args: DoubleLatticeMesh(min(args[0], args[1], args[2]), args[1], args[2])
    ),
)


@given(topologies, st.data())
@settings(max_examples=40, deadline=None)
def test_route_length_equals_bfs_distance(topo, data):
    src = data.draw(st.integers(0, topo.n - 1))
    dst = data.draw(st.integers(0, topo.n - 1))
    path = topo.shortest_path(src, dst)
    assert len(path) - 1 == topo.distance(src, dst)
    for a, b in zip(path, path[1:]):
        assert b in topo.neighbors(a)


@given(topologies)
@settings(max_examples=30, deadline=None)
def test_neighbor_relation_symmetric_and_channel_backed(topo):
    for pe in range(topo.n):
        for nb in topo.neighbors(pe):
            assert pe in topo.neighbors(nb)
            assert len(topo.channels_between(pe, nb)) >= 1


@given(topologies, st.data())
@settings(max_examples=30, deadline=None)
def test_triangle_inequality(topo, data):
    a = data.draw(st.integers(0, topo.n - 1))
    b = data.draw(st.integers(0, topo.n - 1))
    c = data.draw(st.integers(0, topo.n - 1))
    assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c)


@given(topologies)
@settings(max_examples=30, deadline=None)
def test_diameter_is_max_distance(topo):
    assert topo.diameter == max(
        topo.distance(a, b) for a in range(topo.n) for b in range(topo.n)
    )


# ---------------------------------------------------------------------------
# Workload properties
# ---------------------------------------------------------------------------


@given(st.integers(1, 300), st.integers(1, 300))
def test_dc_closed_forms(lo_raw, span):
    lo, hi = lo_raw, lo_raw + span - 1
    dc = DivideConquer(lo, hi)
    assert dc.total_goals() == 2 * span - 1
    assert dc.expected_result() == sum(range(lo, hi + 1))
    assert _sequential_eval(dc, dc.root_payload()) == dc.expected_result()


@given(st.integers(0, 16))
def test_fib_goal_count_matches_walk(n):
    fib = Fibonacci(n)
    count = 0
    stack = [fib.root_payload()]
    while stack:
        payload = stack.pop()
        count += 1
        exp = fib.expand(payload)
        if isinstance(exp, Split):
            stack.extend(exp.children)
    assert count == fib.total_goals()


@given(st.integers(1, 500), st.floats(0.05, 0.95))
def test_skewed_tree_invariants(size, skew):
    tree = SkewedTree(size, skew)
    assert tree.total_goals() == 2 * size - 1
    assert _sequential_eval(tree, tree.root_payload()) == size


@given(st.integers(0, 2**32), st.integers(2, 4), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_random_tree_deterministic_and_consistent(seed, children, depth):
    t1 = RandomTree(seed=seed, max_children=children, expected_depth=depth, max_depth=depth * 2)
    t2 = RandomTree(seed=seed, max_children=children, expected_depth=depth, max_depth=depth * 2)
    assert t1.total_goals() == t2.total_goals()
    # Leaves counted by the evaluator never exceed total nodes.
    leaves = t1.expected_result()
    assert 1 <= leaves <= t1.total_goals()


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_random_tree_expansion_pure(seed):
    tree = RandomTree(seed=seed, expected_depth=3, max_depth=6)
    frontier = deque([tree.root_payload()])
    while frontier:
        payload = frontier.popleft()
        first = tree.expand(payload)
        second = tree.expand(payload)
        assert type(first) is type(second)
        if isinstance(first, Split):
            assert first.children == second.children
            frontier.extend(first.children)
        else:
            assert first.value == second.value


# ---------------------------------------------------------------------------
# Strategy helper properties
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(0, 100), min_size=1, max_size=10),
    st.integers(0, 2**16),
)
def test_argmin_load_returns_a_minimum(loads, seed):
    import random

    candidates = list(range(100, 100 + len(loads)))
    rng = random.Random(seed)
    picked = argmin_load(candidates, loads, rng, "random")
    assert loads[picked - 100] == min(loads)
    lowest = argmin_load(candidates, loads, rng, "lowest")
    assert lowest == candidates[loads.index(min(loads))]


# ---------------------------------------------------------------------------
# End-to-end simulation properties
# ---------------------------------------------------------------------------


@given(
    st.integers(5, 11),
    st.sampled_from(["cwn", "gm"]),
    st.integers(0, 1000),
)
@SIM_SETTINGS
def test_simulation_correct_for_any_seed(n, strategy_name, seed):
    strategy = (
        CWN(radius=4, horizon=1) if strategy_name == "cwn" else GradientModel()
    )
    program = Fibonacci(n)
    res = Machine(Grid(4, 4), program, strategy, SimConfig(seed=seed)).run()
    assert res.result_value == program.expected_result()
    assert res.total_goals == program.total_goals()
    assert sum(res.hop_histogram.values()) == program.total_goals()
    assert 0 < res.utilization <= 1.0


@given(st.integers(0, 500))
@SIM_SETTINGS
def test_work_conservation_any_seed(seed):
    cfg = SimConfig(seed=seed)
    program = DivideConquer(1, 34)
    res = Machine(Grid(4, 4), program, CWN(radius=3, horizon=1), cfg).run()
    assert res.busy_time.sum() == pytest.approx(program.sequential_work(cfg.costs))


@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 100))
@SIM_SETTINGS
def test_cwn_radius_horizon_invariants_hold(radius, horizon_raw, seed):
    horizon = min(horizon_raw, radius)
    res = Machine(
        Grid(4, 4),
        Fibonacci(9),
        CWN(radius=radius, horizon=horizon),
        SimConfig(seed=seed),
    ).run()
    hops = res.hop_histogram
    assert max(hops) <= radius
    # Only radius-capped placements may sit below the horizon.
    below = [h for h in hops if h < horizon]
    assert all(h == radius for h in below)
