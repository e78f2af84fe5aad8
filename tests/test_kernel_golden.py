"""Golden equivalence: sharded execution (:mod:`repro.pdes`) vs serial.

The contract is **bit-for-bit identity**: a scenario run across shards
returns a :class:`SimResult` equal to ``scenario.run()`` in *every*
field — including ``events_executed``, the most fragile witness of
event-sequence identity — or the run is refused with
:class:`~repro.pdes.NotShardable`.  The serial kernel's own reference is
the table of stored result digests in ``tests/test_hop_path.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.oracle.config import SimConfig
from repro.pdes import NotShardable, run_sharded
from repro.scenario import Scenario
from repro.scenario.arrivals import Arrivals
from repro.workload import Fibonacci


def assert_bit_identical(a, b):
    """Every SimResult field equal — floats by exact equality, not approx."""
    for field in (
        "strategy",
        "topology",
        "workload",
        "n_pes",
        "completion_time",
        "result_value",
        "total_goals",
        "sequential_work",
        "hop_histogram",
        "goal_messages_sent",
        "response_messages_sent",
        "responses_routed",
        "response_hops",
        "control_words_sent",
        "samples",
        "events_executed",
        "seed",
        "piggybacked_words",
        "params",
        "query_completions",
        "query_arrivals",
    ):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("busy_time", "goals_per_pe", "channel_busy_time", "channel_messages"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(a.first_goal_time, b.first_goal_time, equal_nan=True)


#: spec-string strategy names whose hooks only touch the acting PE
SHARDABLE_STRATEGIES = [
    "cwn", "acwn", "gm", "gm-event", "gm-batch", "diffusion", "bidding",
    "randomwalk", "threshold", "local", "random", "roundrobin",
]
#: strategies that synchronously read/write foreign PE state
UNSHARDABLE_STRATEGIES = ["central", "stealing", "symmetric"]


def assert_sharded_identical(scenario, shards):
    serial = scenario.run()
    sharded = run_sharded(scenario, shards)
    assert_bit_identical(serial, sharded)
    return serial


class TestShardedGolden:
    """run_sharded returns a SimResult bit-identical to scenario.run()."""

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("name", SHARDABLE_STRATEGIES)
    def test_grid_fib_slice(self, name, shards):
        scenario = Scenario(workload="fib:9", topology="grid:4x4",
                            strategy=name, seed=3)
        serial = assert_sharded_identical(scenario, shards)
        assert serial.result_value == Fibonacci(9).expected_result()

    @pytest.mark.parametrize("name", UNSHARDABLE_STRATEGIES)
    def test_unshardable_strategies_refused(self, name):
        scenario = Scenario(workload="fib:9", topology="grid:4x4",
                            strategy=name, seed=3)
        with pytest.raises(NotShardable):
            run_sharded(scenario, 2)
        # ... but a 1-shard "parallel" run is just the serial run.
        assert run_sharded(scenario, 1).completion_time > 0

    @pytest.mark.parametrize("strategy", ["cwn", "gm"])
    def test_dlm_mixed_channels(self, strategy):
        """Boundary buses *and* boundary links in one partition."""
        scenario = Scenario(workload="fib:9", topology="dlm:4x4x4",
                            strategy=strategy, seed=5)
        for shards in (2, 3):
            assert_sharded_identical(scenario, shards)

    def test_sampler_and_periodic(self):
        """Replicated site-0 ticks: sampler slices merge bit-identically."""
        scenario = Scenario(
            workload="fib:9", topology="grid:4x4", strategy="diffusion",
            seed=5,
            config=SimConfig(sample_interval=25.0, sample_per_pe=True,
                             load_info="periodic", load_info_interval=15.0),
        )
        serial = assert_sharded_identical(scenario, 4)
        assert len(serial.samples) >= 2

    def test_piggyback(self):
        """Load words riding goal messages across shard boundaries."""
        scenario = Scenario(
            workload="fib:9", topology="grid:4x4", strategy="gm", seed=5,
            config=SimConfig(load_info="piggyback"),
        )
        serial = assert_sharded_identical(scenario, 4)
        assert serial.piggybacked_words > 0

    def test_open_system(self):
        """Multi-query arrivals land on the owning shard only."""
        scenario = Scenario(
            workload="fib:8", topology="grid:4x4", strategy="cwn", seed=5,
            arrivals=Arrivals(queries=4, spacing=40.0, pes=(0, 5, 10, 15)),
        )
        assert_sharded_identical(scenario, 4)

    def test_instant_load_info_refused(self):
        scenario = Scenario(workload="fib:9", topology="grid:4x4",
                            strategy="cwn", seed=3,
                            config=SimConfig(load_info="instant"))
        with pytest.raises(NotShardable):
            run_sharded(scenario, 2)
