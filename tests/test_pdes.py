"""Unit tests for the conservative parallel engine's static machinery.

The end-to-end bit-identity contract lives in
``test_kernel_golden.py::TestShardedGolden``; this module covers the
pieces with meaningful behavior of their own — the :class:`Partition`
block map, the lookahead computation, the shardability gate, and the
coordinator's answer to a shard that dies mid-window.
"""

from __future__ import annotations

import itertools
import multiprocessing

import pytest

from repro.oracle.config import SimConfig
from repro.oracle.engine import SimulationError
from repro.pdes import NotShardable, Partition, check_shardable, lookahead_of, run_sharded
from repro.pdes.shard import ShardWorker
from repro.scenario import Scenario
from repro.topology import Grid, Hypercube, Ring


class TestPartition:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 7, 16])
    def test_blocks_cover_and_balance(self, n_shards):
        topo = Grid(4, 4)
        part = Partition(topo, n_shards)
        covered = []
        sizes = []
        for s in range(n_shards):
            block = part.owned(s)
            covered.extend(block)
            sizes.append(len(block))
        assert covered == list(range(topo.n))
        assert max(sizes) - min(sizes) <= 1

    def test_shard_of_matches_bounds(self):
        topo = Hypercube(5)
        for shards in (2, 3, 5, 7, 32):
            part = Partition(topo, shards)
            for pe in range(topo.n):
                assert part.bounds[part.shard_of(pe)] <= pe < part.bounds[part.shard_of(pe) + 1]

    def test_channel_ownership(self):
        part = Partition(Grid(4, 4), 4)
        topo = part.topology
        for cid, members in enumerate(topo.channels):
            owners = {part.shard_of(pe) for pe in members}
            if len(owners) == 1:
                assert part.channel_shard[cid] == owners.pop()
                assert cid not in part.boundary_channels
            else:
                assert part.channel_shard[cid] == -1
                assert cid in part.boundary_channels
        # A 4x4 torus split into 4 row-blocks: boundaries exist.
        assert part.boundary_channels

    def test_word_fanout(self):
        part = Partition(Ring(8), 2)
        # Ring 0..7, blocks [0..3] and [4..7]: PEs 0, 3, 4, 7 sit on the
        # boundary (wraparound joins 0 and 7).
        for pe in range(8):
            expected = {part.shard_of(nb) for nb in part.topology.neighbors(pe)}
            expected.discard(part.shard_of(pe))
            assert part.word_fanout[pe] == tuple(sorted(expected))
        assert part.word_fanout[0] and part.word_fanout[3]
        assert not part.word_fanout[1]

    def test_validation(self):
        topo = Grid(2, 2)
        with pytest.raises(ValueError):
            Partition(topo, 0)
        with pytest.raises(ValueError):
            Partition(topo, 5)
        with pytest.raises(ValueError):
            Partition(topo, 2).owned(2)


class TestLookahead:
    def scenario(self, **config):
        return Scenario(workload="fib:8", topology="grid:4x4", strategy="cwn",
                        config=SimConfig(**config))

    def test_default_is_load_word_delay(self):
        sc = self.scenario()
        strategy = sc.resolve_strategy(family="grid")
        cfg = sc.effective_config
        # on_change mode: the 1.0 load-word delay undercuts the 2.0
        # one-word channel transfer.
        assert lookahead_of(cfg, strategy) == cfg.load_info_delay == 1.0

    def test_piggyback_without_on_word_is_channel_bound(self):
        sc = Scenario(workload="fib:8", topology="grid:4x4", strategy="local",
                      config=SimConfig(load_info="piggyback"))
        strategy = sc.resolve_strategy(family="grid")
        cfg = sc.effective_config
        # KeepLocal never consumes control words, so only channel traffic
        # crosses shards: hop_overhead + word_time.
        assert lookahead_of(cfg, strategy) == cfg.costs.hop_overhead + cfg.costs.word_time

    def test_piggyback_with_on_word_caps_at_delay(self):
        sc = Scenario(workload="fib:8", topology="grid:4x4", strategy="gm",
                      config=SimConfig(load_info="piggyback", load_info_delay=0.25))
        strategy = sc.resolve_strategy(family="grid")
        assert lookahead_of(sc.effective_config, strategy) == 0.25


class TestCheckShardable:
    def test_accepts_default_scenario(self):
        sc = Scenario(workload="fib:8", topology="grid:4x4", strategy="cwn")
        partition, lookahead = check_shardable(sc, 4)
        assert partition.shards == 4
        assert lookahead > 0

    def test_rejects_zero_lookahead(self):
        sc = Scenario(workload="fib:8", topology="grid:4x4", strategy="cwn",
                      config=SimConfig(load_info_delay=0.0))
        with pytest.raises(NotShardable, match="lookahead"):
            check_shardable(sc, 2)

    @pytest.mark.parametrize("mode", ["instant", "channel"])
    def test_rejects_global_load_info(self, mode):
        sc = Scenario(workload="fib:8", topology="grid:4x4", strategy="cwn",
                      config=SimConfig(load_info=mode))
        with pytest.raises(NotShardable, match="load_info"):
            check_shardable(sc, 2)

    def test_rejects_unshardable_strategy(self):
        sc = Scenario(workload="fib:8", topology="grid:4x4", strategy="stealing")
        with pytest.raises(NotShardable, match="stealing"):
            check_shardable(sc, 2)

    def test_multi_channel_boundary_pairs_rejected(self):
        """If a cut pair is joined by parallel channels, selection would
        need the boundary channel's live backlog — refuse.  No built-in
        family has parallel channels, so synthesize one."""

        class DoubledRing(Ring):
            def _build(self):
                neighbor_sets, links = super()._build()
                links.append((0, 1))  # second channel on the 0-1 pair
                return neighbor_sets, links

        topo = DoubledRing(6)
        assert len(topo.channels_between(0, 1)) == 2
        sc = Scenario(workload="fib:8", topology=topo, strategy="cwn")
        # Splitting 0..2 / 3..5 leaves the doubled 0-1 pair intact: fine.
        check_shardable(sc, 2)
        # One PE per shard cuts it: refused.
        with pytest.raises(NotShardable, match="several channels"):
            check_shardable(sc, 6)

    def test_dlm_buses_accepted(self):
        """Boundary buses are fine — the mirror replays them serially."""
        sc = Scenario(workload="fib:8", topology="dlm:4x4x4", strategy="cwn")
        partition, _ = check_shardable(sc, 4)
        assert partition.boundary_channels


class TestShardDeath:
    def test_killed_shard_fails_the_run_and_leaves_no_child(
        self, kill_in_child, wall_clock_guard
    ):
        wall_clock_guard(60)
        calls = itertools.count(1)  # each shard process counts its own copy
        kill_in_child(
            ShardWorker, "run_window", lambda worker: worker.shard == 1 and next(calls) == 5
        )
        scenario = Scenario.from_spec("fib:12 @ grid:8x8 / cwn?seed=1")
        with pytest.raises(SimulationError, match=r"shard 1 died without a reply during window \d+"):
            run_sharded(scenario, 2)
        assert multiprocessing.active_children() == []
