"""The simulation farm: canonical specs, the content-addressed cache,
and the determinism guarantee (parallel == serial, bit for bit).
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.core import paper_cwn
from repro.experiments.comparison import render_table2, run_comparison
from repro.oracle.config import CostModel, SimConfig
from repro.parallel import (
    ResultCache,
    RunSpec,
    FarmError,
    run_batch,
    run_many,
)
from repro.parallel.cache import result_from_dict, result_to_dict
from repro.scenario import Scenario
from repro.topology import Grid
from repro.workload import Fibonacci


def assert_results_equal(a, b):
    """Field-for-field equality of two SimResults (exact, not approx)."""
    assert a.strategy == b.strategy
    assert a.topology == b.topology
    assert a.workload == b.workload
    assert a.completion_time == b.completion_time
    assert a.total_goals == b.total_goals
    assert a.sequential_work == b.sequential_work
    assert np.array_equal(a.busy_time, b.busy_time)
    assert np.array_equal(a.goals_per_pe, b.goals_per_pe)
    assert a.hop_histogram == b.hop_histogram
    assert a.goal_messages_sent == b.goal_messages_sent
    assert a.response_messages_sent == b.response_messages_sent
    assert a.control_words_sent == b.control_words_sent
    assert np.array_equal(a.channel_busy_time, b.channel_busy_time)
    assert np.array_equal(a.first_goal_time, b.first_goal_time, equal_nan=True)
    assert a.events_executed == b.events_executed


# -- RunSpec ---------------------------------------------------------------------

class TestRunSpec:
    def test_json_round_trip_is_exact(self):
        spec = RunSpec(
            "fib:9",
            "grid:5x5",
            "cwn",
            config=SimConfig(costs=CostModel.high_comm(), pe_speeds=(1.0, 2.0)),
            seed=3,
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_build_from_objects_matches_spec_strings(self):
        from_objects = RunSpec.from_scenario(
            Scenario(Fibonacci(9), Grid(5, 5), paper_cwn("grid"), seed=1)
        )
        from_strings = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        assert from_objects.key() == from_strings.key()

    def test_key_collapses_spelling_aliases(self):
        bare = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        explicit = RunSpec("FIB:9", "grid:5x5", "cwn:radius=9,horizon=2", seed=1)
        assert bare.key() == explicit.key()

    def test_key_resolves_family_parameters(self):
        # "cwn" means different Table 1 parameters on grid vs DLM, so the
        # same bare name on different topologies must not share a key
        # beyond the topology difference itself: explicit DLM parameters
        # must equal bare "cwn" on a DLM.
        bare = RunSpec("fib:9", "dlm:4x8x8", "cwn", seed=1)
        explicit = RunSpec("fib:9", "dlm:4x8x8", "cwn:radius=5,horizon=1", seed=1)
        assert bare.key() == explicit.key()

    def test_key_is_stable_across_calls_and_sensitive_to_inputs(self):
        spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        assert spec.key() == spec.key()
        assert spec.key() != RunSpec("fib:9", "grid:5x5", "cwn", seed=2).key()
        assert spec.key() != RunSpec("fib:10", "grid:5x5", "cwn", seed=1).key()
        assert (
            spec.key()
            != RunSpec(
                "fib:9", "grid:5x5", "cwn", config=SimConfig(costs=CostModel.unit()), seed=1
            ).key()
        )

    def test_float_parameters_never_collapse_across_keys(self):
        # Sub-%g-precision parameters must keep distinct canonical specs
        # (and cache keys): repr fallback in the factories' fmt_num.
        from repro.core import make_strategy, spec_of
        from repro.core import GradientModel

        odd = GradientModel(low_water_mark=1, high_water_mark=2.0000001)
        assert make_strategy(spec_of(odd)).high_water_mark == 2.0000001
        k_odd = RunSpec("fib:9", "grid:5x5", spec_of(odd), seed=1).key()
        k_even = RunSpec("fib:9", "grid:5x5", "gm:lwm=1,hwm=2,interval=20", seed=1).key()
        assert k_odd != k_even

    def test_seed_override_folds_into_canonical_config(self):
        via_override = RunSpec("fib:9", "grid:5x5", "cwn", seed=5)
        via_config = RunSpec("fib:9", "grid:5x5", "cwn", config=SimConfig(seed=5))
        assert via_override.key() == via_config.key()

    def test_run_equals_simulate(self):
        spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        assert_results_equal(spec.run(), Scenario("fib:9", "grid:5x5", "cwn", seed=1).run())


# -- ResultCache -----------------------------------------------------------------

class TestResultCache:
    def test_miss_then_hit_round_trips_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        assert cache.get(spec) is None
        assert cache.misses == 1
        result = spec.run()
        cache.put(spec, result)
        cached = cache.get(spec)
        assert cached is not None
        assert cache.hits == 1
        assert_results_equal(cached, result)
        assert cached.speedup == result.speedup
        assert cached.mean_goal_distance == result.mean_goal_distance

    def test_alias_specs_share_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        cache.put(spec, spec.run())
        alias = RunSpec("fib:9", "grid:5x5", "cwn:radius=9,horizon=2", seed=1)
        assert cache.get(alias) is not None

    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        cache.put(spec, spec.run())
        path = cache.path_for(spec)
        path.write_text("{ not json at all")
        assert cache.get(spec) is None
        assert not path.exists(), "corrupt entry should be deleted"
        # And the cache heals: a fresh put serves hits again.
        cache.put(spec, spec.run())
        assert cache.get(spec) is not None

    def test_wrong_schema_or_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        cache.put(spec, spec.run())
        path = cache.path_for(spec)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_memo_serves_repeat_gets_without_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=1)
        cache.put(spec, spec.run())
        first = cache.get(spec)  # disk read populates the in-process memo
        cache.path_for(spec).unlink()  # memo is now the only copy
        second = cache.get(spec)
        assert second is not None
        assert_results_equal(first, second)
        assert cache.hits == 2
        # Revival builds fresh arrays each time: results never alias.
        assert first.busy_time is not second.busy_time
        # clear() drops the memo along with the entries.
        cache.clear()
        assert cache.get(spec) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in (1, 2, 3):
            spec = RunSpec("fib:9", "grid:5x5", "cwn", seed=seed)
            cache.put(spec, spec.run())
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultCache().root == tmp_path / "elsewhere"

    def test_result_serialization_is_exact(self):
        result = Scenario(
            "fib:9",
            "grid:5x5",
            "cwn",
            config=SimConfig(seed=1, sample_interval=50.0, sample_per_pe=True),
        ).run()
        revived = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert_results_equal(revived, result)
        assert len(revived.samples) == len(result.samples)
        assert revived.samples[0] == result.samples[0]


# -- the farm --------------------------------------------------------------------

SPECS = [
    RunSpec("fib:9", "grid:5x5", "cwn", seed=1),
    RunSpec("fib:9", "grid:5x5", "gm", seed=1),
    RunSpec("dc:1:55", "dlm:4x8x8", "cwn", seed=2),
    RunSpec("fib:8", "hypercube:4", "stealing", seed=3),
]


class TestRunMany:
    def test_parallel_results_equal_serial_exactly(self):
        serial = [Scenario(s.workload, s.topology, s.strategy, seed=s.seed).run() for s in SPECS]
        farmed = run_many(SPECS, jobs=2)
        for a, b in zip(farmed, serial):
            assert_results_equal(a, b)

    def test_jobs_one_is_in_process_and_identical(self):
        assert_results_equal(run_many(SPECS[:1], jobs=1)[0], SPECS[0].run())

    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_start_methods_identical_and_workers_join_telemetry(
        self, start_method, tmp_path, monkeypatch
    ):
        """Every start method gives bit-identical results, and workers
        join the telemetry stream — trivially under fork (the sink rides
        the fork), via ``warm_worker``'s ``init_from_env`` under
        spawn/forkserver (a spawned worker starts from a blank module).
        """
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        stream = tmp_path / "farm-telemetry.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(stream))
        serial = [spec.run() for spec in SPECS[:2]]  # no parent sink: silent
        farmed = run_many(SPECS[:2], jobs=2, start_method=start_method)
        for a, b in zip(farmed, serial):
            assert_results_equal(a, b)
        events = [json.loads(line) for line in stream.read_text().splitlines()]
        finishes = [e for e in events if e["ev"] == "run.finish"]
        assert len(finishes) == 2, "one run.finish per spec, from the workers"

    def test_unknown_start_method_is_rejected(self):
        with pytest.raises(ValueError, match="not available"):
            run_many(SPECS[:2], jobs=2, start_method="bogus")

    def test_order_is_preserved(self):
        farmed = run_many(SPECS, jobs=2)
        assert [r.workload for r in farmed] == ["fib(9)", "fib(9)", "dc(1,55)", "fib(8)"]
        assert [r.strategy for r in farmed] == ["cwn", "gm", "cwn", "stealing"]

    def test_failures_raise_with_worker_traceback(self):
        bad = RunSpec("fib:9", "grid:5x5", "no-such-strategy", seed=1)
        with pytest.raises(FarmError, match="no-such-strategy"):
            run_many([bad], jobs=2)

    def test_progress_callback_counts(self):
        seen = []
        run_many(SPECS[:2], jobs=1, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_on_result_streams_during_the_batch(self, tmp_path):
        # The resumability contract: results are handed to the parent as
        # they complete, one by one, not as a block after the batch —
        # so run_batch can persist progress an interrupt would keep.
        cache = ResultCache(tmp_path)
        entries_before_each = []

        def persist(i, res):
            entries_before_each.append(cache.stats().entries)
            cache.put(SPECS[i], res)

        run_many(SPECS, jobs=2, on_result=persist)
        assert entries_before_each == list(range(len(SPECS)))
        assert cache.stats().entries == len(SPECS)


class _WorkerKillerSpec(RunSpec):
    """A spec whose run SIGKILLs its worker — no exception, no result."""

    def run(self):
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeath:
    def test_killed_worker_fails_its_specs_instead_of_hanging(self):
        killer = _WorkerKillerSpec("fib:9", "grid:5x5", "cwn", seed=9)
        out = run_many([SPECS[0], killer, SPECS[1]], jobs=2, return_errors=True)
        from repro.parallel import RunFailure

        assert isinstance(out[1], RunFailure)
        assert "worker process died" in out[1].error
        # Neighbors either completed or were lost with the pool — but
        # every slot is accounted for; nothing blocks forever.
        assert all(r is not None for r in out)

    def test_run_batch_retries_recover_the_survivors(self, tmp_path):
        killer = _WorkerKillerSpec("fib:9", "grid:5x5", "cwn", seed=9)
        report = run_batch(
            [SPECS[0], killer, SPECS[1]],
            jobs=2,
            cache=ResultCache(tmp_path),
            retries=2,
            strict=False,
        )
        # The good specs land (on the first attempt or via retry with a
        # fresh pool); only the killer remains failed.
        assert report.results[0] is not None
        assert report.results[2] is not None
        assert report.results[1] is None
        assert len(report.failures) == 1


class TestBatchResume:
    def test_interrupted_batch_keeps_completed_runs(self, tmp_path):
        # Simulate an interrupt: a batch that dies after two completions.
        cache = ResultCache(tmp_path)

        class Interrupt(Exception):
            pass

        def die_after_two(done, total, source):
            if done == 2:
                raise Interrupt

        with pytest.raises(Interrupt):
            run_batch(SPECS, jobs=1, cache=cache, progress=die_after_two)
        survived = cache.stats().entries
        assert survived >= 2, "completed runs must be persisted before the batch ends"
        resume = run_batch(SPECS, jobs=1, cache=cache)
        assert resume.hits == survived
        assert resume.simulated == len(SPECS) - survived


class TestRunBatch:
    def test_warm_cache_means_zero_new_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_batch(SPECS, jobs=2, cache=cache)
        assert cold.hits == 0 and cold.simulated == len(SPECS)
        warm = run_batch(SPECS, jobs=2, cache=cache)
        assert warm.hits == len(SPECS)
        assert warm.simulated == 0, "second invocation must not simulate"
        for a, b in zip(warm.results, cold.results):
            assert_results_equal(a, b)

    def test_partial_cache_simulates_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch(SPECS[:2], jobs=1, cache=cache)
        report = run_batch(SPECS, jobs=1, cache=cache)
        assert report.hits == 2 and report.simulated == 2

    def test_use_cache_false_neither_reads_nor_writes(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch(SPECS[:1], jobs=1, cache=cache, use_cache=False)
        assert cache.stats().entries == 0

    def test_strict_false_reports_failures_in_place(self):
        bad = RunSpec("fib:9", "grid:5x5", "no-such-strategy", seed=1)
        report = run_batch([SPECS[0], bad], jobs=1, retries=0, strict=False)
        assert report.results[0] is not None
        assert report.results[1] is None
        assert len(report.failures) == 1
        assert "no-such-strategy" in report.failures[0].error


# -- wiring through the experiments layer ----------------------------------------

class TestExperimentWiring:
    GRID_KWARGS = dict(
        kind="both", pe_counts=(25,), fib_sizes=(7, 9), dc_sizes=(21,), seed=1
    )

    def test_table2_farmed_renders_identically(self, tmp_path):
        serial = run_comparison(**self.GRID_KWARGS)
        cache = ResultCache(tmp_path)
        farmed = run_comparison(**self.GRID_KWARGS, jobs=2, cache=cache)
        assert render_table2(farmed) == render_table2(serial)
        assert [c.ratio for c in farmed] == [c.ratio for c in serial]
        # ... and a warm rerun is pure cache.
        cache2 = ResultCache(tmp_path)
        rerun = run_comparison(**self.GRID_KWARGS, jobs=2, cache=cache2)
        assert cache2.hits == 2 * len(serial) and cache2.misses == 0
        assert render_table2(rerun) == render_table2(serial)

    def test_replicate_pair_farmed_matches_serial(self, tmp_path):
        from repro.experiments.replication import replicate_pair
        from repro.topology import Grid as GridT
        from repro.workload import Fibonacci as FibW

        serial = replicate_pair(FibW(9), GridT(5, 5), seeds=range(1, 4))
        farmed = replicate_pair(
            FibW(9), GridT(5, 5), seeds=range(1, 4), jobs=2,
            cache=ResultCache(tmp_path),
        )
        assert farmed.values == serial.values

    def test_paired_sweep_farmed_matches_serial(self, tmp_path):
        from repro.core import CWN, GradientModel
        from repro.experiments.sweep import PairedSweep

        def factory(radius):
            return CWN(radius=int(radius), horizon=1), GradientModel(), SimConfig()

        sweep = PairedSweep(
            Fibonacci(9), Grid(5, 5), factory, factor="radius",
            a_name="CWN", b_name="GM",
        )
        serial = sweep.run([2, 4], seeds=(1, 2))
        farmed = sweep.run([2, 4], seeds=(1, 2), jobs=2, cache=ResultCache(tmp_path))
        assert farmed == serial
