"""The simulation farm: scenario keys and task JSON, the
content-addressed cache, and the determinism guarantee (parallel ==
serial, bit for bit).
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
    FarmError,
    WorkerFleet,
    run_batch,
    run_many,
)
from repro.parallel.cache import result_from_dict, result_to_dict
from repro.parallel.pool import task_json
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


# -- the run key and the task JSON ----------------------------------------------

class TestRunKey:
    def test_json_round_trip_is_exact(self):
        spec = Scenario(
            "fib:9",
            "grid:5x5",
            "cwn",
            config=SimConfig(costs=CostModel.high_comm(), pe_speeds=(1.0, 2.0)),
            seed=3,
        )
        assert Scenario.from_dict(json.loads(task_json(spec))) == spec

    def test_build_from_objects_matches_spec_strings(self):
        from_objects = Scenario(Fibonacci(9), Grid(5, 5), paper_cwn("grid"), seed=1)
        from_strings = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        assert from_objects.content_hash() == from_strings.content_hash()

    def test_key_collapses_spelling_aliases(self):
        bare = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        explicit = Scenario("FIB:9", "grid:5x5", "cwn:radius=9,horizon=2", seed=1)
        assert bare.content_hash() == explicit.content_hash()

    def test_key_resolves_family_parameters(self):
        # "cwn" means different Table 1 parameters on grid vs DLM, so the
        # same bare name on different topologies must not share a key
        # beyond the topology difference itself: explicit DLM parameters
        # must equal bare "cwn" on a DLM.
        bare = Scenario("fib:9", "dlm:4x8x8", "cwn", seed=1)
        explicit = Scenario("fib:9", "dlm:4x8x8", "cwn:radius=5,horizon=1", seed=1)
        assert bare.content_hash() == explicit.content_hash()

    def test_key_is_stable_across_calls_and_sensitive_to_inputs(self):
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        assert spec.content_hash() == spec.content_hash()
        assert spec.content_hash() != Scenario("fib:9", "grid:5x5", "cwn", seed=2).content_hash()
        assert spec.content_hash() != Scenario("fib:10", "grid:5x5", "cwn", seed=1).content_hash()
        assert (
            spec.content_hash()
            != Scenario(
                "fib:9", "grid:5x5", "cwn", config=SimConfig(costs=CostModel.unit()), seed=1
            ).content_hash()
        )

    def test_float_parameters_never_collapse_across_keys(self):
        # Sub-%g-precision parameters must keep distinct canonical specs
        # (and cache keys): repr fallback in the factories' fmt_num.
        from repro.core import make_strategy, spec_of
        from repro.core import GradientModel

        odd = GradientModel(low_water_mark=1, high_water_mark=2.0000001)
        assert make_strategy(spec_of(odd)).high_water_mark == 2.0000001
        k_odd = Scenario("fib:9", "grid:5x5", spec_of(odd), seed=1).content_hash()
        k_even = Scenario("fib:9", "grid:5x5", "gm:lwm=1,hwm=2,interval=20", seed=1).content_hash()
        assert k_odd != k_even

    def test_seed_override_folds_into_canonical_config(self):
        via_override = Scenario("fib:9", "grid:5x5", "cwn", seed=5)
        via_config = Scenario("fib:9", "grid:5x5", "cwn", config=SimConfig(seed=5))
        assert via_override.content_hash() == via_config.content_hash()

    def test_run_equals_simulate(self):
        # A worker runs the scenario it revives from the task JSON.
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        revived = Scenario.from_dict(json.loads(task_json(spec)))
        assert_results_equal(revived.run(), spec.run())


# -- ResultCache -----------------------------------------------------------------

class TestResultCache:
    def test_miss_then_hit_round_trips_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
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
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        cache.put(spec, spec.run())
        alias = Scenario("fib:9", "grid:5x5", "cwn:radius=9,horizon=2", seed=1)
        assert cache.get(alias) is not None

    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        cache.put(spec, spec.run())
        path = cache.path_for(spec)
        path.write_text("{ not json at all")
        assert cache.get(spec) is None
        assert not path.exists(), "corrupt entry should be deleted"
        # And the cache heals: a fresh put serves hits again.
        cache.put(spec, spec.run())
        assert cache.get(spec) is not None

    def test_truncated_entry_is_reported_corrupt_and_deleted(self, tmp_path):
        from repro.obs import telemetry

        cache = ResultCache(tmp_path / "cache")
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        path = cache.put(spec, spec.run())
        path.write_text(path.read_text()[:40])
        stream = tmp_path / "stream.jsonl"
        with telemetry.capture(stream):
            assert cache.get(spec) is None
        events = list(telemetry.read_events(stream))
        assert [e.get("corrupt") for e in events if e["ev"] == "cache.miss"] == [True]
        assert not [e for e in events if e["ev"] == "cache.error"]
        assert not path.exists()

    def test_unusable_root_is_a_plain_miss(self, tmp_path, monkeypatch):
        # A cache root beneath a regular file cannot be read: every lookup
        # is a miss with a cache.error, never a "corrupt" entry to unlink.
        # get() deletes through os.unlink (as Path.unlink does too).
        import os

        from repro.obs import telemetry

        blocker = tmp_path / "a-file"
        blocker.write_text("")
        cache = ResultCache(blocker / "cache")
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        unlinked = []
        monkeypatch.setattr(os, "unlink", lambda path, *args, **kwargs: unlinked.append(path))
        stream = tmp_path / "stream.jsonl"
        with telemetry.capture(stream):
            assert cache.get(spec) is None
            assert cache.get(spec) is None
        monkeypatch.undo()
        events = list(telemetry.read_events(stream))
        misses = [e for e in events if e["ev"] == "cache.miss"]
        errors = [e for e in events if e["ev"] == "cache.error"]
        assert len(misses) == 2 and not any(e.get("corrupt") for e in misses)
        assert [e["key"] for e in errors] == [spec.content_hash()[:12]] * 2
        assert all("Not a directory" in e["error"] for e in errors)
        assert cache.misses == 2 and unlinked == []

    def test_wrong_schema_or_key_is_a_miss(self, tmp_path):
        # Each defect makes a corrupt entry: a miss that deletes it, and
        # the next put heals the address.
        from repro.obs import telemetry
        from repro.parallel.cache import CACHE_SCHEMA

        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        key = spec.content_hash()
        result = spec.run()
        written = ResultCache(tmp_path / "whole").put(spec, result).read_text()
        header, body, hashed = written.split("\n")
        short = json.loads(body)
        del short["completion_time"]
        defects = {
            "schema": [header.replace(f'"schema":{CACHE_SCHEMA},', '"schema":999,'), body, hashed],
            "key": [header.replace(key, "0" * 64), body, hashed],
            "result-field": [header, json.dumps(short), hashed],
            "truncated-result": [header, body[: len(body) // 2]],
            "header-only": [header, ""],
        }
        for name, lines in defects.items():
            cache = ResultCache(tmp_path / name)
            path = cache.put(spec, result)
            assert "\n".join(lines) != written, name
            path.write_text("\n".join(lines))
            stream = tmp_path / f"{name}.jsonl"
            with telemetry.capture(stream):
                assert cache.get(spec) is None, name
            misses = [e for e in telemetry.read_events(stream) if e["ev"] == "cache.miss"]
            assert [e.get("corrupt") for e in misses] == [True], name
            assert cache.misses == 1 and not path.exists(), name
            cache.put(spec, result)
            assert_results_equal(cache.get(spec), result)

    def test_entry_is_header_result_and_hashed_text(self, tmp_path, capsys):
        import hashlib

        from repro.cli import main
        from repro.parallel.cache import CACHE_SCHEMA, result_json

        text = "fib:9 @ grid:5x5 / cwn?seed=1"
        spec = Scenario.from_spec(text)
        key = spec.content_hash()
        result = spec.run()
        path = ResultCache(tmp_path).put(spec, result)
        header, body, hashed = path.read_bytes().split(b"\n")
        assert header == b'{"schema":%d,"key":"%s"}' % (CACHE_SCHEMA, key.encode())
        # The result line is `repro run --json`'s stdout for the same spec.
        assert body.decode() == result_json(result)
        assert main(["run", text, "--json", "--no-cache"]) == 0
        assert capsys.readouterr().out == body.decode() + "\n"
        assert hashed.decode() == spec.canonical_json()
        assert hashlib.sha256(hashed).hexdigest() == key == path.stem
        # A result's dict form (a fleet worker's payload) writes the same bytes.
        as_dict = ResultCache(tmp_path / "dict").put(spec, result_to_dict(result))
        assert as_dict.read_bytes() == path.read_bytes()

    def test_hit_never_parses_the_hashed_text(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        result = spec.run()
        path = cache.put(spec, result)
        header, body, _ = path.read_text().split("\n")
        path.write_text(f"{header}\n{body}\n{{ not json")
        assert_results_equal(cache.get(spec), result)
        assert (cache.hits, cache.misses) == (1, 0) and path.exists()

    def test_stats_and_clear_see_other_schemas(self, tmp_path):
        # An entry another schema wrote is never read, but stats counts
        # it and clear removes it with its directories; nothing else
        # under the root is touched.
        from repro.parallel.cache import CACHE_SCHEMA

        cache = ResultCache(tmp_path)
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        cache.put(spec, spec.run())
        key = spec.content_hash()
        stale = tmp_path / "v3" / key[:2] / f"{key}.json"
        stale.parent.mkdir(parents=True)
        stale.write_text('{"schema":3}')
        (stale.parent / ".tmp-orphan.json").write_text("")
        keep = [tmp_path / "notes.txt", tmp_path / "v3x" / "ab" / "x.json"]
        for path in keep:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("mine")
        stats = cache.stats()
        assert (stats.entries, stats.other_entries, stats.other_bytes) == (1, 1, 12)
        assert "other schemas: 1 entries" in str(stats)
        assert cache.get(spec) is not None
        assert cache.clear() == 2
        assert not (tmp_path / "v3").exists()
        assert not (tmp_path / f"v{CACHE_SCHEMA}").exists()
        assert all(path.read_text() == "mine" for path in keep)
        stats = cache.stats()
        assert (stats.entries, stats.other_entries) == (0, 0)
        assert "other schemas" not in str(stats)

    def test_str_and_relative_roots_address_the_same_entries(self, tmp_path, monkeypatch):
        from pathlib import Path

        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
        other = Scenario("fib:9", "grid:5x5", "cwn", seed=2)
        result = spec.run()
        relative = ResultCache("cache")  # resolved at each use, not here
        monkeypatch.chdir(tmp_path)
        as_path = ResultCache(tmp_path / "cache")
        as_str = ResultCache(str(tmp_path / "cache"))
        written = relative.put(spec, result)
        assert isinstance(written, Path) and isinstance(as_str.path_for(spec), Path)
        assert tmp_path / written == as_path.path_for(spec) == as_str.path_for(spec)
        for cache in (as_path, as_str, relative):
            assert_results_equal(cache.get(spec), result)
        as_str.put(other, other.run())
        assert relative.get(other) is not None and as_path.get(other) is not None
        assert as_path.stats().entries == 2

    def test_memo_stays_at_its_bound_under_concurrent_inserts(self, tmp_path, wall_clock_guard):
        # More threads than cores, switching every microsecond, each
        # inserting its own keys.  A trim that loses a race stops early,
        # so the memo may end up to one entry per thread off its bound,
        # and the next insert trims it back.
        import sys
        import threading

        from repro.parallel.cache import _MEMO_CAPACITY

        wall_clock_guard(60)
        cache = ResultCache(tmp_path)
        threads, per_thread = 4, 8000

        def fill(tid: int) -> None:
            for i in range(per_thread):
                cache._memoize(f"{tid}-{i}", {})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fill, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert abs(len(cache._memo) - _MEMO_CAPACITY) <= threads
        cache._memoize("one-more", {})
        assert _MEMO_CAPACITY - threads <= len(cache._memo) <= _MEMO_CAPACITY

    def test_memo_serves_repeat_gets_without_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = Scenario("fib:9", "grid:5x5", "cwn", seed=1)
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
            spec = Scenario("fib:9", "grid:5x5", "cwn", seed=seed)
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
    Scenario("fib:9", "grid:5x5", "cwn", seed=1),
    Scenario("fib:9", "grid:5x5", "gm", seed=1),
    Scenario("dc:1:55", "dlm:4x8x8", "cwn", seed=2),
    Scenario("fib:8", "hypercube:4", "stealing", seed=3),
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
        the fork), via the worker's ``init_from_env`` at birth under
        spawn/forkserver (a spawned worker starts from a blank module).
        """
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        stream = tmp_path / "farm-telemetry.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(stream))
        serial = [spec.run() for spec in SPECS[:2]]  # no parent sink: silent
        with WorkerFleet(workers=2, start_method=start_method) as fleet:
            for task_id, spec in enumerate(SPECS[:2]):
                fleet.submit(task_id, task_id, task_json(spec))
            answers = [fleet.next_result(timeout=60) for _ in SPECS[:2]]
        farmed = {task_id: result_from_dict(payload) for task_id, _, _, payload in answers}
        for task_id, b in enumerate(serial):
            assert_results_equal(farmed[task_id], b)
        events = [json.loads(line) for line in stream.read_text().splitlines()]
        finishes = [e for e in events if e["ev"] == "run.finish"]
        assert len(finishes) == 2, "one run.finish per spec, from the workers"

    def test_unknown_start_method_is_rejected(self):
        with pytest.raises(ValueError, match="not available"):
            WorkerFleet(workers=2, start_method="bogus")

    def test_order_is_preserved(self):
        farmed = run_many(SPECS, jobs=2)
        assert [r.workload for r in farmed] == ["fib(9)", "fib(9)", "dc(1,55)", "fib(8)"]
        assert [r.strategy for r in farmed] == ["cwn", "gm", "cwn", "stealing"]

    def test_failures_raise_with_worker_traceback(self):
        bad = Scenario("fib:9", "grid:5x5", "no-such-strategy", seed=1)
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


#: the seed of the one spec whose run SIGKILLs its worker
KILL_SEED = 9


@pytest.fixture
def killer(kill_in_child, wall_clock_guard):
    """A spec whose run SIGKILLs its worker — no exception, no result."""
    wall_clock_guard(120)
    kill_in_child(Scenario, "run", lambda spec: spec.seed == KILL_SEED)
    return Scenario("fib:9", "grid:5x5", "cwn", seed=KILL_SEED)


class TestWorkerDeath:
    def test_killed_worker_fails_its_specs_instead_of_hanging(self, killer):
        out = run_many([SPECS[0], killer, SPECS[1]], jobs=2, return_errors=True)
        from repro.parallel import RunFailure

        assert isinstance(out[1], RunFailure)
        assert "worker process died" in out[1].error
        # Every slot is accounted for; nothing blocks forever.
        assert all(r is not None for r in out)

    def test_batch_mates_of_a_killed_worker_complete(self, killer):
        # The fleet fails only the spec a worker died on; the respawned
        # worker runs the rest of its queue.
        batch = SPECS[:2] + [killer] + SPECS[2:]
        out = run_many(batch, jobs=2, return_errors=True)
        assert "worker process died" in out[2].error
        for got, spec in zip(out[:2] + out[3:], SPECS):
            assert_results_equal(got, spec.run())

    def test_run_batch_retries_recover_the_survivors(self, killer, tmp_path):
        report = run_batch(
            [SPECS[0], killer, SPECS[1]],
            jobs=2,
            cache=ResultCache(tmp_path),
            retries=2,
            strict=False,
        )
        # The good specs land; only the killer remains failed.
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_moves_as_each_result_lands(self, tmp_path, jobs):
        # The k-th "sim" report comes right after the k-th result is
        # persisted, not in one block after the whole farm returns.
        cache = ResultCache(tmp_path)
        seen = []

        def progress(done, _total, source):
            seen.append((done, source, cache.stats().entries))

        run_batch(SPECS, jobs=jobs, cache=cache, progress=progress)
        assert seen == [(k, "sim", k) for k in range(1, len(SPECS) + 1)]

    def test_use_cache_false_neither_reads_nor_writes(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch(SPECS[:1], jobs=1, cache=cache, use_cache=False)
        assert cache.stats().entries == 0

    def test_strict_false_reports_failures_in_place(self):
        bad = Scenario("fib:9", "grid:5x5", "no-such-strategy", seed=1)
        report = run_batch([SPECS[0], bad], jobs=1, retries=0, strict=False)
        assert report.results[0] is not None
        assert report.results[1] is None
        assert len(report.failures) == 1
        assert "no-such-strategy" in report.failures[0].error


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cache_write_keeps_the_result(self, tmp_path, jobs):
        import errno

        from repro.obs import telemetry

        class FullDisk(ResultCache):
            def put(self, scenario, result):
                raise OSError(errno.ENOSPC, "No space left on device")

        stream = tmp_path / "stream.jsonl"
        with telemetry.capture(stream):
            report = run_batch(SPECS, jobs=jobs, cache=FullDisk(tmp_path / "cache"))
        assert report.simulated == len(SPECS)
        for got, spec in zip(report.results, SPECS):
            assert_results_equal(got, spec.run())
        errors = [e for e in telemetry.read_events(stream) if e["ev"] == "cache.error"]
        assert sorted(e["key"] for e in errors) == sorted(s.content_hash()[:12] for s in SPECS)
        assert all("No space left" in e["error"] for e in errors)

    def test_unspellable_runs_run_locally_after_the_farm(self, tmp_path):
        from repro.core import CWN
        from repro.obs import telemetry

        odd = Scenario(Fibonacci(7), Grid(4, 4), CWN(radius=3, horizon=1, tie_break="lowest"), seed=1)
        runs = [odd, Scenario("fib:7", "grid:4x4", "gm", seed=1)]
        cache = ResultCache(tmp_path / "cache")
        sources = []
        stream = tmp_path / "stream.jsonl"
        with telemetry.capture(stream):
            report = run_batch(
                runs, jobs=2, cache=cache, progress=lambda _d, _t, source: sources.append(source)
            )
        for got, run in zip(report.results, runs):
            assert_results_equal(got, run.run())
        assert cache.stats().entries == 1, "an unspellable run is never cached"
        assert sources == ["sim", "local"]
        assert (report.local, report.executed) == (1, 2)
        starts = [e for e in telemetry.read_events(stream) if e["ev"] == "batch.start"]
        assert [e["total"] for e in starts] == [2]
        finish = [e for e in telemetry.read_events(stream) if e["ev"] == "batch.finish"]
        assert finish[0]["local"] == 1
        rerun = run_batch(runs, jobs=2, cache=cache)
        assert (rerun.hits, rerun.local, rerun.simulated) == (1, 1, 0)


def test_perfbench_runspec_calls(tmp_path, wall_clock_guard):
    """The calls ``perfbench/`` makes through the ``RunSpec`` alias.

    Its sweep feeds ``RunSpec.from_scenario(Scenario.from_spec(s))`` to
    ``run_batch``, and its serve tracer keys each task by
    ``RunSpec.from_json(spec_json).key()`` over the text the service
    hands to ``WorkerFleet.submit``.  It builds the service with the
    ignored ``window``/``max_batch`` keywords and reads ``stats.batches``.
    """
    import asyncio

    from repro.parallel.spec import RunSpec
    from repro.serve import ScenarioService, make_policy

    wall_clock_guard(120)
    sweep = ["fib:8 @ grid:2x2 / cwn?seed=1", "fib:8 @ grid:2x2 / gm?seed=1", "fib:9 @ grid:4x4 / cwn?seed=2"]
    cold = run_batch(
        [RunSpec.from_scenario(Scenario.from_spec(s)) for s in sweep],
        jobs=2,
        cache=ResultCache(tmp_path / "sweep"),
    )
    assert (cold.hits, cold.simulated) == (0, len(sweep))
    warm = run_batch(
        [RunSpec.from_scenario(Scenario.from_spec(s)) for s in sweep],
        jobs=2,
        cache=ResultCache(tmp_path / "sweep"),
    )
    assert (warm.hits, warm.simulated) == (len(sweep), 0)
    for spec, got in zip(sweep, warm.results):
        assert_results_equal(got, Scenario.from_spec(spec).run())

    sent = []

    async def serve():
        fleet = WorkerFleet(workers=1)
        submit = fleet.submit

        def record(worker, task_id, spec_json):
            submit(worker, task_id, spec_json)
            sent.append(spec_json)

        fleet.submit = record
        service = ScenarioService(
            fleet,
            make_policy("central", 1),
            cache=ResultCache(tmp_path / "serve"),
            window=0.01,
            max_batch=16,
            high_water=1024,
        )
        await service.start()
        try:
            return await service.submit(sweep[2]), service.stats
        finally:
            await service.stop()

    answer, stats = asyncio.run(serve())
    assert answer.source == "computed" and len(sent) == 1
    assert stats.batches == stats.dispatched == 1
    assert RunSpec.from_json(sent[0]).key() == Scenario.from_spec(sweep[2]).content_hash() == answer.key


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
