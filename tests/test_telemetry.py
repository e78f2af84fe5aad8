"""The telemetry layer: JSONL schema, no-op guarantees, instrumentation.

Covers the ISSUE-6 contract: events round-trip through the JSONL
schema, the disabled path is a true no-op (shared NullCounter identity,
no sink), and the instrumented layers — machine run lifecycle, tick
sampler, result cache, batch orchestrator, plan engine — all publish
the documented events when (and only when) a sink is configured.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import telemetry
from repro.obs.telemetry import (
    NULL_COUNTER,
    TELEMETRY_SCHEMA,
    NullCounter,
    Telemetry,
    read_events,
)


class TestTelemetryCore:
    def test_emit_writes_schema_versioned_jsonl(self):
        buf = io.StringIO()
        sink = Telemetry(buf, clock=lambda: 123.5)
        sink.emit("unit.test", answer=42, name="x")
        line = buf.getvalue().strip()
        record = json.loads(line)
        assert record == {
            "v": TELEMETRY_SCHEMA,
            "ev": "unit.test",
            "wall": 123.5,
            "answer": 42,
            "name": "x",
        }

    def test_round_trip_through_read_events(self):
        buf = io.StringIO()
        sink = Telemetry(buf)
        sink.emit("a", x=1)
        sink.emit("b", y=[1.5, 2.5], z=None)
        events = read_events(buf)
        assert [e["ev"] for e in events] == ["a", "b"]
        assert events[1]["y"] == [1.5, 2.5]
        assert events[1]["z"] is None
        assert all(e["v"] == TELEMETRY_SCHEMA for e in events)

    def test_read_events_skips_partial_and_garbage_lines(self, tmp_path):
        stream = tmp_path / "t.jsonl"
        stream.write_text(
            '{"v":1,"ev":"ok","wall":0}\n'
            "not json at all\n"
            '{"v":1,"ev":"also-ok","wall":1}\n'
            '{"v":1,"ev":"truncat'  # no newline: a writer mid-record
        )
        events = read_events(stream)
        assert [e["ev"] for e in events] == ["ok", "also-ok"]

    def test_file_destination_appends(self, tmp_path):
        stream = tmp_path / "t.jsonl"
        for i in range(2):
            sink = Telemetry(stream)
            sink.emit("run", i=i)
            sink.close()
        assert [e["i"] for e in read_events(stream)] == [0, 1]

    def test_counters_flush_as_one_event(self):
        buf = io.StringIO()
        sink = Telemetry(buf)
        sink.counter("hits").add()
        sink.counter("hits").add(2)
        sink.counter("misses").add()
        sink.flush_counters()
        (event,) = read_events(buf)
        assert event["ev"] == "counters"
        assert event["values"] == {"hits": 3, "misses": 1}

    def test_counter_instances_are_per_name(self):
        sink = Telemetry(io.StringIO())
        assert sink.counter("a") is sink.counter("a")
        assert sink.counter("a") is not sink.counter("b")

    def test_timer_emits_elapsed_seconds(self):
        buf = io.StringIO()
        sink = Telemetry(buf)
        with sink.timer("phase", label="x"):
            pass
        (event,) = read_events(buf)
        assert event["ev"] == "timer"
        assert event["name"] == "phase"
        assert event["label"] == "x"
        assert event["seconds"] >= 0.0

    def test_write_failure_degrades_to_silence(self):
        class Boom:
            def write(self, _):
                raise OSError("disk full")

        sink = Telemetry(Boom())
        sink.emit("a")  # must not raise
        sink.emit("b")
        assert sink._broken


class TestDisabledNoOp:
    def test_disabled_counter_is_the_shared_singleton(self):
        # The hot-path contract: with no sink configured, every counter
        # request returns the one NULL_COUNTER instance — identity, not
        # equality — so disabled telemetry allocates nothing.
        assert telemetry.sink() is None
        assert telemetry.counter("anything") is NULL_COUNTER
        assert telemetry.counter("other") is NULL_COUNTER
        assert isinstance(NULL_COUNTER, NullCounter)

    def test_null_counter_swallows_increments(self):
        NULL_COUNTER.add()
        NULL_COUNTER.add(10)
        assert NULL_COUNTER.value == 0

    def test_module_emit_is_noop_when_disabled(self):
        assert not telemetry.enabled()
        telemetry.emit("ignored", x=1)  # must not raise, must not configure

    def test_capture_restores_previous_sink(self):
        assert telemetry.sink() is None
        with telemetry.capture() as sink:
            assert telemetry.sink() is sink
            assert telemetry.enabled()
            assert telemetry.counter("x") is sink.counter("x")
            assert telemetry.counter("x") is not NULL_COUNTER
        assert telemetry.sink() is None

    def test_init_from_env_respects_existing_sink(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "env.jsonl"))
        with telemetry.capture() as sink:
            assert telemetry.init_from_env() is sink  # idempotent
        configured = telemetry.init_from_env()
        try:
            assert configured is not None
            assert configured.path == tmp_path / "env.jsonl"
        finally:
            telemetry.configure(None)

    def test_init_from_env_without_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry.init_from_env() is None


class TestInstrumentation:
    def _run(self, **cfg_kwargs):
        from repro.oracle.config import SimConfig
        from repro.scenario import Scenario

        return Scenario("fib:9", "grid:4x4", "cwn", SimConfig(seed=1, **cfg_kwargs)).run()

    def test_machine_emits_run_lifecycle(self):
        with telemetry.capture() as sink:
            self._run()
            events = read_events(sink._fh)
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "run.start"
        assert kinds[-1] == "run.finish"
        start, finish = events[0], events[-1]
        assert start["topology"] == "grid 4x4"
        assert start["n_pes"] == 16
        assert start["cols"] == 4
        assert finish["events"] > 0
        assert finish["events_per_s"] > 0
        assert 0.0 <= finish["utilization"] <= 1.0

    def test_sampler_emits_per_pe_frames(self):
        with telemetry.capture() as sink:
            result = self._run(sample_interval=50.0, sample_per_pe=True)
            events = read_events(sink._fh)
        samples = [e for e in events if e["ev"] == "sample"]
        assert len(samples) == len(result.samples)
        assert all(len(s["per_pe"]) == 16 for s in samples)
        assert all("queue_depth" in s for s in samples)
        # The emitted frames are the recorded samples, element for element.
        for emitted, recorded in zip(samples, result.samples):
            assert emitted["per_pe"] == pytest.approx(list(recorded.per_pe))
            assert emitted["utilization"] == pytest.approx(recorded.utilization)

    def test_runs_without_sink_emit_nothing_and_agree(self):
        # Same simulation with and without telemetry: bit-identical
        # results (observation must not perturb the experiment).
        with telemetry.capture() as sink:
            instrumented = self._run(sample_interval=50.0, sample_per_pe=True)
            n_events = len(read_events(sink._fh))
        plain = self._run(sample_interval=50.0, sample_per_pe=True)
        assert n_events > 0
        assert plain.completion_time == instrumented.completion_time
        assert plain.events_executed == instrumented.events_executed
        assert plain.samples == instrumented.samples

    def test_cache_emits_hits_and_misses(self, tmp_path):
        from repro.parallel import ResultCache
        from repro.scenario import Scenario

        spec = Scenario("fib:9", "grid:4x4", "cwn", seed=1)
        cache = ResultCache(tmp_path / "cache")
        with telemetry.capture() as sink:
            assert cache.get(spec) is None
            cache.put(spec, spec.run())
            assert cache.get(spec) is not None
            events = read_events(sink._fh)
        cache_events = [e["ev"] for e in events if e["ev"].startswith("cache.")]
        assert cache_events == ["cache.miss", "cache.hit"]

    def test_batch_and_plan_events(self, tmp_path):
        from repro.experiments.plan import ExperimentPlan, execute
        from repro.parallel import ResultCache
        from repro.scenario import Scenario

        plan = ExperimentPlan(
            "obs-test",
            [Scenario("fib:9", "grid:4x4", "cwn", seed=s) for s in (1, 2)],
            lambda results, _meta: list(results),
        )
        cache = ResultCache(tmp_path / "cache")
        with telemetry.capture() as sink:
            execute(plan, cache=cache)
            execute(plan, cache=cache)  # warm: all hits
            events = read_events(sink._fh)
        kinds = [e["ev"] for e in events]
        assert kinds.count("batch.start") == 2
        assert kinds.count("batch.finish") == 2
        assert kinds.count("plan.report") == 2
        finishes = [e for e in events if e["ev"] == "batch.finish"]
        assert finishes[0]["simulated"] == 2
        assert finishes[1]["hits"] == 2
        reports = [e for e in events if e["ev"] == "plan.report"]
        assert reports[0]["plan"] == "obs-test"
        assert reports[1]["hits"] == 2
        progress = [e for e in events if e["ev"] == "batch.progress"]
        assert [p["done"] for p in progress] == [1, 2, 1, 2]
