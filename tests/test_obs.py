"""``repro bench`` and ``repro watch``: the perf trajectory and dashboard.

The fast tests drive the compare logic and the watch aggregation off
synthetic metrics/streams; one slow test runs the real quick bench end
to end and checks the BENCH_6.json acceptance contract.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import bench, telemetry, watch
from repro.obs.bench import (
    BENCH_NUMBER,
    BENCH_SCHEMA,
    Metric,
    compare_metrics,
    load_bench,
    write_bench,
)
from repro.obs.watch import WatchState


def _metrics(**overrides) -> dict[str, Metric]:
    base = {
        "kernel_events_per_s": Metric(300_000.0, "events/s"),
        "grid64x64_construct_ms": Metric(15.0, "ms", higher_is_better=False),
        "warm_cache_hit_rate": Metric(1.0, "fraction"),
    }
    base.update(overrides)
    return base


class TestBenchArtifact:
    def test_write_then_load_round_trips(self, tmp_path):
        path = write_bench(_metrics(), tmp_path / "BENCH_X.json", quick=True)
        payload = json.loads(path.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["bench"] == BENCH_NUMBER
        assert payload["quick"] is True
        loaded = load_bench(path)
        assert loaded == _metrics()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "metrics": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)

    def test_default_path_is_numbered(self, tmp_path):
        assert bench.default_bench_path(tmp_path).name == f"BENCH_{BENCH_NUMBER}.json"


class TestCompare:
    def test_identical_metrics_pass(self):
        assert compare_metrics(_metrics(), _metrics()) == []

    def test_throughput_regression_beyond_tolerance_fails(self):
        current = _metrics(kernel_events_per_s=Metric(100_000.0, "events/s"))
        regressions = compare_metrics(current, _metrics(), tolerance=2.0)
        assert len(regressions) == 1
        assert "kernel_events_per_s" in regressions[0]
        assert "3.00x" in regressions[0]

    def test_throughput_regression_within_tolerance_passes(self):
        current = _metrics(kernel_events_per_s=Metric(160_000.0, "events/s"))
        assert compare_metrics(current, _metrics(), tolerance=2.0) == []

    def test_latency_metric_fails_on_increase_not_decrease(self):
        slower = _metrics(grid64x64_construct_ms=Metric(45.0, "ms", False))
        faster = _metrics(grid64x64_construct_ms=Metric(5.0, "ms", False))
        assert len(compare_metrics(slower, _metrics(), tolerance=2.0)) == 1
        assert compare_metrics(faster, _metrics(), tolerance=2.0) == []

    def test_improvements_never_fail(self):
        current = _metrics(kernel_events_per_s=Metric(900_000.0, "events/s"))
        assert compare_metrics(current, _metrics(), tolerance=1.0) == []

    def test_new_and_missing_metrics_are_ignored(self):
        current = _metrics()
        current["brand_new_bench"] = Metric(1.0, "x")
        baseline = _metrics()
        del baseline["warm_cache_hit_rate"]
        baseline["retired_bench"] = Metric(5.0, "x")
        assert compare_metrics(current, baseline) == []

    def test_tolerance_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            compare_metrics(_metrics(), _metrics(), tolerance=0.5)


class TestBenchCli:
    @pytest.fixture
    def fake_benches(self, monkeypatch):
        """CLI-path tests must not spend seconds on real benches."""
        monkeypatch.setattr(bench, "run_benches", lambda quick=False: _metrics())

    def test_bench_writes_and_passes_against_itself(self, tmp_path, fake_benches, capsys):
        out = tmp_path / "BENCH_A.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        assert out.exists()
        assert main(
            ["bench", "--quick", "--out", str(out), "--compare", str(out)]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_failure_exits_nonzero(
        self, tmp_path, fake_benches, monkeypatch, capsys
    ):
        baseline = tmp_path / "BENCH_prev.json"
        write_bench(
            _metrics(kernel_events_per_s=Metric(10_000_000.0, "events/s")), baseline
        )
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "bench", "--quick",
                    "--out", str(tmp_path / "BENCH_new.json"),
                    "--compare", str(baseline),
                ]
            )
        assert excinfo.value.code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_bench_json_output(self, tmp_path, fake_benches, capsys):
        assert main(["bench", "--out", str(tmp_path / "b.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel_events_per_s"]["value"] == 300_000.0

    def test_compare_baseline_loaded_before_out_overwrites_it(
        self, tmp_path, fake_benches, capsys
    ):
        # CI's idiom: --out and --compare name the same committed file.
        # The baseline must be read before the fresh point lands on it.
        target = tmp_path / "BENCH_N.json"
        write_bench(
            _metrics(kernel_events_per_s=Metric(10_000_000.0, "events/s")), target
        )
        with pytest.raises(SystemExit):
            main(["bench", "--out", str(target), "--compare", str(target)])
        # The artifact was still refreshed with the new (regressed) point.
        assert load_bench(target)["kernel_events_per_s"].value == 300_000.0


@pytest.mark.slow
def test_real_quick_bench_meets_acceptance(tmp_path):
    """ISSUE 6 acceptance: the real harness writes kernel events/s,
    construction ms, and farm throughput/hit-rate metrics."""
    metrics = bench.run_benches(quick=True)
    for required in (
        "kernel_events_per_s",
        "calendar_events_per_s",
        "grid64x64_construct_ms",
        "hypercube12_construct_ms",
        "farm_runs_per_s",
        "warm_cache_hit_rate",
        "serve_cold_requests_per_s",
        "serve_warm_dedup_requests_per_s",
        "serve_replay_p50_ms",
        "serve_replay_p99_ms",
    ):
        assert required in metrics, f"{required} missing from bench output"
        assert metrics[required].value > 0
    assert metrics["warm_cache_hit_rate"].value == 1.0
    path = write_bench(metrics, tmp_path / "BENCH_real.json", quick=True)
    assert load_bench(path) == metrics
    # And a fresh identical run compares clean against it at CI tolerance.
    assert compare_metrics(metrics, load_bench(path), tolerance=10.0) == []


# ---------------------------------------------------------------------------
# watch
# ---------------------------------------------------------------------------

def _recorded_stream(tmp_path, per_pe=True):
    """A small telemetry stream recorded from a real cached run."""
    from repro.oracle.config import SimConfig
    from repro.parallel import ResultCache
    from repro.parallel.orchestrator import run_batch
    from repro.scenario import Scenario

    stream = tmp_path / "stream.jsonl"
    spec = Scenario(
        "fib:10",
        "grid:4x4",
        "cwn",
        config=SimConfig(sample_interval=50.0, sample_per_pe=per_pe),
        seed=1,
    )
    cache = ResultCache(tmp_path / "cache")
    with telemetry.capture(stream):
        run_batch([spec], cache=cache)
        run_batch([spec], cache=cache)  # warm rerun: a cache hit
    return stream


class TestWatchState:
    def test_feed_aggregates_farm_and_run_events(self, tmp_path):
        stream = _recorded_stream(tmp_path)
        state = WatchState()
        for event in telemetry.read_events(stream):
            state.feed(event)
        assert state.runs_total == 2
        assert state.runs_done == 2
        assert state.simulated == 1
        assert state.cache_hits == 1
        assert state.cache_misses == 1
        assert state.finished_runs == 1
        assert state.events_per_s > 0
        assert state.last_sample is not None
        assert len(state.last_sample["per_pe"]) == 16

    def test_render_contains_all_panels_and_heat_frame(self, tmp_path):
        stream = _recorded_stream(tmp_path)
        state = WatchState()
        for event in telemetry.read_events(stream):
            state.feed(event)
        text = state.render()
        assert "runs       : 2 done / 2 planned" in text
        assert "cache      : 1 hits / 1 misses" in text
        assert "throughput :" in text
        assert "events/s" in text
        assert "fib(10) @ grid 4x4 / cwn (16 PEs)" in text
        assert "PE heat (4x4, 16 PEs):" in text
        # The frame itself: 4 ramp rows after the heat header.
        frame = text.split("PE heat (4x4, 16 PEs):\n", 1)[1]
        assert len(frame.splitlines()) == 4

    def test_render_without_events(self):
        assert "(no telemetry events yet)" in WatchState().render()

    def test_feed_line_tolerates_garbage(self):
        state = WatchState()
        state.feed_line("definitely not json\n")
        state.feed_line('{"v":1,"ev":"cache.hit","wall":0}\n')
        assert state.cache_hits == 1

    def test_status_line_compact_mode(self, tmp_path):
        stream = _recorded_stream(tmp_path)
        state = WatchState()
        for event in telemetry.read_events(stream):
            state.feed(event)
        line = state.status_line()
        assert "runs 2/2" in line
        assert "cache 1h/1m" in line


class TestWatchCli:
    def test_watch_once_renders_snapshot(self, tmp_path, capsys):
        stream = _recorded_stream(tmp_path)
        assert main(["watch", "--once", "--file", str(stream)]) == 0
        out = capsys.readouterr().out
        assert f"repro watch · {stream}" in out
        assert "runs       : 2 done / 2 planned" in out
        assert "PE heat" in out

    def test_watch_once_missing_file_is_empty_dashboard(self, tmp_path, capsys):
        assert main(["watch", "--once", "--file", str(tmp_path / "nope.jsonl")]) == 0
        assert "(no telemetry events yet)" in capsys.readouterr().out

    def test_watch_without_stream_errors_cleanly(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", "--once"])
        assert excinfo.value.code == 2
        assert "REPRO_TELEMETRY" in capsys.readouterr().err

    def test_watch_env_var_names_the_stream(self, tmp_path, monkeypatch, capsys):
        stream = _recorded_stream(tmp_path)
        monkeypatch.setenv("REPRO_TELEMETRY", str(stream))
        # main() would configure a sink from the env var; isolate it.
        monkeypatch.setattr(telemetry, "init_from_env", lambda: None)
        assert main(["watch", "--once"]) == 0
        assert "2 done / 2 planned" in capsys.readouterr().out

    def test_follow_lines_tails_growing_file(self, tmp_path):
        stream = tmp_path / "grow.jsonl"
        stream.write_text('{"v":1,"ev":"a","wall":0}\n{"v":1,"ev":"par')
        polls = watch.follow_lines(stream, interval=0.0)
        first = next(polls)
        assert [json.loads(l)["ev"] for l in first] == ["a"]
        # The partial record completes and a new one lands.
        with open(stream, "a") as fh:
            fh.write('tial","wall":1}\n{"v":1,"ev":"b","wall":2}\n')
        second = next(polls)
        assert [json.loads(l)["ev"] for l in second] == ["partial", "b"]
        assert next(polls) == []  # quiet poll


# ---------------------------------------------------------------------------
# satellite: structured [farm] line + --quiet, cache stats --json
# ---------------------------------------------------------------------------

class TestFarmSummarySatellites:
    def test_quiet_suppresses_farm_line_but_event_fires(self, tmp_path, capsys):
        stream = tmp_path / "t.jsonl"
        with telemetry.capture(stream):
            assert main(["run", "fib:9", "grid:4x4", "cwn", "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "[farm]" not in err
        summaries = [
            e for e in telemetry.read_events(stream) if e["ev"] == "farm.summary"
        ]
        assert len(summaries) == 1
        assert summaries[0]["hits"] + summaries[0]["simulated"] == 1

    def test_default_still_prints_farm_line(self, capsys):
        assert main(["run", "fib:9", "grid:4x4", "cwn"]) == 0
        assert "[farm]" in capsys.readouterr().err

    def test_cache_stats_json(self, tmp_path, capsys):
        from repro.parallel import ResultCache
        from repro.parallel.cache import CACHE_SCHEMA
        from repro.scenario import Scenario

        root = tmp_path / "cache"
        cache = ResultCache(root)
        spec = Scenario("fib:9", "grid:4x4", "cwn", seed=1)
        cache.put(spec, spec.run())
        assert main(["cache", "stats", "--json", "--dir", str(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(root)
        assert payload["schema"] == CACHE_SCHEMA
        assert payload["entries"] == 1
        assert payload["total_bytes"] > 0

    def test_cache_stats_human_form_unchanged(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path / "c")]) == 0
        assert "entries      : 0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the serve panel
# ---------------------------------------------------------------------------

def _serve_stream(tmp_path):
    """A telemetry stream recorded from a real in-process serve session."""
    import asyncio

    from repro.parallel import ResultCache
    from repro.serve import ScenarioService, WorkerFleet, make_policy

    stream = tmp_path / "serve.jsonl"
    spec = "fib:8 @ grid:2x2 / cwn"

    async def go():
        fleet = WorkerFleet(workers=1)
        service = ScenarioService(
            fleet,
            make_policy("central", 1),
            cache=ResultCache(tmp_path / "serve-cache"),
        )
        await service.start()
        await asyncio.gather(service.submit(spec), service.submit(spec))
        await service.submit(spec)  # warm: a cache hit
        await service.stop()

    with telemetry.capture(stream):
        asyncio.run(go())
    return stream


class TestWatchServePanel:
    def test_feed_aggregates_serve_events(self, tmp_path):
        state = WatchState()
        for event in telemetry.read_events(_serve_stream(tmp_path)):
            state.feed(event)
        assert state.serve_info is not None
        assert state.serve_requests == 3
        assert state.serve_coalesced == 1
        assert state.serve_cache_hits == 1
        assert state.serve_misses == 1
        assert state.serve_dispatched == 1
        assert state.serve_completed == 1
        assert state.serve_errors == 0

    def test_render_shows_the_serve_panel(self, tmp_path):
        state = WatchState()
        for event in telemetry.read_events(_serve_stream(tmp_path)):
            state.feed(event)
        text = state.render()
        assert "serve      :" in text
        assert "policy central" in text
        assert "requests : 3 (1 cache, 1 coalesced, 1 computed)" in text
        assert "fleet    : 1 dispatched · 1 done" in text
        assert "dedup 67%" in text

    def test_status_line_carries_serve_counts(self, tmp_path):
        state = WatchState()
        for event in telemetry.read_events(_serve_stream(tmp_path)):
            state.feed(event)
        assert "serve 3 req (2 dedup)" in state.status_line()

    def test_no_serve_panel_without_serve_events(self):
        assert "serve      :" not in WatchState().render()
