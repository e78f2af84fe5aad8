"""The plan → farm → reduce spine: golden equivalence with the seed
serial loops, farmed/cached reruns, and the CLI's uniform farm flags.

Every experiment module is now a (plan builder, reducer) pair on
``repro.experiments.plan.execute``.  These tests pin the refactor's
contract:

* plan-based execution is **bit-identical** to the seed's hand-rolled
  serial loops of single runs (reproduced inline here as references);
* ``jobs=2`` and a warm-cache rerun reproduce the same result objects;
* a warm rerun performs **zero new simulations** (cache hit counters);
* every CLI experiment subcommand honors ``--jobs``/``--no-cache`` and
  prints the ``[farm]`` summary.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core import CWN, paper_cwn, paper_gm
from repro.experiments.plan import (
    ExperimentPlan,
    collect_reports,
    execute,
    merge_plans,
)
from repro.oracle.config import CostModel, SimConfig
from repro.parallel import ResultCache
from repro.parallel.pool import task_json
from repro.scenario import Arrivals, Scenario
from repro.topology import Grid, Hypercube
from repro.workload import Fibonacci


# -- engine basics ---------------------------------------------------------------

def _unspellable():
    """A CWN run the spec grammar cannot spell (``tie_break="lowest"``)."""
    return Scenario(Fibonacci(7), Grid(4, 4), CWN(radius=3, horizon=1, tie_break="lowest"), seed=1)


class TestExecuteEngine:
    def test_results_reach_reducer_in_plan_order(self):
        plan = ExperimentPlan(
            "demo",
            (
                Scenario("fib:7", "grid:4x4", "cwn", seed=1),
                Scenario("fib:9", "grid:4x4", "gm", seed=1),
            ),
            lambda results, meta: [(m, r.workload) for m, r in zip(meta, results)],
            ("a", "b"),
        )
        assert execute(plan) == [("a", "fib(7)"), ("b", "fib(9)")]

    def test_meta_must_match_runs(self):
        with pytest.raises(ValueError, match="meta"):
            ExperimentPlan(
                "bad",
                (Scenario("fib:7", "grid:4x4", "cwn"),),
                lambda r, m: r,
                ("x", "y"),
            )

    def test_local_runs_interleave_in_order(self):
        # The local run executes after the farmed one, yet its result
        # reaches the reducer in its plan slot.
        spec = Scenario("fib:7", "grid:4x4", "gm", seed=1)
        plan = ExperimentPlan(
            "mixed",
            (_unspellable(), spec),
            lambda results, meta: [r.strategy for r in results],
        )
        assert execute(plan) == ["cwn", "gm"]

    def test_unspellable_strategy_degrades_to_local_run(self, tmp_path):
        spelled = Scenario(Fibonacci(7), Grid(4, 4), CWN(radius=3, horizon=1), seed=1)
        seen = []
        plan = ExperimentPlan("objects", (_unspellable(), spelled), lambda results, meta: results)
        with collect_reports() as reports:
            execute(plan, cache=ResultCache(tmp_path), progress=lambda d, t, s: seen.append(s))
        assert seen == ["sim", "local"], "spellable objects are farmed, the rest run here"
        assert (reports[0].simulated, reports[0].local) == (1, 1)

    def test_progress_reports_every_run(self, tmp_path):
        seen = []
        plan = ExperimentPlan(
            "progress",
            (Scenario("fib:7", "grid:4x4", "cwn", seed=1), _unspellable()),
            lambda results, meta: results,
        )
        execute(plan, cache=ResultCache(tmp_path), progress=lambda d, t, s: seen.append((d, t, s)))
        assert seen == [(1, 2, "sim"), (2, 2, "local")]
        seen.clear()
        execute(plan, cache=ResultCache(tmp_path), progress=lambda d, t, s: seen.append((d, t, s)))
        assert seen == [(1, 2, "cache"), (2, 2, "local")]

    def test_collect_reports_counts_hits_and_sims(self, tmp_path):
        plan = ExperimentPlan(
            "telemetry",
            (Scenario("fib:7", "grid:4x4", "cwn", seed=1), _unspellable()),
            lambda results, meta: results,
        )
        with collect_reports() as reports:
            execute(plan, cache=ResultCache(tmp_path))
            execute(plan, cache=ResultCache(tmp_path))
        cold, warm = reports
        assert (cold.hits, cold.simulated, cold.local) == (0, 1, 1)
        assert (warm.hits, warm.simulated, warm.local) == (1, 0, 1)
        assert cold.executed == 2 and warm.executed == 1

    def test_merge_plans_splits_reductions(self):
        def sub(n):
            return ExperimentPlan(
                f"sub{n}",
                (Scenario(f"fib:{n}", "grid:4x4", "cwn", seed=1),),
                lambda results, meta: results[0].workload,
            )

        merged = merge_plans("family", [sub(7), sub(9)])
        assert execute(merged) == ["fib(7)", "fib(9)"]


# -- golden equivalence with the seed serial loops -------------------------------

def _same_result(a, b):
    """Cheap bit-identity proxy over the fields experiments consume."""
    assert a.strategy == b.strategy
    assert a.workload == b.workload
    assert a.completion_time == b.completion_time
    assert a.speedup == b.speedup
    assert a.total_goals == b.total_goals
    assert a.hop_histogram == b.hop_histogram
    assert a.samples == b.samples


class TestGoldenComparison:
    KW = dict(kind="both", pe_counts=(25,), fib_sizes=(7, 9), dc_sizes=(21,), seed=1)

    def _serial_reference(self):
        # The seed's run_comparison loop, verbatim.
        from repro.experiments.comparison import ComparisonCell, _topology, _workloads

        cells = []
        config = SimConfig()
        for family in ("grid", "dlm"):
            for n_pes in self.KW["pe_counts"]:
                for program in _workloads("both", None, (7, 9), (21,)):
                    topo = _topology(family, n_pes)
                    cwn = Scenario(program, topo, paper_cwn(family), config=config, seed=1).run()
                    gm = Scenario(program, topo, paper_gm(family), config=config, seed=1).run()
                    cells.append(ComparisonCell(cwn.workload, family, n_pes, cwn, gm))
        return cells

    def test_plan_matches_seed_serial_loop(self):
        from repro.experiments.comparison import run_comparison

        reference = self._serial_reference()
        planned = run_comparison(**self.KW)
        assert len(planned) == len(reference)
        for a, b in zip(planned, reference):
            assert (a.workload, a.family, a.n_pes) == (b.workload, b.family, b.n_pes)
            _same_result(a.cwn, b.cwn)
            _same_result(a.gm, b.gm)

    def test_jobs_and_warm_cache_reproduce_results(self, tmp_path):
        from repro.experiments.comparison import run_comparison

        serial = run_comparison(**self.KW)
        farmed = run_comparison(**self.KW, jobs=2, cache=ResultCache(tmp_path))
        assert [c.ratio for c in farmed] == [c.ratio for c in serial]
        rerun_cache = ResultCache(tmp_path)
        rerun = run_comparison(**self.KW, jobs=2, cache=rerun_cache)
        assert rerun_cache.hits == 2 * len(serial)
        assert rerun_cache.misses == 0, "warm rerun must not simulate"
        assert [c.ratio for c in rerun] == [c.ratio for c in serial]


class TestGoldenOptimization:
    def test_plan_matches_seed_serial_loop(self, tmp_path):
        from repro.experiments.optimization import SweepPoint, optimize_cwn

        points = [(Fibonacci(7), Grid(4, 4))]
        grid = [{"radius": r, "horizon": h} for r in (2, 4) for h in (0, 1)]
        reference = []
        for params in grid:
            speedups = tuple(
                Scenario(program, topo, CWN(**params), seed=1).run().speedup
                for program, topo in points
            )
            reference.append(SweepPoint(params, sum(speedups) / len(speedups), speedups))
        reference.sort(key=lambda sp: -sp.mean_speedup)

        planned = optimize_cwn(points, radii=(2, 4), horizons=(0, 1), seed=1)
        assert planned == reference

        cache = ResultCache(tmp_path)
        farmed = optimize_cwn(points, radii=(2, 4), horizons=(0, 1), seed=1, jobs=2, cache=cache)
        assert farmed == reference
        rerun_cache = ResultCache(tmp_path)
        rerun = optimize_cwn(
            points, radii=(2, 4), horizons=(0, 1), seed=1, jobs=2, cache=rerun_cache
        )
        assert rerun == reference and rerun_cache.misses == 0


class TestGoldenScaling:
    def test_plan_matches_seed_serial_loop(self, tmp_path, monkeypatch):
        import repro.experiments.scale as scale_mod
        from repro.experiments.scaling import ScalingPoint, run_scaling

        monkeypatch.setattr(scale_mod, "REDUCED_PE_COUNTS", (25,))
        monkeypatch.delenv("REPRO_FULL", raising=False)
        program = Fibonacci(9)

        from repro.topology import paper_dlm, paper_grid

        reference = []
        for family in ("grid", "dlm"):
            make = paper_grid if family == "grid" else paper_dlm
            for n_pes in (25,):
                topo = make(n_pes)
                cwn = Scenario(program, topo, paper_cwn(family), seed=1).run()
                gm = Scenario(program, topo, paper_gm(family), seed=1).run()
                reference.append(
                    ScalingPoint(family, n_pes, topo.diameter, cwn.speedup, gm.speedup)
                )

        assert run_scaling(program=program, seed=1) == reference
        cache = ResultCache(tmp_path)
        assert run_scaling(program=program, seed=1, jobs=2, cache=cache) == reference
        rerun_cache = ResultCache(tmp_path)
        assert run_scaling(program=program, seed=1, cache=rerun_cache) == reference
        assert rerun_cache.misses == 0


class TestGoldenGrainsize:
    def test_plan_matches_seed_serial_loop(self, tmp_path):
        from repro.experiments.grainsize import GrainPoint, run_grainsize, scaled_costs

        program, topo, grains = Fibonacci(9), Grid(4, 4), (0.5, 1.0)
        base = CostModel()
        reference = []
        for grain in grains:
            costs = scaled_costs(base, grain)
            cfg = SimConfig(costs=costs, seed=1)
            cwn = Scenario(program, topo, paper_cwn("grid"), config=cfg).run()
            gm = Scenario(program, topo, paper_gm("grid"), config=cfg).run()
            comm = costs.transfer_time(4) / (costs.leaf_work or 1.0)
            reference.append(GrainPoint(grain, comm, cwn.speedup, gm.speedup))

        assert run_grainsize(program, topo, grains, seed=1) == reference
        cache = ResultCache(tmp_path)
        assert run_grainsize(program, topo, grains, seed=1, jobs=2, cache=cache) == reference
        rerun_cache = ResultCache(tmp_path)
        assert run_grainsize(program, topo, grains, seed=1, cache=rerun_cache) == reference
        assert rerun_cache.misses == 0


class TestGoldenHops:
    def test_plan_matches_seed_serial_loop(self, tmp_path):
        from repro.experiments.hops import run_hop_study

        topo = Grid(4, 4)
        cwn = Scenario(Fibonacci(9), topo, paper_cwn("grid"), seed=1).run()
        gm = Scenario(Fibonacci(9), topo, paper_gm("grid"), seed=1).run()

        study = run_hop_study(9, topo, seed=1)
        assert study.workload == cwn.workload and study.topology == topo.name
        _same_result(study.cwn, cwn)
        _same_result(study.gm, gm)

        cache = ResultCache(tmp_path)
        farmed = run_hop_study(9, topo, seed=1, jobs=2, cache=cache)
        assert farmed.communication_ratio == study.communication_ratio
        rerun_cache = ResultCache(tmp_path)
        rerun = run_hop_study(9, topo, seed=1, cache=rerun_cache)
        assert rerun_cache.misses == 0
        _same_result(rerun.cwn, cwn)


class TestGoldenTimeseries:
    def test_plan_matches_seed_serial_loop(self, tmp_path):
        from repro.experiments.timeseries import run_timeseries

        topo, fib_n, samples = Grid(4, 4), 9, 20
        base = SimConfig()
        reference_series, reference_completion = {}, {}
        for name, build in (("cwn", paper_cwn), ("gm", paper_gm)):
            pilot = Scenario(Fibonacci(fib_n), topo, build("grid"), config=base, seed=1).run()
            interval = max(pilot.completion_time / samples, 1.0)
            res = Scenario(
                Fibonacci(fib_n),
                topo,
                build("grid"),
                config=base.replace(sample_interval=interval),
                seed=1,
            ).run()
            reference_series[name] = [(s.time, 100.0 * s.utilization) for s in res.samples]
            reference_completion[name] = res.completion_time

        study = run_timeseries(fib_n, topo, seed=1, samples=samples)
        assert study.series == reference_series
        assert study.completion == reference_completion

        cache = ResultCache(tmp_path)
        farmed = run_timeseries(fib_n, topo, seed=1, samples=samples, jobs=2, cache=cache)
        assert farmed == study
        rerun_cache = ResultCache(tmp_path)
        rerun = run_timeseries(fib_n, topo, seed=1, samples=samples, cache=rerun_cache)
        assert rerun == study and rerun_cache.misses == 0


class TestGoldenCurves:
    def test_plan_matches_seed_serial_loop(self, tmp_path, monkeypatch):
        import repro.experiments.scale as scale_mod
        from repro.experiments.utilization_curves import run_curve

        monkeypatch.setattr(scale_mod, "REDUCED_FIB_SIZES", (7, 9))
        monkeypatch.delenv("REPRO_FULL", raising=False)
        topo = Grid(4, 4)
        reference = {"cwn": [], "gm": []}
        for n in (7, 9):
            for strat, build in (("cwn", paper_cwn), ("gm", paper_gm)):
                res = Scenario(Fibonacci(n), topo, build("grid"), seed=1).run()
                reference[strat].append((res.total_goals, res.utilization_percent))

        curve = run_curve(topo, kind="fib", seed=1)
        assert curve.series == reference

        cache = ResultCache(tmp_path)
        assert run_curve(topo, kind="fib", seed=1, jobs=2, cache=cache).series == reference
        rerun_cache = ResultCache(tmp_path)
        assert run_curve(topo, kind="fib", seed=1, cache=rerun_cache).series == reference
        assert rerun_cache.misses == 0

    def test_run_all_curves_merges_into_one_batch(self, tmp_path, monkeypatch):
        import repro.experiments.scale as scale_mod
        from repro.experiments.utilization_curves import run_all_curves

        monkeypatch.setattr(scale_mod, "REDUCED_PE_COUNTS", (25,))
        monkeypatch.setattr(scale_mod, "REDUCED_DC_SIZES", (21,))
        monkeypatch.delenv("REPRO_FULL", raising=False)
        with collect_reports() as reports:
            curves = run_all_curves(kind="dc", seed=1, cache=ResultCache(tmp_path))
        assert [plot for plot, _curve in curves] == [5, 10]
        assert len(reports) == 1, "the whole family must execute as one plan"
        assert reports[0].simulated == 4  # 2 plots x 1 size x 2 strategies


class TestGoldenQueryStream:
    def test_plan_matches_seed_serial_loop(self, tmp_path):
        from repro.experiments.query_stream import run_stream, spread_pes
        from repro.oracle.machine import Machine

        program, topo = Fibonacci(9), Grid(4, 4)
        arrival = spread_pes(topo, 3)
        expected = program.expected_result()
        reference = []
        for name, strategy in (("cwn", paper_cwn("grid")), ("gm", paper_gm("grid"))):
            res = Machine(
                topo,
                program,
                strategy,
                SimConfig().replace(seed=1),
                arrivals=Arrivals(queries=3, spacing=50.0, pes=arrival),
            ).run()
            responses = res.response_times
            reference.append(
                (
                    name,
                    res.completion_time,
                    sum(responses) / len(responses),
                    max(responses),
                    all(v == expected for v in res.result_value),
                )
            )

        results = run_stream(program, topo, queries=3, spacing=50.0, seed=1)
        got = [
            (r.strategy, r.makespan, r.mean_response, r.max_response, r.results_ok)
            for r in results
        ]
        assert got == reference

        cache = ResultCache(tmp_path)
        farmed = run_stream(program, topo, queries=3, spacing=50.0, seed=1, jobs=2, cache=cache)
        assert [r.makespan for r in farmed] == [r[1] for r in reference]
        rerun_cache = ResultCache(tmp_path)
        rerun = run_stream(program, topo, queries=3, spacing=50.0, seed=1, cache=rerun_cache)
        assert rerun_cache.misses == 0
        assert [r.makespan for r in rerun] == [r[1] for r in reference]

    def test_open_system_specs_have_distinct_cache_keys(self):
        closed = Scenario("fib:9", "grid:4x4", "cwn", seed=1)
        stream = Scenario(
            "fib:9", "grid:4x4", "cwn", seed=1, arrivals=Arrivals(3, 50.0, (0, 5, 10))
        )
        assert closed.content_hash() != stream.content_hash()
        # Spacing is never read with one query (it arrives at t=0), so
        # it must not split the key ...
        decorated = Scenario("fib:9", "grid:4x4", "cwn", seed=1, arrivals=Arrivals(1, 99.0))
        assert decorated.content_hash() == closed.content_hash()
        # ... but pes places even a single query, so it must.
        moved = Scenario("fib:9", "grid:4x4", "cwn", seed=1, arrivals=Arrivals(1, pes=(7,)))
        assert moved.content_hash() != closed.content_hash()
        assert Scenario.from_dict(json.loads(task_json(stream))) == stream

    def test_single_query_stream_and_bad_counts(self):
        from repro.experiments.query_stream import run_stream

        results = run_stream(Fibonacci(7), Grid(4, 4), queries=1, spacing=10.0)
        assert all(r.results_ok for r in results)
        with pytest.raises(ValueError, match="queries"):
            run_stream(Fibonacci(7), Grid(4, 4), queries=0)

    def test_unspellable_stream_strategy_runs_locally(self):
        from repro.experiments.query_stream import run_stream

        custom = {"odd": CWN(radius=3, horizon=1, tie_break="lowest")}
        results = run_stream(Fibonacci(7), Grid(4, 4), strategies=custom, queries=2, spacing=10.0)
        assert [r.strategy for r in results] == ["odd"]
        assert results[0].results_ok


class TestGoldenReplication:
    def test_metric_plan_matches_seed_serial_loop(self, tmp_path):
        from repro.experiments.replication import replicate_metric

        factory = lambda: CWN(radius=3, horizon=1)
        reference = tuple(
            float(Scenario(Fibonacci(9), Grid(4, 4), factory(), seed=s).run().speedup)
            for s in (1, 2, 3)
        )
        rep = replicate_metric(Fibonacci(9), Grid(4, 4), factory, seeds=(1, 2, 3))
        assert rep.values == reference

        cache = ResultCache(tmp_path)
        farmed = replicate_metric(
            Fibonacci(9), Grid(4, 4), factory, seeds=(1, 2, 3), jobs=2, cache=cache
        )
        assert farmed.values == reference
        rerun_cache = ResultCache(tmp_path)
        rerun = replicate_metric(
            Fibonacci(9), Grid(4, 4), factory, seeds=(1, 2, 3), cache=rerun_cache
        )
        assert rerun.values == reference and rerun_cache.misses == 0

    def test_unspellable_factory_still_replicates(self):
        from repro.experiments.replication import replicate_metric

        factory = lambda: CWN(radius=3, horizon=1, tie_break="lowest")
        reference = tuple(
            float(Scenario(Fibonacci(7), Grid(4, 4), factory(), seed=s).run().speedup)
            for s in (1, 2)
        )
        rep = replicate_metric(Fibonacci(7), Grid(4, 4), factory, seeds=(1, 2), jobs=2)
        assert rep.values == reference


class TestGoldenSweep:
    def test_warm_rerun_is_pure_cache(self, tmp_path):
        from repro.core import GradientModel
        from repro.experiments.sweep import PairedSweep

        def factory(radius):
            return CWN(radius=int(radius), horizon=1), GradientModel(), SimConfig()

        sweep = PairedSweep(
            Fibonacci(9), Grid(5, 5), factory, factor="radius", a_name="CWN", b_name="GM"
        )
        serial = sweep.run([2, 4], seeds=(1, 2))
        cache = ResultCache(tmp_path)
        assert sweep.run([2, 4], seeds=(1, 2), jobs=2, cache=cache) == serial
        rerun_cache = ResultCache(tmp_path)
        assert sweep.run([2, 4], seeds=(1, 2), cache=rerun_cache) == serial
        assert rerun_cache.misses == 0


class TestGoldenHypercube:
    def test_curves_and_timeseries_farm_and_cache(self, tmp_path, monkeypatch):
        import repro.experiments.scale as scale_mod
        from repro.experiments.hypercube_appendix import (
            run_hypercube_curves,
            run_hypercube_timeseries,
        )

        monkeypatch.setattr(scale_mod, "REDUCED_FIB_SIZES", (7,))
        monkeypatch.delenv("REPRO_FULL", raising=False)
        cache = ResultCache(tmp_path)
        curves = run_hypercube_curves(dims=(3,), seed=1, cache=cache)
        assert [dim for dim, _ in curves] == [3]
        reference = Scenario(Fibonacci(7), Hypercube(3), paper_cwn("hypercube"), seed=1).run()
        assert curves[0][1].series["cwn"] == [
            (reference.total_goals, reference.utilization_percent)
        ]
        studies = run_hypercube_timeseries(dim=3, sizes=(7,), seed=1, cache=cache)
        assert [n for n, _ in studies] == [7]
        rerun_cache = ResultCache(tmp_path)
        run_hypercube_curves(dims=(3,), seed=1, cache=rerun_cache)
        run_hypercube_timeseries(dim=3, sizes=(7,), seed=1, cache=rerun_cache)
        assert rerun_cache.misses == 0


# -- the CLI: uniform farm flags -------------------------------------------------

FARM_LINE = re.compile(r"\[farm\] (\d+) cache hits, (\d+) simulated")


def _farm_counts(err: str) -> tuple[int, int]:
    matches = FARM_LINE.findall(err)
    assert matches, f"no [farm] summary on stderr: {err!r}"
    hits = sum(int(h) for h, _s in matches)
    simulated = sum(int(s) for _h, s in matches)
    return hits, simulated


@pytest.fixture
def small_cli(monkeypatch, tmp_path):
    """Shrink every experiment subcommand to seconds and isolate the cache."""
    import repro.experiments.grainsize as gs
    import repro.experiments.hops as hops
    import repro.experiments.hypercube_appendix as hyper
    import repro.experiments.optimization as opt
    import repro.experiments.query_stream as qs
    import repro.experiments.scale as scale_mod
    import repro.experiments.scaling as scaling
    import repro.experiments.timeseries as ts

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(scale_mod, "REDUCED_PE_COUNTS", (25,))
    monkeypatch.setattr(scale_mod, "REDUCED_FIB_SIZES", (7,))
    monkeypatch.setattr(scale_mod, "REDUCED_DC_SIZES", (21,))
    monkeypatch.setattr(
        opt,
        "default_sample_points",
        lambda family, small=False: [(Fibonacci(7), Grid(4, 4))],
    )
    _hops = hops.run_hop_study
    monkeypatch.setattr(
        hops,
        "run_hop_study",
        lambda fib_n=15, topology=None, config=None, seed=1, **farm: _hops(
            7, Grid(4, 4), config, seed, **farm
        ),
    )
    _scaling = scaling.run_scaling
    monkeypatch.setattr(
        scaling,
        "run_scaling",
        lambda full=None, seed=1, **farm: _scaling(
            program=Fibonacci(7), full=False, seed=seed, **farm
        ),
    )
    _grain = gs.run_grainsize
    monkeypatch.setattr(
        gs,
        "run_grainsize",
        lambda seed=1, **farm: _grain(Fibonacci(7), Grid(4, 4), grains=(1.0,), seed=seed, **farm),
    )
    _paper_ts = ts.run_paper_timeseries
    monkeypatch.setattr(
        ts,
        "run_paper_timeseries",
        lambda full=None, seed=1, **farm: _paper_ts(
            full=False, seed=seed, sizes=(7,), topologies=(Grid(4, 4),), **farm
        ),
    )
    _cubes = hyper.run_hypercube_curves
    monkeypatch.setattr(
        hyper,
        "run_hypercube_curves",
        lambda full=None, seed=1, **farm: _cubes(full=False, seed=seed, dims=(3,), **farm),
    )
    _cube_ts = hyper.run_hypercube_timeseries
    monkeypatch.setattr(
        hyper,
        "run_hypercube_timeseries",
        lambda full=None, seed=1, **farm: _cube_ts(
            full=False, seed=seed, dim=3, sizes=(7,), **farm
        ),
    )
    _stream = qs.run_stream
    monkeypatch.setattr(
        qs,
        "run_stream",
        lambda queries=8, spacing=200.0, seed=1, **farm: _stream(
            Fibonacci(7), Grid(4, 4), queries=queries, spacing=spacing, seed=seed, **farm
        ),
    )


CLI_COMMANDS = [
    ["run", "fib:7", "grid:4x4", "cwn"],
    ["table1"],
    ["table2", "--kind", "fib"],
    ["table3"],
    ["plots"],
    ["timeseries"],
    ["hypercube"],
    ["scaling"],
    ["grainsize"],
    ["stream", "--queries", "2", "--spacing", "50"],
    ["zoo"],
    ["bounds", "fib:7", "grid:4x4", "--strategy", "cwn"],
    ["monitor", "fib:7", "grid:4x4", "cwn", "--frames", "2"],
]


class TestCliFarmFlags:
    @pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda a: a[0])
    def test_every_subcommand_farms_and_resumes(self, argv, small_cli, capsys):
        from repro.cli import main

        # Cold run: accepts --jobs, routes through the farm, reports it.
        assert main(argv + ["--jobs", "2"]) == 0
        cold_out, cold_err = capsys.readouterr()
        cold_hits, cold_sim = _farm_counts(cold_err)
        assert cold_sim > 0, "cold run must simulate"

        # Warm rerun: zero new simulations, identical stdout.
        assert main(argv) == 0
        warm_out, warm_err = capsys.readouterr()
        warm_hits, warm_sim = _farm_counts(warm_err)
        assert warm_sim == 0, f"warm rerun of {argv[0]} simulated {warm_sim} runs"
        assert warm_hits == cold_hits + cold_sim
        assert warm_out == cold_out, "stdout must be diff-identical across reruns"

    @pytest.mark.parametrize("argv", [["zoo"], ["table3"]], ids=lambda a: a[0])
    def test_no_cache_flag_bypasses_the_cache(self, argv, small_cli, capsys):
        from repro.cli import main

        assert main(argv + ["--no-cache"]) == 0
        _out, err = capsys.readouterr()
        hits, sim = _farm_counts(err)
        assert hits == 0 and sim > 0
        # And it neither read nor wrote: a rerun still simulates.
        assert main(argv + ["--no-cache"]) == 0
        _out, err = capsys.readouterr()
        hits, sim = _farm_counts(err)
        assert hits == 0 and sim > 0
