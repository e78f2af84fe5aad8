"""Tests for the experiment harness modules (small instances throughout)."""

from __future__ import annotations

import pytest

from repro.experiments import scale
from repro.experiments.comparison import (
    ComparisonCell,
    render_table2,
    run_comparison,
    summarize_claims,
)
from repro.experiments.hops import render_table3, run_hop_study
from repro.experiments.optimization import (
    default_sample_points,
    optimize_cwn,
    optimize_gm,
    render_table1,
    run_optimization,
)
from repro.experiments.timeseries import (
    render_timeseries,
    rise_time,
    run_timeseries,
    tail_length,
)
from repro.experiments.utilization_curves import render_curve, run_curve
from repro.oracle.config import SimConfig
from repro.scenario import Scenario
from repro.topology import Grid, Hypercube
from repro.workload import Fibonacci


class TestRunner:
    def test_simulate_with_specs(self):
        res = Scenario("fib:9", "grid:4x4", "cwn", seed=3).run()
        assert res.result_value == 34

    def test_simulate_with_objects(self):
        from repro.core import CWN

        res = Scenario(Fibonacci(9), Grid(4, 4), CWN(radius=3, horizon=1), seed=3).run()
        assert res.result_value == 34

    def test_seed_override(self):
        cfg = SimConfig(seed=1)
        res = Scenario("fib:9", "grid:4x4", "cwn", config=cfg, seed=99).run()
        assert res.seed == 99

    def test_bare_strategy_name_uses_family_params(self):
        m_grid = Scenario("fib:9", "grid:5x5", "cwn").build()
        assert m_grid.strategy.radius == 9  # Table 1 grid parameters
        m_dlm = Scenario("fib:9", "dlm:5x5x5", "cwn").build()
        assert m_dlm.strategy.radius == 5  # Table 1 DLM parameters

    def test_explicit_strategy_params(self):
        m = Scenario("fib:9", "grid:5x5", "cwn:radius=4,horizon=2").build()
        assert (m.strategy.radius, m.strategy.horizon) == (4, 2)

    def test_unknown_strategy_spec(self):
        with pytest.raises(ValueError):
            Scenario("fib:9", "grid:4x4", "astrology").build()


class TestScale:
    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert scale.full_scale() is False
        monkeypatch.setenv("REPRO_FULL", "1")
        assert scale.full_scale() is True
        monkeypatch.setenv("REPRO_FULL", "0")
        assert scale.full_scale() is False

    def test_explicit_flag_wins(self):
        assert scale.pe_counts(full=True) == scale.FULL_PE_COUNTS
        assert scale.pe_counts(full=False) == scale.REDUCED_PE_COUNTS
        assert scale.fib_sizes(full=True)[-1] == 18
        assert scale.dc_sizes(full=True)[-1] == 4181


class TestComparison:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_comparison(
            kind="both",
            families=("grid", "dlm"),
            pe_counts=(25,),
            fib_sizes=(9, 11),
            dc_sizes=(55, 144),
            seed=1,
        )

    def test_grid_shape(self, cells):
        # 2 families x 1 machine x 4 workloads.
        assert len(cells) == 8
        assert all(isinstance(c, ComparisonCell) for c in cells)

    def test_paired_runs_share_workload(self, cells):
        for c in cells:
            assert c.cwn.workload == c.gm.workload
            assert c.cwn.n_pes == c.gm.n_pes

    def test_ratio_definition(self, cells):
        c = cells[0]
        assert c.ratio == pytest.approx(c.cwn.speedup / c.gm.speedup)

    def test_summary_counts(self, cells):
        s = summarize_claims(cells)
        assert s.total == 8
        assert 0 <= s.cwn_wins <= 8
        assert s.significant <= s.cwn_wins
        assert s.min_ratio <= s.max_ratio

    def test_render_contains_all_cells(self, cells):
        text = render_table2(cells)
        assert "Speedup of CWN over GM" in text
        assert "fib(9)" in text and "dc(1,144)" in text
        assert "grid:25" in text and "dlm:25" in text

    def test_cwn_wins_majority_even_at_small_scale(self, cells):
        s = summarize_claims(cells)
        assert s.cwn_wins >= s.total * 0.6

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            run_comparison(kind="neither", pe_counts=(25,))

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            run_comparison(families=("torus",), pe_counts=(25,), fib_sizes=(9,))


class TestHops:
    def test_small_study(self):
        study = run_hop_study(fib_n=11, topology=Grid(5, 5), seed=1)
        assert sum(study.cwn.hop_histogram.values()) == 287
        assert sum(study.gm.hop_histogram.values()) == 287
        # The headline: CWN communicates much more than GM.
        assert study.communication_ratio > 1.5

    def test_render(self):
        study = run_hop_study(fib_n=9, topology=Grid(4, 4), seed=1)
        text = render_table3(study)
        assert "CWN" in text and "GM" in text and "Average" in text


class TestOptimization:
    @pytest.fixture(scope="class")
    def points(self):
        return [(Fibonacci(9), Grid(4, 4))]

    def test_cwn_sweep_sorted_best_first(self, points):
        sweep = optimize_cwn(points, radii=(2, 4), horizons=(0, 1), seed=1)
        assert len(sweep) == 4
        scores = [sp.mean_speedup for sp in sweep]
        assert scores == sorted(scores, reverse=True)

    def test_horizon_never_exceeds_radius(self, points):
        sweep = optimize_cwn(points, radii=(1, 2), horizons=(0, 1, 2, 3), seed=1)
        assert all(sp.params["horizon"] <= sp.params["radius"] for sp in sweep)

    def test_gm_sweep(self, points):
        sweep = optimize_gm(
            points, high_water_marks=(1, 2), low_water_marks=(1,), intervals=(20.0,), seed=1
        )
        assert len(sweep) == 2
        assert {sp.params["high_water_mark"] for sp in sweep} == {1, 2}

    def test_render_table1(self):
        results = run_optimization(families=("grid",), small=True, seed=1)
        text = render_table1(results)
        assert "CWN: radius" in text
        assert "GM: interval" in text

    def test_default_sample_points(self):
        pts = default_sample_points("grid", small=True)
        assert len(pts) == 2
        assert pts[0][1].family == "grid"
        pts_dlm = default_sample_points("dlm", small=True)
        assert pts_dlm[0][1].family == "dlm"


class TestUtilizationCurves:
    def test_curve_structure(self):
        curve = run_curve(Grid(4, 4), kind="fib", full=False, seed=1)
        assert set(curve.series) == {"cwn", "gm"}
        goals = [g for g, _ in curve.series["cwn"]]
        assert goals == sorted(goals)
        assert all(0 <= u <= 100 for _, u in curve.series["cwn"])

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            run_curve(Grid(4, 4), kind="matmul")

    def test_render(self):
        curve = run_curve(Hypercube(3), kind="fib", full=False, seed=1)
        text = render_curve(curve, plot_no=42)
        assert "Plot 42" in text
        assert "goals" in text


class TestTimeseries:
    @pytest.fixture(scope="class")
    def study(self):
        return run_timeseries(11, Grid(5, 5), seed=1, samples=40)

    def test_structure(self, study):
        assert set(study.series) == {"cwn", "gm"}
        for trace in study.series.values():
            assert len(trace) >= 10
            times = [t for t, _ in trace]
            assert times == sorted(times)

    def test_cwn_rises_faster(self, study):
        assert rise_time(study.series["cwn"], 40.0) <= rise_time(
            study.series["gm"], 40.0
        )

    def test_rise_time_unreachable_is_inf(self):
        assert rise_time([(0.0, 5.0), (10.0, 8.0)], 50.0) == float("inf")

    def test_tail_length(self):
        trace = [(0.0, 50.0), (10.0, 60.0), (20.0, 10.0), (30.0, 5.0)]
        assert tail_length(trace, completion=35.0, level=20.0) == pytest.approx(15.0)

    def test_tail_length_no_tail(self):
        trace = [(0.0, 50.0), (10.0, 60.0)]
        assert tail_length(trace, completion=10.0, level=20.0) == 0.0

    def test_render(self, study):
        text = render_timeseries(study, plot_no=11)
        assert "Plot 11" in text and "time" in text


class TestHypercubeAppendix:
    def test_curves_cover_dims(self):
        from repro.experiments.hypercube_appendix import run_hypercube_curves

        curves = run_hypercube_curves(full=False, seed=1)
        dims = [d for d, _ in curves]
        assert dims == [4, 5, 6]

    def test_paper_topologies_available_at_full_scale(self):
        # Full scale reaches dim 7 (128 PEs) without building it here.
        from repro.experiments.hypercube_appendix import FULL_DIMS

        assert max(FULL_DIMS) == 7
