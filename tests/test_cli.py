"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "fib:9", "grid:4x4", "cwn", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "cwn" in out and "fib(9)" in out
        assert "util=" in out

    def test_run_verbose(self, capsys):
        main(["run", "fib:9", "grid:4x4", "gm", "--verbose"])
        out = capsys.readouterr().out
        assert "result value" in out
        assert "goals executed     : 109" in out

    def test_run_all_strategies(self, capsys):
        for strat in ("cwn", "gm", "acwn", "local", "random", "roundrobin"):
            assert main(["run", "fib:7", "grid:4x4", strat]) == 0

    def test_bad_workload_spec_exits(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "fib:x", "grid:4x4", "cwn"])
        assert info.value.code == 2
        assert "malformed workload spec" in capsys.readouterr().err

    def test_out_of_range_pes_exit(self, capsys):
        for spec in ("fib:9 @ grid:2x2 / cwn?start=7", "fib:9 @ grid:2x2 / cwn?queries=2&pes=0;9"):
            with pytest.raises(SystemExit) as info:
                main(["run", spec])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: error:") and err.count("\n") == 1

    def test_unknown_strategy_lists_registry(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "fib:9 @ grid:4x4 / cwm"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown strategy" in err
        assert "did you mean 'cwn'?" in err

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_scenario_spec(self, capsys):
        assert main(["run", "fib:9 @ grid:4x4 / cwn?seed=3"]) == 0
        out = capsys.readouterr().out
        assert "cwn" in out and "fib(9)" in out

    def test_scenario_and_legacy_forms_share_cache(self, capsys):
        assert main(["run", "fib:8", "grid:4x4", "gm", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["run", "fib:8 @ grid:4x4 / gm?seed=5"]) == 0
        captured = capsys.readouterr()
        assert "[farm] 1 cache hits, 0 simulated" in captured.err

    def test_cfg_seed_override_not_clobbered_by_default(self, capsys):
        # ?cfg.seed= and ?seed= are the same run (the canonical form
        # folds the seed into the config), so the second invocation must
        # hit the first one's cache entry instead of simulating under
        # the --seed default.
        assert main(["run", "fib:8 @ grid:4x4 / cwn?cfg.seed=7"]) == 0
        capsys.readouterr()
        assert main(["run", "fib:8 @ grid:4x4 / cwn?seed=7"]) == 0
        assert "[farm] 1 cache hits, 0 simulated" in capsys.readouterr().err

    def test_explicit_seed_flag_wins_over_spec(self, capsys):
        assert main(["run", "fib:8 @ grid:4x4 / cwn?seed=7", "--seed", "2"]) == 0
        capsys.readouterr()
        assert main(["run", "fib:8 @ grid:4x4 / cwn?seed=2"]) == 0
        assert "[farm] 1 cache hits, 0 simulated" in capsys.readouterr().err

    def test_run_two_positionals_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "fib:9", "grid:4x4"])
        assert info.value.code == 2
        assert "three parts" in capsys.readouterr().err


class TestListCommand:
    def test_list_all_sections(self, capsys):
        from repro.core import STRATEGIES
        from repro.topology import TOPOLOGIES
        from repro.workload import WORKLOADS

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for title in ("strategies:", "topologies:", "workloads:"):
            assert title in out
        for registry in (STRATEGIES, TOPOLOGIES, WORKLOADS):
            for name in registry.names():
                assert f"  {name}" in out

    def test_list_one_section(self, capsys):
        assert main(["list", "topologies"]) == 0
        out = capsys.readouterr().out
        assert "grid" in out and "strategies:" not in out


class TestTable2Report:
    def test_report_flag_appends_markdown(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert main(["table2", "--kind", "dc", "--report"]) == 0
        out = capsys.readouterr().out
        assert "sign-test p" in out
        assert "| claim | paper | measured |" in out
        assert "118/120" in out


class TestBoundsCommand:
    def test_bounds_without_strategy(self, capsys):
        assert main(["bounds", "fib:9", "grid:4x4"]) == 0
        out = capsys.readouterr().out
        assert "critical path T_inf" in out
        assert "best possible speedup" in out
        assert "x greedy" not in out

    def test_bounds_with_strategy(self, capsys):
        assert main(["bounds", "fib:9", "grid:4x4", "--strategy", "cwn"]) == 0
        out = capsys.readouterr().out
        assert "x lower bound" in out
        assert "x greedy bound" in out

    def test_run_new_strategies(self, capsys):
        for strat in ("bidding", "symmetric", "central", "randomwalk", "gm-event"):
            assert main(["run", "fib:7", "grid:4x4", strat]) == 0

    def test_run_new_workloads_and_topologies(self, capsys):
        assert main(["run", "binom:10:4", "torus3d:2x2x2", "cwn:radius=2,horizon=0"]) == 0
        assert main(["run", "uts:seed=1,b0=6", "chordal:12x3", "gm"]) == 0
        assert main(["run", "qsort:200", "ccc:3", "stealing"]) == 0


class TestMonitorCommand:
    def test_monitor_renders_film(self, capsys):
        assert main(["monitor", "fib:9", "grid:4x4", "cwn", "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "t=" in out
        assert "avg=" in out


class TestExperimentCommands:
    def test_table3_small_grid(self, capsys, monkeypatch):
        # Patch the study to a small instance: the CLI path is what's
        # under test, not the full experiment.
        from repro.experiments import hops
        from repro.topology import Grid

        original = hops.run_hop_study
        monkeypatch.setattr(
            "repro.experiments.hops.run_hop_study",
            lambda fib_n=15, topology=None, config=None, seed=1, **farm: original(
                9, Grid(4, 4), config, seed, **farm
            ),
        )
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "CWN" in out and "communication ratio" in out
