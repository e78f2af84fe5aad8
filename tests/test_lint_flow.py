"""Tests for repro.lint.flow — interprocedural effect inference.

Three layers:

* the **golden test** — the inferred effect set of every registered
  strategy's hooks is pinned to ``tests/golden/strategy_effects.json``,
  and the inferred shardability verdict and belief reads must agree
  with the declared ``shardable`` and ``reads_beliefs`` flags for all
  fifteen strategies (the declared flags are *proved*, not reviewed);
* **fixture tests** for the two flow rules (``shardable-contract``,
  ``determinism-taint``) — minimal trees that trigger each, whatever
  the spelling of the source, and trees that are clean;
* the **CLI surface** — ``--explain`` traces, ``--format github``
  annotations, and the ``--prune-baseline`` round trip.

Regenerate the golden file after an intentional kernel change with::

    PYTHONPATH=src python tests/regen_strategy_effects.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Finding, run_lint
from repro.lint.context import FileContext, ProjectIndex
from repro.lint.engine import collect_files, default_root
from repro.lint.flow import ACTING, GLOBAL, OTHER, strategy_reports

GOLDEN = Path(__file__).parent / "golden" / "strategy_effects.json"

#: the full registered-strategy vocabulary the golden test must cover
ALL_STRATEGIES = {
    "acwn", "bidding", "central", "cwn", "diffusion", "gm", "gm-batch",
    "gm-event", "local", "random", "randomwalk", "roundrobin", "stealing",
    "symmetric", "threshold",
}


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def rules_hit(root: Path, *rules: str) -> list[Finding]:
    result = run_lint([root], rules=list(rules) or None)
    assert not result.errors, result.errors
    return result.findings


@pytest.fixture(scope="module")
def installed_reports():
    index = ProjectIndex()
    for path in collect_files([default_root()]):
        index.add(FileContext.parse(Path(path)))
    return strategy_reports(index)


# -- the golden test -------------------------------------------------------------


class TestGoldenEffects:
    def test_covers_every_registered_strategy(self, installed_reports):
        assert set(installed_reports) == ALL_STRATEGIES

    def test_declared_flag_agrees_with_inference(self, installed_reports):
        """The audit: no strategy's declaration contradicts the analysis."""
        disagreements = {
            name: (r.declared, r.inferred_shardable)
            for name, r in installed_reports.items()
            if r.declared != r.inferred_shardable
        }
        assert disagreements == {}

    def test_breaches_and_candidates_absent(self, installed_reports):
        assert [n for n, r in installed_reports.items() if r.contract_breach] == []
        assert [
            n for n, r in installed_reports.items() if r.promotion_candidate
        ] == []

    def test_effect_lines_match_golden(self, installed_reports):
        golden = json.loads(GOLDEN.read_text())
        assert set(golden) == set(installed_reports)
        for name, report in sorted(installed_reports.items()):
            pinned = golden[name]
            assert report.cls == pinned["cls"], name
            assert report.declared == pinned["declared"], name
            assert report.inferred_shardable == pinned["inferred_shardable"], name
            assert len(report.violations) == pinned["violations"], name
            assert report.effect_lines() == pinned["effects"], (
                f"{name}: inferred effects drifted from the golden file — "
                f"if the kernel change is intentional, regenerate with "
                f"`PYTHONPATH=src python tests/regen_strategy_effects.py`"
            )

    def test_reads_beliefs_agrees_with_inference(self, installed_reports):
        """``reads_beliefs`` is declared exactly where an entry point reads
        ``known_load`` / ``known_loads_of``, in both directions: a read
        under a False flag would find no beliefs (the machine keeps
        none), and a True flag without one keeps rows nobody reads."""
        from repro.core import STRATEGIES

        belief_reads = {"machine.known_load", "machine.known_loads_of"}
        mismatches = {}
        for name, report in installed_reports.items():
            inferred = any(
                effect.kind == "read" and effect.what in belief_reads
                for entry in report.entries
                for effect in entry.effects
            )
            declared = STRATEGIES.entry(name).cls.reads_beliefs
            if declared != inferred:
                mismatches[name] = (declared, inferred)
        assert mismatches == {}
        readers = {n for n in installed_reports if STRATEGIES.entry(n).cls.reads_beliefs}
        assert readers == {"acwn", "cwn", "diffusion", "stealing", "symmetric"}

    def test_summaries_are_not_vacuous(self, installed_reports):
        """A regression guard against the analysis silently seeing nothing."""
        cwn = installed_reports["cwn"].effect_lines()
        assert any("rng" in line for line in cwn)
        assert any("machine" in line for line in cwn)
        central = installed_reports["central"]
        kinds = {v.effect.kind for v in central.violations}
        assert "schedule" in kinds or "read" in kinds


# -- shardable-contract ----------------------------------------------------------


_STRATEGY_PRELUDE = """\
class Strategy:
    name = "abstract"
    shardable = False

    def on_goal_created(self, pe, goal):
        pass

    def on_idle(self, pe):
        pass
"""


class TestShardableContract:
    def test_breach_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/strats.py": _STRATEGY_PRELUDE + (
                "class Leaky(Strategy):\n"
                "    name = 'leaky'\n"
                "    shardable = True\n"
                "    def on_goal_created(self, pe, goal):\n"
                "        return self.machine.load_of(pe + 1)\n"
                "STRATEGIES.register('leaky', cls=Leaky)\n"
            ),
        })
        findings = rules_hit(tmp_path, "shardable-contract")
        assert [f.rule for f in findings] == ["shardable-contract"]
        assert "'leaky'" in findings[0].message
        assert "shardable = True" in findings[0].message
        # the propagation trace rides on the finding for --explain
        assert "load_of" in findings[0].explain

    def test_transitive_breach_through_helper(self, tmp_path):
        """The effect leaks through a call, not in the hook body itself."""
        write_tree(tmp_path, {
            "repro/core/strats.py": _STRATEGY_PRELUDE + (
                "class Sneaky(Strategy):\n"
                "    name = 'sneaky'\n"
                "    shardable = True\n"
                "    def _peek(self, who):\n"
                "        return self.machine.load_of(who)\n"
                "    def on_goal_created(self, pe, goal):\n"
                "        return self._peek(pe + 1)\n"
                "STRATEGIES.register('sneaky', cls=Sneaky)\n"
            ),
        })
        findings = rules_hit(tmp_path, "shardable-contract")
        assert findings and "_peek" in findings[0].explain

    def test_promotion_candidate_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/strats.py": _STRATEGY_PRELUDE + (
                "class Shy(Strategy):\n"
                "    name = 'shy'\n"
                "    shardable = False\n"
                "    def on_goal_created(self, pe, goal):\n"
                "        return self.machine.load_of(pe)\n"
                "STRATEGIES.register('shy', cls=Shy)\n"
            ),
        })
        findings = rules_hit(tmp_path, "shardable-contract")
        assert findings and "promotion candidate" in findings[0].message

    def test_clean_acting_local_strategy(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/strats.py": _STRATEGY_PRELUDE + (
                "class Tidy(Strategy):\n"
                "    name = 'tidy'\n"
                "    shardable = True\n"
                "    def on_goal_created(self, pe, goal):\n"
                "        if self.machine.load_of(pe) > 2:\n"
                "            self.machine.send_goal(pe, goal)\n"
                "STRATEGIES.register('tidy', cls=Tidy)\n"
            ),
        })
        assert rules_hit(tmp_path, "shardable-contract") == []

    @pytest.mark.parametrize(
        "imports, body, effect",
        [
            ("from time import perf_counter\n", "perf_counter()",
             "clock time.perf_counter"),
            ("import random as rnd\n", "rnd.random()",
             "rng random.random[global]"),
            ("", "seen = {pe, pe + 1}\n"
             "        for x in seen.copy():\n"
             "            pass", "set-iter set iteration"),
        ],
        ids=["from-imported-clock", "aliased-module-rng", "set-copy-iteration"],
    )
    def test_breach_in_any_spelling_is_flagged(self, tmp_path, imports, body, effect):
        """A source the point rules flag is a breach however it is spelled."""
        write_tree(tmp_path, {
            "repro/core/strats.py": imports + _STRATEGY_PRELUDE + (
                "class Hidden(Strategy):\n"
                "    name = 'hidden'\n"
                "    shardable = True\n"
                "    def on_idle(self, pe):\n"
                f"        {body}\n"
                "STRATEGIES.register('hidden', cls=Hidden)\n"
            ),
        })
        findings = rules_hit(tmp_path, "shardable-contract")
        assert [f.rule for f in findings] == ["shardable-contract"]
        assert "declares shardable = True" in findings[0].message
        assert effect in findings[0].message

    def test_seeded_local_rng_is_clean(self, tmp_path):
        """``random.Random(seed)`` is not a draw, as ``global-rng`` agrees."""
        write_tree(tmp_path, {
            "repro/core/strats.py": "import random\n" + _STRATEGY_PRELUDE + (
                "class Seeded(Strategy):\n"
                "    name = 'seeded'\n"
                "    shardable = True\n"
                "    def on_goal_created(self, pe, goal):\n"
                "        rng = random.Random(7)\n"
                "        if self.machine.load_of(pe) > rng.randint(0, 2):\n"
                "            self.machine.send_goal(pe, goal)\n"
                "STRATEGIES.register('seeded', cls=Seeded)\n"
            ),
        })
        assert rules_hit(tmp_path, "shardable-contract", "global-rng") == []


# -- determinism-taint -----------------------------------------------------------


class TestDeterminismTaint:
    def test_wallclock_into_simresult(self, tmp_path):
        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "import time\n"
                "def collect():\n"
                "    t = time.time()\n"
                "    return SimResult(completion_time=t)\n"
            ),
        })
        findings = rules_hit(tmp_path, "determinism-taint")
        assert [f.rule for f in findings] == ["determinism-taint"]
        assert "completion_time" in findings[0].message
        assert findings[0].explain  # the source→sink chain

    def test_taint_through_helper_return(self, tmp_path):
        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
                "def collect():\n"
                "    t = stamp()\n"
                "    return SimResult(completion_time=t)\n"
            ),
        })
        findings = rules_hit(tmp_path, "determinism-taint")
        assert findings and "stamp" in findings[0].explain

    def test_set_iteration_order_into_hash(self, tmp_path):
        write_tree(tmp_path, {
            "repro/scenario/x.py": (
                "import hashlib\n"
                "def key(items):\n"
                "    parts = ''\n"
                "    for item in {1, 2, 3}:\n"
                "        parts += str(item)\n"
                "    return hashlib.sha256(parts.encode())\n"
            ),
        })
        findings = rules_hit(tmp_path, "determinism-taint")
        assert findings and "iteration" in findings[0].message.lower()

    @pytest.mark.parametrize(
        "imports, read",
        [
            ("from time import perf_counter\n", "perf_counter()"),
            ("import time as t\n", "t.perf_counter()"),
        ],
        ids=["from-imported", "aliased"],
    )
    def test_clock_in_any_spelling_into_simresult(self, tmp_path, imports, read):
        write_tree(tmp_path, {
            "repro/oracle/x.py": imports + (
                "def collect():\n"
                f"    t0 = {read}\n"
                "    return SimResult(completion_time=t0)\n"
            ),
        })
        findings = rules_hit(tmp_path, "determinism-taint")
        assert [f.rule for f in findings] == ["determinism-taint"]
        assert "completion_time" in findings[0].message
        assert "time.perf_counter" in findings[0].message

    def test_clean_seed_derived_result(self, tmp_path):
        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "def collect(elapsed):\n"
                "    return SimResult(completion_time=elapsed)\n"
            ),
        })
        assert rules_hit(tmp_path, "determinism-taint") == []


# -- localities (unit) -----------------------------------------------------------


class TestLocalities:
    def test_substitution(self):
        from repro.lint.flow.model import param_loc, substitute_loc

        bindings = {"who": ACTING}
        assert substitute_loc(param_loc("who"), bindings) == ACTING
        assert substitute_loc(param_loc("missing"), bindings) == OTHER
        assert substitute_loc(GLOBAL, bindings) == GLOBAL

    def test_tuple_element_bindings(self):
        from repro.lint.flow.model import param_loc, substitute_loc

        bindings = {"payload": {0: ACTING, 1: OTHER}}
        assert substitute_loc(param_loc("payload", 0), bindings) == ACTING
        assert substitute_loc(param_loc("payload", 1), bindings) == OTHER


# -- CLI surface -----------------------------------------------------------------


class TestCliSurface:
    def test_explain_prints_trace(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "import time\n"
                "def collect():\n"
                "    t = time.time()\n"
                "    return SimResult(completion_time=t)\n"
            ),
        })
        assert main([
            "lint", str(tmp_path), "--no-baseline",
            "--rules", "determinism-taint", "--explain",
        ]) == 1
        out = capsys.readouterr().out
        assert "determinism-taint" in out
        assert "\n    " in out  # indented chain lines

    def test_github_format(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "members = {3, 1, 2}\n"
                "for pe in members:\n"
                "    pass\n"
            ),
        })
        assert main([
            "lint", str(tmp_path), "--no-baseline", "--format", "github",
        ]) == 1
        out = capsys.readouterr().out
        assert "::error file=repro/oracle/x.py,line=2," in out
        assert "unordered-iteration" in out

    def test_prune_baseline_round_trip(self, tmp_path, capsys):
        from repro.lint import Baseline, BaselineEntry

        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "members = {3, 1, 2}\n"
                "for pe in members:\n"
                "    pass\n"
            ),
        })
        target = tmp_path / "baseline.json"
        Baseline(entries=(
            BaselineEntry(
                "unordered-iteration", "repro/oracle/x.py",
                "for pe in members:", "grandfathered loop",
            ),
            BaselineEntry(
                "unordered-iteration", "repro/gone/y.py",
                "for q in others:", "stale — file was deleted",
            ),
        )).save(target)
        assert main([
            "lint", str(tmp_path), "--baseline", str(target),
            "--prune-baseline",
        ]) == 0
        kept = Baseline.load(target)
        assert [e.path for e in kept.entries] == ["repro/oracle/x.py"]
        # after pruning, the lint pass is clean under the kept baseline
        assert main(["lint", str(tmp_path), "--baseline", str(target)]) == 0

    def test_prune_without_baseline_errors(self, tmp_path):
        write_tree(tmp_path, {"repro/oracle/x.py": "pass\n"})
        assert main([
            "lint", str(tmp_path), "--no-baseline", "--prune-baseline",
        ]) == 2
