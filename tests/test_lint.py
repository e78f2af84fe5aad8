"""Tests for repro.lint — the determinism & invariant linter.

Every rule gets a pair of fixtures: one minimal tree that triggers it
(the test fails if the rule is deleted or broken) and one that is
clean.  On top of that: waiver syntax, baseline round-trips, the CLI
exit-code contract, and the self-lint gate — the real package must be
clean under the committed baseline.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Baseline, BaselineEntry, Finding, RULES, run_lint
from repro.lint.engine import collect_files, default_root

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "lint-baseline.json"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize ``files`` (package-relative paths) under ``root``."""
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def rules_hit(root: Path, *rules: str) -> list[Finding]:
    result = run_lint([root], rules=list(rules) or None)
    assert not result.errors, result.errors
    return result.findings


# -- per-rule fixtures: one triggering, one clean --------------------------------


class TestUnorderedIteration:
    def test_triggering(self, tmp_path):
        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "members = {3, 1, 2}\n"
                "total = 0\n"
                "for pe in members:\n"
                "    total += pe\n"
            ),
        })
        findings = rules_hit(tmp_path, "unordered-iteration")
        assert [f.rule for f in findings] == ["unordered-iteration"]
        assert findings[0].path == "repro/oracle/x.py"
        assert findings[0].line == 3

    def test_sum_over_set_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pdes/x.py": "vals = {1.0, 2.0}\ntotal = sum(vals)\n",
        })
        assert rules_hit(tmp_path, "unordered-iteration")

    def test_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/oracle/x.py": (
                "members = {3, 1, 2}\n"
                "total = 0\n"
                "for pe in sorted(members):\n"
                "    total += pe\n"
                "present = 2 in members\n"
                "count = len(members)\n"
            ),
            # outside the kernel scope, raw iteration is allowed
            "repro/obs/x.py": "s = {1, 2}\nfor v in s:\n    pass\n",
        })
        assert rules_hit(tmp_path, "unordered-iteration") == []

    def test_helper_return_iterated_raw(self, tmp_path):
        write_tree(tmp_path, {
            "repro/topology/x.py": (
                "def frontier():\n"
                "    return {3, 1, 2}\n"
                "def walk():\n"
                "    total = 0\n"
                "    for pe in frontier():\n"
                "        total += pe\n"
                "    return total\n"
            ),
        })
        findings = rules_hit(tmp_path, "unordered-iteration")
        assert [f.rule for f in findings] == ["unordered-iteration"]
        # no local construction to anchor on: the return-set fixpoint
        # sees the set cross the call
        assert "set-returning helper frontier()" in findings[0].message

    def test_aliased_helper_result(self, tmp_path):
        write_tree(tmp_path, {
            "repro/topology/x.py": (
                "def frontier():\n"
                "    return {3, 1, 2}\n"
                "def walk():\n"
                "    f = frontier()\n"
                "    return [pe for pe in f]\n"
            ),
        })
        assert rules_hit(tmp_path, "unordered-iteration")

    def test_method_helper_via_mro(self, tmp_path):
        write_tree(tmp_path, {
            "repro/topology/x.py": (
                "class Base:\n"
                "    def frontier(self):\n"
                "        return {c for c in self.channels}\n"
                "class Ring(Base):\n"
                "    def walk(self):\n"
                "        return sum(self.frontier())\n"
            ),
        })
        findings = rules_hit(tmp_path, "unordered-iteration")
        assert findings and "sum" in findings[0].message

    def test_clean_sorted_consumption(self, tmp_path):
        write_tree(tmp_path, {
            "repro/topology/x.py": (
                "def frontier():\n"
                "    return {3, 1, 2}\n"
                "def walk():\n"
                "    return [pe for pe in sorted(frontier())]\n"
                "def count():\n"
                "    return len(frontier())\n"
            ),
            # outside the kernel scope, raw iteration is allowed
            "repro/obs/x.py": (
                "def frontier():\n"
                "    return {1, 2}\n"
                "for v in frontier():\n"
                "    pass\n"
            ),
        })
        assert rules_hit(tmp_path, "unordered-iteration") == []


class TestGlobalRng:
    def test_triggering(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": (
                "import random\n"
                "def pick(items):\n"
                "    return random.choice(items)\n"
            ),
        })
        findings = rules_hit(tmp_path, "global-rng")
        assert findings and findings[0].rule == "global-rng"

    def test_from_import_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": "from random import shuffle\n",
        })
        assert rules_hit(tmp_path, "global-rng")

    def test_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": (
                "import random\n"
                "def pick(items, seed):\n"
                "    rng = random.Random(seed)\n"
                "    return rng.choice(items)\n"
            ),
        })
        assert rules_hit(tmp_path, "global-rng") == []


class TestWallClockInKernel:
    def test_triggering(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pdes/x.py": "import time\nstart = time.perf_counter()\n",
        })
        findings = rules_hit(tmp_path, "wall-clock-in-kernel")
        assert findings and findings[0].line == 2

    def test_clean_outside_kernel_and_waived_inside(self, tmp_path):
        write_tree(tmp_path, {
            "repro/obs/x.py": "import time\nstart = time.perf_counter()\n",
            "repro/pdes/x.py": (
                "import time\n"
                "wall = time.perf_counter()  # lint: ok[wall-clock-in-kernel] telemetry\n"
            ),
        })
        assert rules_hit(tmp_path, "wall-clock-in-kernel") == []


class TestTelemetryGuard:
    def test_unguarded_module_emit(self, tmp_path):
        write_tree(tmp_path, {
            "repro/parallel/x.py": (
                "from repro.obs import telemetry\n"
                "def report(n):\n"
                "    telemetry.emit('x.done', count=n)\n"
            ),
        })
        findings = rules_hit(tmp_path, "telemetry-guard")
        assert findings and findings[0].line == 3

    def test_unguarded_sink_var(self, tmp_path):
        write_tree(tmp_path, {
            "repro/parallel/x.py": (
                "from repro.obs import telemetry\n"
                "def report(n):\n"
                "    tele = telemetry.sink()\n"
                "    tele.emit('x.done', count=n)\n"
            ),
        })
        assert rules_hit(tmp_path, "telemetry-guard")

    def test_clean_guarded_forms(self, tmp_path):
        write_tree(tmp_path, {
            "repro/parallel/x.py": (
                "from repro.obs import telemetry\n"
                "def report(n):\n"
                "    tele = telemetry.sink()\n"
                "    if tele is not None:\n"
                "        tele.emit('x.done', count=n)\n"
                "def early(n):\n"
                "    tele = telemetry.sink()\n"
                "    if tele is None:\n"
                "        return\n"
                "    tele.emit('x.done', count=n)\n"
            ),
        })
        assert rules_hit(tmp_path, "telemetry-guard") == []


_SHARD_FIXTURE = "_LOGGED_COUNTERS = frozenset({'goals_created'})\n"


class TestUndoCoverage:
    def test_unlogged_counter(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pdes/shard.py": _SHARD_FIXTURE,
            "repro/oracle/stats.py": (
                "class StatsCollector:\n"
                "    def __init__(self):\n"
                "        self.goals_created = 0\n"
                "        self.responses_routed = 0\n"
            ),
        })
        findings = rules_hit(tmp_path, "undo-coverage")
        assert findings and "responses_routed" in findings[0].message

    def test_stale_logged_entry(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pdes/shard.py": (
                "_LOGGED_COUNTERS = frozenset({'goals_created', 'ghost'})\n"
            ),
            "repro/oracle/stats.py": (
                "class StatsCollector:\n"
                "    def __init__(self):\n"
                "        self.goals_created = 0\n"
            ),
        })
        findings = rules_hit(tmp_path, "undo-coverage")
        assert findings and "ghost" in findings[0].message

    def test_kernel_increment_of_unregistered_counter(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pdes/shard.py": _SHARD_FIXTURE,
            "repro/oracle/stats.py": (
                "class StatsCollector:\n"
                "    def __init__(self):\n"
                "        self.goals_created = 0\n"
            ),
            "repro/core/x.py": (
                "def act(stats):\n"
                "    stats.bonus_counter += 1\n"
            ),
        })
        findings = rules_hit(tmp_path, "undo-coverage")
        assert findings and "bonus_counter" in findings[0].message

    def test_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/pdes/shard.py": _SHARD_FIXTURE,
            "repro/oracle/stats.py": (
                "class StatsCollector:\n"
                "    def __init__(self):\n"
                "        self.goals_created = 0\n"
            ),
            "repro/core/x.py": (
                "def act(stats):\n"
                "    stats.goals_created += 1\n"
            ),
        })
        assert rules_hit(tmp_path, "undo-coverage") == []


class TestRegistryContract:
    def test_missing_example_and_overrides(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": (
                "class Foo(Strategy):\n"
                "    pass\n"
                "@STRATEGIES.register('foo', cls=Foo, metadata={'summary': 's'})\n"
                "def _build(rest):\n"
                "    return Foo()\n"
            ),
        })
        findings = rules_hit(tmp_path, "registry-contract")
        messages = " | ".join(f.message for f in findings)
        assert "example" in messages
        assert "never overrides Strategy.name" in messages
        assert "shardable" in messages

    def test_non_literal_name(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": (
                "name = 'foo'\n"
                "@STRATEGIES.register(name, metadata={'summary': 's', 'example': 'foo'})\n"
                "def _build(rest):\n"
                "    return None\n"
            ),
        })
        findings = rules_hit(tmp_path, "registry-contract")
        assert any("string literal" in f.message for f in findings)

    def test_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": (
                "class Foo(Strategy):\n"
                "    name = 'foo'\n"
                "    shardable = True\n"
                "@STRATEGIES.register('foo', cls=Foo,\n"
                "                     metadata={'summary': 's', 'example': 'foo'})\n"
                "def _build(rest):\n"
                "    return Foo()\n"
            ),
        })
        assert rules_hit(tmp_path, "registry-contract") == []


class TestForkUnsafeState:
    def test_mutated_module_dict(self, tmp_path):
        write_tree(tmp_path, {
            "repro/topology/x.py": (
                "_CACHE = {}\n"
                "def lookup(key):\n"
                "    _CACHE[key] = 1\n"
                "    return _CACHE[key]\n"
            ),
        })
        findings = rules_hit(tmp_path, "fork-unsafe-state")
        assert findings and "_CACHE" in findings[0].message
        assert findings[0].line == 1

    def test_clean_constant_table(self, tmp_path):
        write_tree(tmp_path, {
            # read-only module tables are fine; so is mutation of locals
            "repro/topology/x.py": (
                "_TABLE = {'grid': 9}\n"
                "def lookup(key):\n"
                "    local = {}\n"
                "    local[key] = _TABLE.get(key)\n"
                "    return local\n"
            ),
        })
        assert rules_hit(tmp_path, "fork-unsafe-state") == []


_SCENARIO_HEADER = (
    "class Scenario:\n"
    "    workload: str\n"
    "    topology: str\n"
    "    notes: str\n"
    "    seed: int\n"
)


class TestCacheKeyDrift:
    def test_field_missing_from_canonical_dict(self, tmp_path):
        write_tree(tmp_path, {
            "repro/scenario/scenario.py": _SCENARIO_HEADER + (
                "    def canonical(self):\n"
                "        return replace(self, seed=None)\n"
                "    def canonical_dict(self):\n"
                "        return {'workload': self.workload,\n"
                "                'topology': self.topology}\n"
            ),
        })
        findings = rules_hit(tmp_path, "cache-key-drift")
        assert findings and "notes" in findings[0].message

    def test_seed_fold_required(self, tmp_path):
        write_tree(tmp_path, {
            "repro/scenario/scenario.py": _SCENARIO_HEADER + (
                "    def canonical(self):\n"
                "        return self\n"
                "    def canonical_dict(self):\n"
                "        return {'workload': 1, 'topology': 2, 'notes': 3}\n"
            ),
        })
        findings = rules_hit(tmp_path, "cache-key-drift")
        assert any("folds the seed" in f.message for f in findings)

    def test_field_missing_from_the_hashed_text(self, tmp_path):
        # A text builder beside canonical_dict must write every field as
        # a JSON key too (seed is spliced into the config's text).
        body = (
            "    def canonical(self):\n"
            "        return replace(self, seed=None)\n"
            "    def canonical_dict(self):\n"
            "        return {'workload': 1, 'topology': 2, 'notes': 3}\n"
            "    def canonical_json(self):\n"
            "        return '{\"notes\":' + self.notes + ',\"topology\":' + self.topology + '}'\n"
        )
        write_tree(tmp_path, {"repro/scenario/scenario.py": _SCENARIO_HEADER + body})
        findings = rules_hit(tmp_path, "cache-key-drift")
        assert [f.message.split(" never")[0] for f in findings] == ["Scenario field 'workload'"]
        assert "canonical_json()" in findings[0].message
        whole = body.replace("self.topology", "self.topology + ',\"workload\":' + self.workload")
        write_tree(tmp_path, {"repro/scenario/scenario.py": _SCENARIO_HEADER + whole})
        assert rules_hit(tmp_path, "cache-key-drift") == []

    def test_simconfig_field_without_coercer(self, tmp_path):
        write_tree(tmp_path, {
            "repro/oracle/config.py": (
                "_CFG_COERCE = {'seed': int}\n"
                "class SimConfig:\n"
                "    seed: int\n"
                "    brand_new_knob: float\n"
            ),
        })
        findings = rules_hit(tmp_path, "cache-key-drift")
        assert findings and "brand_new_knob" in findings[0].message

    def test_clean(self, tmp_path):
        write_tree(tmp_path, {
            "repro/scenario/scenario.py": _SCENARIO_HEADER + (
                "    def canonical(self):\n"
                "        return replace(self, seed=None)\n"
                "    def canonical_dict(self):\n"
                "        return {'workload': 1, 'topology': 2, 'notes': 3}\n"
            ),
            "repro/oracle/config.py": (
                "_CFG_COERCE = {'seed': int}\n"
                "class SimConfig:\n"
                "    seed: int\n"
            ),
        })
        assert rules_hit(tmp_path, "cache-key-drift") == []


# -- waivers, baseline, engine mechanics -----------------------------------------


class TestWaivers:
    def test_inline_and_line_above(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": (
                "import random\n"
                "a = random.choice([1])  # lint: ok[global-rng] test data only\n"
                "# lint: ok[global-rng] covered by the line-above form\n"
                "b = random.choice([2])\n"
            ),
        })
        result = run_lint([tmp_path], rules=["global-rng"])
        # the bare `import random` line carries no waiver but is not a
        # finding by itself; both .choice sites are waived
        assert result.findings == []
        assert len(result.waived) == 2

    def test_waiver_names_other_rule(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/x.py": (
                "import random\n"
                "a = random.choice([1])  # lint: ok[wall-clock-in-kernel] wrong rule\n"
            ),
        })
        result = run_lint([tmp_path], rules=["global-rng"])
        assert len(result.findings) == 1


class TestBaseline:
    def _finding_tree(self, tmp_path):
        return write_tree(tmp_path, {
            "repro/core/x.py": "import random\na = random.choice([1])\n",
        })

    def test_suppresses_by_anchor_not_line(self, tmp_path):
        root = self._finding_tree(tmp_path)
        baseline = Baseline(entries=(
            BaselineEntry(
                rule="global-rng",
                path="repro/core/x.py",
                anchor="a = random.choice([1])",
                reason="grandfathered for the test",
            ),
        ))
        result = run_lint([root], baseline=baseline, rules=["global-rng"])
        assert result.findings == []
        assert len(result.baselined) == 1
        assert result.stale_baseline == []

    def test_stale_entries_are_reported(self, tmp_path):
        root = self._finding_tree(tmp_path)
        baseline = Baseline(entries=(
            BaselineEntry("global-rng", "repro/core/gone.py", "x = 1", "stale"),
        ))
        result = run_lint([root], baseline=baseline, rules=["global-rng"])
        assert len(result.findings) == 1
        assert len(result.stale_baseline) == 1
        assert "stale-baseline" in result.render_text()

    def test_load_rejects_missing_reason(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "schema": 1,
            "entries": [
                {"rule": "r", "path": "p", "anchor": "a", "reason": "  "},
            ],
        }))
        with pytest.raises(ValueError, match="reason"):
            Baseline.load(path)

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 99, "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(path)

    def test_save_load_round_trip(self, tmp_path):
        entry = BaselineEntry("r", "p.py", "x = 1", "because")
        path = tmp_path / "baseline.json"
        Baseline(entries=(entry,)).save(path)
        assert Baseline.load(path).entries == (entry,)


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        write_tree(tmp_path, {"repro/core/x.py": "def broken(:\n"})
        result = run_lint([tmp_path])
        assert result.errors and not result.clean
        assert "parse-error" in result.render_text()

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint([tmp_path / "nope"])

    def test_collect_files_skips_caches(self, tmp_path):
        write_tree(tmp_path, {
            "repro/a.py": "x = 1\n",
            "repro/__pycache__/a.py": "x = 1\n",
        })
        files = collect_files([tmp_path])
        assert [p.name for p in files] == ["a.py"]

    def test_json_report_shape(self, tmp_path):
        write_tree(tmp_path, {"repro/core/x.py": "import random\na = random.random()\n"})
        result = run_lint([tmp_path], rules=["global-rng"])
        payload = json.loads(result.render_json())
        assert payload["schema"] == 1
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "global-rng"


# -- the CLI exit-code contract --------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/core/x.py": "x = 1\n"})
        assert main(["lint", str(tmp_path), "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/core/x.py": "import random\na = random.random()\n"})
        assert main(["lint", str(tmp_path), "--no-baseline"]) == 1
        assert "[global-rng]" in capsys.readouterr().out

    def test_bad_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/core/x.py": "x = 1\n"})
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        assert main(["lint", str(tmp_path), "--baseline", str(bad)]) == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/core/x.py": "x = 1\n"})
        assert main(["lint", str(tmp_path), "--rules", "no-such-rule"]) == 2

    def test_rules_subset(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/core/x.py": "import random\na = random.random()\n",
        })
        assert (
            main(["lint", str(tmp_path), "--no-baseline",
                  "--rules", "wall-clock-in-kernel"])
            == 0
        )

    def test_json_format(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/core/x.py": "x = 1\n"})
        assert main(["lint", str(tmp_path), "--no-baseline", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES.names():
            assert rule in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/core/x.py": "import random\na = random.random()\n"})
        target = tmp_path / "baseline.json"
        assert (
            main(["lint", str(tmp_path), "--baseline", str(target),
                  "--write-baseline"])
            == 0
        )
        assert target.is_file()
        capsys.readouterr()
        assert main(["lint", str(tmp_path), "--baseline", str(target)]) == 0


# -- the registry and the self-lint gate -----------------------------------------


class TestRegistry:
    def test_rule_set_is_exact(self):
        assert set(RULES.names()) == {
            "cache-key-drift",
            "determinism-taint",
            "fork-unsafe-state",
            "global-rng",
            "registry-contract",
            "shardable-contract",
            "telemetry-guard",
            "undo-coverage",
            "unordered-iteration",
            "wall-clock-in-kernel",
        }

    def test_docs_rule_table_names_every_rule(self):
        table = re.findall(
            r"^\| `([a-z-]+)` \|", (REPO_ROOT / "docs" / "lint.md").read_text(), re.M
        )
        assert sorted(table) == sorted(RULES.names())

    def test_every_rule_has_a_summary(self):
        for name in RULES.names():
            entry = RULES.entry(name)
            assert entry.metadata.get("summary"), name

    def test_rule_id_matches_registry_name(self):
        for name in RULES.names():
            assert RULES.make(name).id == name


class TestSelfLint:
    def test_repo_is_clean_under_committed_baseline(self):
        baseline = Baseline.load(BASELINE)
        result = run_lint([default_root()], baseline=baseline)
        assert result.findings == [], result.render_text()
        assert result.errors == []
        assert list(result.stale_baseline) == [], (
            "stale baseline entries — delete them from lint-baseline.json"
        )

    def test_committed_baseline_stays_small(self):
        baseline = Baseline.load(BASELINE)
        assert len(baseline.entries) <= 10, (
            "the baseline is a list of justified debts, not a dumping "
            "ground — fix findings instead of adding entries"
        )
