"""The Scenario currency: spec grammar, content hashing, equivalence.

Three contracts are load-bearing enough to pin exactly:

* **hash stability** — content hashes for pre-Scenario runs must be
  byte-identical to the ones the pre-Scenario farm produced (the literal
  digests below were captured from the PR-4 implementation), so warm
  result caches keep hitting across the redesign;
* **golden equivalence** — a machine wired by hand from the registries,
  the scenario object, its farm task, and the spec grammar must all
  produce bit-identical results;
* **round-tripping** — for every registered strategy/topology/workload,
  canonical spellings are fixed points and ``Scenario.from_spec`` is a
  hash-preserving inverse of ``Scenario.spec``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import CWN, STRATEGIES, make_strategy, spec_of as strategy_spec_of
from repro.core import canonical_spec as canonical_strategy
from repro.oracle.config import CostModel, SimConfig
from repro.oracle.machine import Machine
from repro.parallel import ResultCache, run_batch
from repro.parallel.pool import task_json
from repro.scenario import Arrivals, Scenario
from repro.topology import (
    TOPOLOGIES,
    Grid,
    make as make_topology,
    spec_of as topology_spec_of,
)
from repro.workload import (
    WORKLOADS,
    Fibonacci,
    make as make_workload,
    spec_of as workload_spec_of,
)


def assert_results_equal(a, b):
    assert a.completion_time == b.completion_time
    assert a.total_goals == b.total_goals
    assert a.events_executed == b.events_executed
    assert a.goal_messages_sent == b.goal_messages_sent
    assert a.response_messages_sent == b.response_messages_sent
    assert a.result_value == b.result_value
    assert np.array_equal(a.busy_time, b.busy_time)
    assert a.hop_histogram == b.hop_histogram


#: (Scenario kwargs, sha256) captured from the pre-Scenario implementation,
#: where they were the kwargs and key() of the farm's RunSpec.
#: These digests address real cache entries on users' disks — they must
#: never change.
GOLDEN_KEYS = [
    (dict(workload="fib:15", topology="grid:10x10", strategy="cwn"),
     "8bdae2cc878ea8b0de0600d4567c8887b3d1627dfda5548c29ef085fa7dad4a1"),
    (dict(workload="fib:13", topology="grid:8x8", strategy="gm", seed=3),
     "06280bcaf76962ecd7782433c62a9cf14012f3f107ffd692bcf6fa943da773e8"),
    (dict(workload="dc:1:987", topology="dlm:5x10x10", strategy="cwn", seed=1),
     "8708a810cb7121f4c0ec3fc4586e05e6c8c467d404d3a4f6d141593d133bc30b"),
    (dict(workload="fib:11", topology="hypercube:6", strategy="acwn", seed=2),
     "6b42b4edbe984b0a2ab732cac64f3a7965634145a0fa460f453a4de7f2f35180"),
    (dict(workload="fib:9", topology="grid:5x5", strategy="stealing",
          config=SimConfig(costs=CostModel.high_comm()), seed=4),
     "fae875c4929e9fefd671361e40569adc95894c399abfb7a7d8d20edd0de75f85"),
    (dict(workload="fib:12", topology="grid:8x8", strategy="cwn",
          arrivals=Arrivals(4, 150.0), seed=5),
     "9538b3ca5b842fb9f39b62ad40cbb6aa84bbdabf2427c9e14f3354a23961def4"),
    (dict(workload="fib:10", topology="grid:4x4", strategy="gm",
          arrivals=Arrivals(1, pes=(3,))),
     "ee3a83a5219662fcee0df7151f8cd9822f5fd64c48b4d22bea20112db871d7a9"),
    (dict(workload="fib:10", topology="grid:4x4", strategy="threshold",
          arrivals=Arrivals(2, times=(0.0, 50.0))),
     "4129806aa1d63d3ca318eeccb3de7ee8b0c3d1fd051e5ff0c06759c85829883f"),
    (dict(workload="skewed:300:0.8", topology="ring:16", strategy="diffusion", seed=7),
     "652a024b49169824aaf4190758bc16d065761de61552e025e25016238e75f4f6"),
    (dict(workload="uts:seed=1,b0=12,q=0.4,m=2", topology="torus3d:4x4x4",
          strategy="symmetric", seed=9, start_pe=5),
     "0e017e2793ab0551938bdbdd1582462ffd6e92a26527b1feefc90bed5906baa9"),
]


#: "<workload> @ <topology> / <strategy>?seed=1" -> sha256, written from
#: the tree before the registries memoized canonical spellings: every
#: strategy (bare, and as its example) on a grid and on a DLM, since bare
#: names resolve per topology family; every topology example under
#: fib:9 / cwn; every workload example on grid:4x4 / cwn.  A new kind
#: needs its line here (its key is ``Scenario.from_spec(spec).content_hash()``).
REGISTRY_KEYS = json.loads(
    (Path(__file__).parent / "golden" / "registry_keys.json").read_text()
)


def registry_key_specs() -> set[str]:
    """The specs the registry golden file must pin, from the live registries."""
    specs = set()
    for topology in ("grid:4x4", "dlm:5x5x5"):
        for name in STRATEGIES.names():
            for strategy in (name, STRATEGIES.metadata(name)["example"]):
                specs.add(f"fib:9 @ {topology} / {strategy}?seed=1")
    for name in TOPOLOGIES.names():
        specs.add(f"fib:9 @ {TOPOLOGIES.metadata(name)['example']} / cwn?seed=1")
    for name in WORKLOADS.names():
        specs.add(f"{WORKLOADS.metadata(name)['example']} @ grid:4x4 / cwn?seed=1")
    return specs


def _dumped(sc: Scenario) -> str:
    """What the hashed text must equal: the canonical dict through json.dumps."""
    return json.dumps(sc.canonical_dict(), sort_keys=True, separators=(",", ":"))


@pytest.fixture
def cold_memos(monkeypatch):
    """Every registry's canonical memo emptied for one test (restored after)."""
    for registry in (STRATEGIES, TOPOLOGIES, WORKLOADS):
        monkeypatch.setattr(registry, "_canonical", {})


class TestHashStability:
    @pytest.mark.parametrize("kwargs,expected", GOLDEN_KEYS,
                             ids=[k[0]["strategy"] + "-" + str(i) for i, k in enumerate(GOLDEN_KEYS)])
    def test_runspec_keys_unchanged(self, kwargs, expected):
        assert Scenario(**kwargs).content_hash() == expected

    @pytest.mark.parametrize("kwargs,expected", GOLDEN_KEYS[:4],
                             ids=["sc0", "sc1", "sc2", "sc3"])
    def test_scenario_hash_is_the_runspec_key(self, kwargs, expected, tmp_path):
        # The hash is SHA-256 over the compact sorted canonical dict,
        # and it is the cache's address for the run.
        sc = Scenario(**kwargs)
        canonical = json.dumps(sc.canonical_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == expected
        assert ResultCache(tmp_path).path_for(sc).stem == expected

    def test_fresh_hash_builds_its_topology_once(self, monkeypatch, cold_memos):
        # A process builds each spelling once: the first hash that meets
        # it fills the registry's memo, and fresh scenarios with the same
        # spellings then build no topology, strategy or workload at all.
        built = {registry: [] for registry in (STRATEGIES, TOPOLOGIES, WORKLOADS)}
        for registry, log in built.items():
            def counting(spec, _make=registry.make, _log=log, **context):
                _log.append((spec, *sorted(context.items())))
                return _make(spec, **context)

            monkeypatch.setattr(registry, "make", counting)
        for kwargs, _ in GOLDEN_KEYS:
            Scenario(**kwargs).content_hash()
        topologies = [kwargs["topology"] for kwargs, _ in GOLDEN_KEYS]
        assert built[TOPOLOGIES] == [(spec,) for spec in dict.fromkeys(topologies)]
        for log in built.values():
            assert log and len(set(log)) == len(log)
            log.clear()
        for kwargs, expected in GOLDEN_KEYS:
            assert Scenario(**kwargs).content_hash() == expected
        assert built == {registry: [] for registry in built}

    def test_warm_hash_builds_no_scenario_or_config(self, monkeypatch):
        # On a warm memo the hashed form is assembled from the registries'
        # spellings and the config's memoized serialization: a fresh
        # scenario's hash constructs neither a Scenario nor a SimConfig.
        for kwargs, _ in GOLDEN_KEYS:
            Scenario(**kwargs).content_hash()
        fresh = [Scenario(**kwargs) for kwargs, _ in GOLDEN_KEYS]
        built: list[str] = []
        for cls in (Scenario, SimConfig):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        assert [sc.content_hash() for sc in fresh] == [key for _, key in GOLDEN_KEYS]
        assert built == []
        # The object form folds the seed into a new config: the counter is live.
        fresh[1].canonical()
        assert sorted(built) == ["Scenario", "SimConfig"]

    def test_object_form_serializes_to_the_hashed_form(self):
        # canonical() (the Scenario that `spec` spells) carries a SimConfig
        # where canonical_dict() carries its serialization; both come from
        # one set of parts and must agree exactly.
        scenarios = [Scenario(**kwargs) for kwargs, _ in GOLDEN_KEYS]
        scenarios += [Scenario.from_spec(spec) for spec in sorted(REGISTRY_KEYS)]
        for sc in scenarios:
            assert sc.canonical().canonical_dict() == sc.canonical_dict(), sc
            assert Scenario.from_spec(sc.spec).content_hash() == sc.content_hash(), sc

    def test_mutating_a_config_dict_changes_no_later_key(self):
        spec = "fib:9 @ grid:4x4 / cwn?seed=1"
        sc = Scenario.from_spec(spec)
        assert sc.content_hash() == REGISTRY_KEYS[spec]
        for config in (sc.config, SimConfig()):
            data = config.to_dict()
            data["seed"] = 99
            data["costs"]["leaf_work"] = 1.0
        assert Scenario.from_spec(spec).content_hash() == REGISTRY_KEYS[spec]
        unseeded = Scenario.from_spec("fib:9 @ grid:4x4 / cwn")
        own_config = Scenario("fib:9", "grid:4x4", "cwn", config=SimConfig())
        assert unseeded.content_hash() == own_config.content_hash()

    def test_every_seed_spelling_hashes_alike(self):
        base = "fib:9 @ grid:4x4 / cwn"
        threes = [
            Scenario.from_spec(f"{base}?seed=3"),
            Scenario.from_spec(f"{base}?cfg.seed=3"),
            Scenario("fib:9", "grid:4x4", "cwn", seed=3),
            Scenario("fib:9", "grid:4x4", "cwn", config=SimConfig(seed=3)),
            # the scenario-level seed overrides the config's
            Scenario("fib:9", "grid:4x4", "cwn", config=SimConfig(seed=4), seed=3),
        ]
        assert len({sc.content_hash() for sc in threes}) == 1
        assert Scenario.from_spec(f"{base}?seed=4").content_hash() != threes[0].content_hash()

    def test_hashed_text_is_the_dumped_canonical_dict(self):
        # content_hash digests text spliced from the canonical parts, not
        # json.dumps of the dict; the two must agree byte for byte.
        base = "fib:9 @ grid:4x4 / cwn"
        scenarios = [Scenario(**kwargs) for kwargs, _ in GOLDEN_KEYS]
        for spec in sorted(REGISTRY_KEYS):
            scenarios += [Scenario.from_spec(spec), Scenario.from_spec(Scenario.from_spec(spec).spec)]
        scenarios += [
            Scenario.from_spec(f"{base}?seed=3"),
            Scenario.from_spec(f"{base}?cfg.seed=3"),
            Scenario("fib:9", "grid:4x4", "cwn", seed=3),
            Scenario("fib:9", "grid:4x4", "cwn", config=SimConfig(seed=3)),
            Scenario("fib:9", "grid:4x4", "cwn", config=SimConfig(seed=4), seed=3),
            Scenario("fib:9", "grid:4x4", "cwn", arrivals=Arrivals(3, 25.0, pes=(0, 5, 9))),
            Scenario.from_spec(f"{base}?queries=2&times=0;12.5&start=3"),
            Scenario.from_spec(
                f"{base}?seed=2&cfg.load_info=channel&cfg.max_events=none"
                f"&cfg.trace_hops=false&cost.word_time=2.5&cost.leaf_work=0.1"
            ),
        ]
        for sc in scenarios:
            text = sc.canonical_json()
            assert text == _dumped(sc), sc
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sc.content_hash()

    def test_bool_and_numpy_seeds_behave_as_json_dumps(self):
        # A str() splice would write True where json writes true, and
        # 3 where json refuses a numpy integer.
        def seeded(seed):
            return [
                Scenario("fib:9", "grid:4x4", "cwn", seed=seed),
                Scenario("fib:9", "grid:4x4", "cwn", config=SimConfig(seed=seed)),
            ]

        for seed, spelled in ((True, '"seed":true'), (False, '"seed":false')):
            for sc in seeded(seed):
                assert sc.canonical_json() == _dumped(sc)
                assert spelled in sc.canonical_json()
        for odd in (np.int64(3), np.int32(3)):
            for sc in seeded(odd) + [Scenario("fib:9", "grid:4x4", "cwn", start_pe=odd)]:
                with pytest.raises(TypeError, match="not JSON serializable"):
                    _dumped(sc)
                with pytest.raises(TypeError, match="not JSON serializable"):
                    sc.canonical_json()

    def test_text_memos_are_private_state(self):
        config = SimConfig(seed=3, load_info="channel")
        sc = Scenario("fib:9", "grid:4x4", "cwn", config=config)
        sc.content_hash()
        assert "_serialized_json" in config.__dict__
        twin = SimConfig(seed=3, load_info="channel")
        assert config == twin and hash(config) == hash(twin)
        assert "_serialized_json" not in config.replace(seed=4).__dict__
        assert config.to_dict() is not config.to_dict()
        assert config.to_dict() == config.serialized()
        assert sc == Scenario("fib:9", "grid:4x4", "cwn", config=twin)

    def test_golden_registry_keys_cover_every_kind(self):
        assert set(REGISTRY_KEYS) == registry_key_specs()

    @pytest.mark.parametrize("spec", sorted(REGISTRY_KEYS))
    def test_registry_keys_unchanged(self, spec, cold_memos):
        # Once through an empty memo, once through the one that filled.
        assert Scenario.from_spec(spec).content_hash() == REGISTRY_KEYS[spec]
        assert Scenario.from_spec(spec).content_hash() == REGISTRY_KEYS[spec]

    def test_warm_cache_written_before_redesign_still_hits(self, tmp_path):
        """A result cached under the scenario's hash is found by every
        other spelling of the same run (the PR-4 warm-cache contract)."""
        cache = ResultCache(tmp_path)
        first = run_batch(
            [Scenario("fib:9", "grid:4x4", "cwn", seed=1)], cache=cache
        )
        assert (first.hits, first.simulated) == (0, 1)
        respelled = Scenario.from_spec("FIB:9 @ grid:4x4 / cwn:radius=9,horizon=2?seed=1")
        again = run_batch([respelled], cache=cache)
        assert (again.hits, again.simulated) == (1, 0)
        assert_results_equal(first.results[0], again.results[0])


class TestOneKeyOneResult:
    """Every spelling of one key runs to the same bytes."""

    @pytest.mark.parametrize("topology", ["grid:4x4", "dlm:5x5x5", "hypercube:4", "ring:8"])
    def test_bare_canonical_and_constructed_strategies_agree(self, topology):
        # A bare name takes paper Table 1's parameters, a canonical
        # spelling parses them as floats, and a constructor takes what
        # it is given: all three share a key, so they must share a result.
        from repro.parallel import result_json

        family = make_topology(topology).family
        for name in STRATEGIES.names():
            canonical = canonical_strategy(name, family=family)
            built = make_strategy(canonical, family=family)
            constructed = type(built)(**built.describe_params())
            runs = [Scenario("fib:8", topology, s, seed=1) for s in (name, canonical, constructed)]
            assert len({sc.content_hash() for sc in runs}) == 1, (name, topology)
            assert len({result_json(sc.run()) for sc in runs}) == 1, (name, topology)


class TestGoldenEquivalence:
    CASES = [
        dict(workload="fib:10", topology="grid:4x4", strategy="cwn", seed=3),
        dict(workload="dc:1:144", topology="dlm:4x4x4", strategy="gm", seed=1),
        dict(workload="fib:9", topology="hypercube:4", strategy="acwn", seed=2),
        dict(workload="fib:9", topology="grid:4x4", strategy="stealing",
             seed=5, arrivals=Arrivals(3, 120.0)),
        dict(workload="fib:8", topology="ring:8", strategy="threshold",
             seed=4, arrivals=Arrivals(2, times=(0.0, 77.5), pes=(0, 5))),
    ]

    @staticmethod
    def _machine(workload, topology, strategy, seed=None, arrivals=None):
        """The case's machine wired by hand from the registries."""
        topo = make_topology(topology)
        return Machine(
            topo,
            make_workload(workload),
            make_strategy(strategy, family=topo.family),
            SimConfig(seed=seed or 0),
            arrivals=arrivals,
        )

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c["strategy"])
    def test_simulate_equals_scenario_run(self, case):
        direct = self._machine(**case).run()
        scenario = Scenario(**case)
        assert_results_equal(direct, scenario.run())
        assert_results_equal(direct, Scenario.from_dict(json.loads(task_json(scenario))).run())
        assert_results_equal(direct, Scenario.from_spec(scenario.spec).run())

    def test_build_machine_is_scenario_build(self):
        machine = self._machine("fib:9", "grid:4x4", "cwn", arrivals=Arrivals(2, 10.0))
        twin = Scenario("fib:9", "grid:4x4", "cwn", arrivals=Arrivals(2, 10.0)).build()
        assert machine.arrivals == twin.arrivals
        assert machine.strategy.radius == twin.strategy.radius
        assert machine.topology.n == twin.topology.n

    def test_from_spec_runs_identically(self):
        direct = Scenario("fib:10", "grid:4x4", "cwn", seed=2).run()
        parsed = Scenario.from_spec("fib:10 @ grid:4x4 / cwn?seed=2").run()
        assert_results_equal(direct, parsed)


class TestSpecGrammar:
    def test_canonical_spec_string(self):
        sc = Scenario("FIB:15", "grid:10x10", "cwn")
        assert sc.spec == "fib:15 @ grid:10x10 / cwn:radius=9,horizon=2"

    def test_overrides_round_trip(self):
        sc = Scenario(
            "fib:12", "grid:8x8", "gm",
            config=SimConfig(load_info="periodic", costs=CostModel(word_time=10.0)),
            seed=9, start_pe=3, arrivals=Arrivals(4, 150.0),
        )
        text = sc.spec
        assert "?" in text
        again = Scenario.from_spec(text)
        assert again.content_hash() == sc.content_hash()
        assert again.spec == text  # emission is a fixed point

    def test_times_and_pes_round_trip(self):
        sc = Scenario("fib:10", "grid:4x4", "cwn", seed=1,
                      arrivals=Arrivals(2, times=(0.0, 50.25), pes=(1, 9)))
        again = Scenario.from_spec(sc.spec)
        assert again.arrivals == sc.arrivals.canonical()
        assert again.content_hash() == sc.content_hash()

    def test_cfg_and_cost_overrides_parse(self):
        sc = Scenario.from_spec(
            "fib:9 @ grid:4x4 / cwn?cfg.queue_discipline=lifo&cost.leaf_work=25&cfg.max_events=none"
        )
        assert sc.config.queue_discipline == "lifo"
        assert sc.config.costs.leaf_work == 25.0
        assert sc.config.max_events is None

    def test_malformed_spec_raises_with_grammar(self):
        with pytest.raises(ValueError, match="expected"):
            Scenario.from_spec("fib:9 grid:4x4 cwn")
        with pytest.raises(ValueError, match="key=value"):
            Scenario.from_spec("fib:9 @ grid:4x4 / cwn?seed")

    def test_unknown_override_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'seed'"):
            Scenario.from_spec("fib:9 @ grid:4x4 / cwn?sede=3")
        with pytest.raises(ValueError, match="unknown config override"):
            Scenario.from_spec("fib:9 @ grid:4x4 / cwn?cfg.bogus=3")

    def test_cfg_seed_promoted_to_scenario_seed(self):
        # Every explicit seed spelling — including cfg.seed=0 — must be
        # visible to `scenario.seed is None` consumers (the CLI's
        # default-seed rule).
        assert Scenario.from_spec("fib:9 @ grid:4x4 / cwn?cfg.seed=0").seed == 0
        assert Scenario.from_spec("fib:9 @ grid:4x4 / cwn?cfg.seed=7").seed == 7
        assert Scenario.from_spec("fib:9 @ grid:4x4 / cwn").seed is None

    @pytest.mark.parametrize("query", [
        "queries=2&times=0;nan", "queries=2&times=0;inf", "queries=2&spacing=inf",
        "queries=2&spacing=nan", "cost.leaf_work=nan", "cost.word_time=inf",
        "cfg.load_info_delay=nan", "cfg.load_info_interval=inf", "cfg.sample_interval=nan",
    ])
    def test_non_finite_numbers_rejected(self, query):
        with pytest.raises(ValueError, match="finite"):
            Scenario.from_spec(f"fib:9 @ grid:2x2 / cwn?{query}")

    @pytest.mark.parametrize("query,message", [
        ("start=7", "start_pe 7 outside 0..3"),
        ("queries=2&pes=0;9", "valid PE"),
    ])
    def test_out_of_range_pes_fail_the_hash_not_the_run(self, query, message, cold_memos):
        # The topology's memo entry is filled by the first try, so the
        # second meets the same check on a hit: failures are never kept.
        for _ in range(2):
            sc = Scenario.from_spec(f"fib:9 @ grid:2x2 / cwn?{query}")
            with pytest.raises(ValueError, match=message):
                sc.content_hash()

    def test_pe_speeds_has_no_spelling(self):
        sc = Scenario("fib:9", "grid:4x4", "cwn", config=SimConfig(pe_speeds=(1.0,) * 16))
        with pytest.raises(ValueError, match="pe_speeds"):
            _ = sc.spec


class TestRegistryRoundTrips:
    """Satellite contract: every registered name round-trips canonically."""

    def test_every_strategy_spec_is_canonical(self):
        for name in STRATEGIES.names():
            built = make_strategy(name)
            spelled = strategy_spec_of(built)
            assert canonical_strategy(spelled) == spelled
            sc = Scenario("fib:9", "grid:4x4", name, seed=1)
            assert Scenario.from_spec(sc.spec).content_hash() == sc.content_hash()

    def test_every_topology_example_is_canonical(self):
        for name in TOPOLOGIES.names():
            example = TOPOLOGIES.metadata(name)["example"]
            built = make_topology(example)
            spelled = topology_spec_of(built)
            assert topology_spec_of(make_topology(spelled)) == spelled
            sc = Scenario("fib:9", example, "local", seed=1)
            assert Scenario.from_spec(sc.spec).content_hash() == sc.content_hash()

    def test_every_workload_example_is_canonical(self):
        for name in WORKLOADS.names():
            example = WORKLOADS.metadata(name)["example"]
            built = make_workload(example)
            spelled = workload_spec_of(built)
            assert workload_spec_of(make_workload(spelled)) == spelled
            sc = Scenario(example, "grid:4x4", "local", seed=1)
            assert Scenario.from_spec(sc.spec).content_hash() == sc.content_hash()


class TestArrivals:
    def test_from_args_normalizes_sequences(self):
        a = Arrivals(2, 0.0, [0, 1], None)
        assert a.pes == (0, 1) and isinstance(a.pes, tuple)
        assert Arrivals(2, 0.0, (0, 1), None) == a
        assert Arrivals(2, times=[0, 5]).times == (0.0, 5.0)

    def test_validation_lives_in_one_place(self):
        with pytest.raises(ValueError, match="queries"):
            Arrivals(queries=0)
        with pytest.raises(ValueError, match=">= 0"):
            Arrivals(queries=2, spacing=-1.0)
        with pytest.raises(ValueError, match="entries"):
            Arrivals(queries=2, pes=(0,))
        with pytest.raises(ValueError, match="entries"):
            Arrivals(queries=3, times=(0.0,))
        with pytest.raises(ValueError, match="not both"):
            Arrivals(queries=2, spacing=5.0, times=(0.0, 1.0))
        with pytest.raises(ValueError, match="non-negative"):
            Arrivals(queries=2, times=(0.0, -1.0))

    def test_canonical_zeroes_unread_spacing(self):
        assert Arrivals(1, 99.0).canonical() == Arrivals()
        assert Arrivals(2, 99.0).canonical() == Arrivals(2, 99.0)

    def test_machine_accepts_arrivals_value(self, grid4, fast_config):
        built = Scenario(Fibonacci(9), grid4, CWN(radius=3, horizon=1), fast_config,
                         arrivals=Arrivals(2, 50.0)).build()
        bundled = Machine(Grid(4, 4), Fibonacci(9), CWN(radius=3, horizon=1),
                          fast_config, arrivals=Arrivals(2, 50.0))
        assert built.arrivals == bundled.arrivals
        assert_results_equal(built.run(), bundled.run())

    def test_machine_rejects_both_spellings(self, grid4, fast_config):
        """Machine and Scenario take ``arrivals=`` only, never loose knobs."""
        with pytest.raises(TypeError, match="queries"):
            Machine(grid4, Fibonacci(9), CWN(radius=3, horizon=1), fast_config,
                    queries=2, arrivals=Arrivals(2, 50.0))
        with pytest.raises(TypeError, match="queries"):
            Scenario(Fibonacci(9), grid4, CWN(radius=3, horizon=1), fast_config,
                     queries=2)

    def test_machine_still_checks_pe_range(self, grid4, fast_config):
        with pytest.raises(ValueError, match="valid PE"):
            Machine(grid4, Fibonacci(9), CWN(radius=3, horizon=1), fast_config,
                    arrivals=Arrivals(2, pes=[0, 99]))

    def test_dict_round_trip(self):
        a = Arrivals(3, 0.0, (0, 1, 2), None)
        assert Arrivals.from_dict(a.to_dict()) == a


class TestScenarioObjects:
    def test_objects_are_spelled_canonically(self):
        sc = Scenario(Fibonacci(9), Grid(4, 4), CWN(radius=3, horizon=1))
        spelled = sc.spelled()
        assert spelled.workload == "fib:9"
        assert spelled.topology == "grid:4x4"
        assert spelled.strategy == "cwn:radius=3,horizon=1"

    def test_unspellable_objects_degrade_to_local_runs(self, tmp_path):
        sc = Scenario(Fibonacci(9), Grid(4, 4), CWN(radius=3, horizon=1, tie_break="lowest"))
        with pytest.raises(ValueError):
            sc.spelled()
        cache = ResultCache(tmp_path)
        report = run_batch([sc], cache=cache)
        assert (report.local, report.simulated) == (1, 0)
        assert cache.stats().entries == 0
        assert report.results[0].result_value == 34

    def test_spellable_objects_become_runspecs(self, tmp_path):
        sc = Scenario(Fibonacci(9), Grid(4, 4), "cwn", seed=1)
        assert sc.spelled().workload == "fib:9"
        cache = ResultCache(tmp_path)
        report = run_batch([sc], cache=cache)
        assert (report.local, report.simulated) == (0, 1)
        assert cache.get(Scenario("fib:9", "grid:4x4", "cwn", seed=1)) is not None

    def test_dict_round_trip_preserves_hash(self):
        sc = Scenario("fib:10", "grid:4x4", "cwn", seed=2, arrivals=Arrivals(2, 30.0))
        again = Scenario.from_dict(sc.to_dict())
        assert again == sc
        assert again.content_hash() == sc.content_hash()

    def test_runspec_scenario_round_trip(self):
        # The fleet's task JSON round-trips a scenario exactly.
        sc = Scenario("fib:10", "grid:4x4", "cwn", seed=2, arrivals=Arrivals(2, 30.0))
        assert Scenario.from_dict(json.loads(task_json(sc))) == sc
