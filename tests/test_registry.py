"""The plugin registries behind make_strategy / topology.make / workload.make."""

from __future__ import annotations

import pytest

from repro.core import STRATEGIES, KeepLocal, make_strategy
from repro.scenario import Registry, Scenario
from repro.topology import TOPOLOGIES, make as make_topology
from repro.workload import WORKLOADS, make as make_workload


class TestRegistryMechanics:
    def test_names_sorted_and_contains(self):
        names = STRATEGIES.names()
        assert list(names) == sorted(names)
        assert "cwn" in STRATEGIES
        assert "CWN " in STRATEGIES  # lookup normalizes case/space
        assert "astrology" not in STRATEGIES

    def test_duplicate_registration_rejected(self):
        reg = Registry("thing")
        reg.add("x", lambda rest: rest)
        with pytest.raises(ValueError, match="already registered"):
            reg.add("x", lambda rest: rest)
        reg.remove("x")
        reg.add("x", lambda rest: rest)  # removable and re-addable

    def test_metadata_exposed_readonly(self):
        meta = STRATEGIES.metadata("cwn")
        assert meta["table1"]["dlm"] == {"radius": 5, "horizon": 1}
        with pytest.raises(TypeError):
            meta["table1"] = {}

    def test_every_entry_example_constructs(self):
        """Registry-completeness: each entry's advertised example works."""
        for registry, builder in (
            (TOPOLOGIES, make_topology),
            (WORKLOADS, make_workload),
            (STRATEGIES, make_strategy),
        ):
            for name in registry.names():
                example = registry.metadata(name)["example"]
                built = builder(example)
                assert built is not None
                if registry.entry(name).cls is not None:
                    assert type(built) is registry.entry(name).cls


class TestErrorMessages:
    def test_unknown_lists_names_and_nearest(self):
        with pytest.raises(ValueError, match="did you mean 'cwn'"):
            make_strategy("cwm")
        with pytest.raises(ValueError, match="registered: .*grid.*hypercube"):
            make_topology("gird:4x4")
        with pytest.raises(ValueError, match="did you mean 'fib'"):
            make_workload("fibb:9")

    def test_unknown_without_close_match_still_lists(self):
        with pytest.raises(ValueError) as info:
            make_workload("zzzz:1")
        assert "registered:" in str(info.value)
        assert "did you mean" not in str(info.value)

    def test_malformed_spec_wrapped_with_cause(self):
        with pytest.raises(ValueError, match="malformed workload spec"):
            make_workload("fib:x")
        with pytest.raises(ValueError, match="malformed topology spec"):
            make_topology("grid:4")


class _EagerLocal(KeepLocal):
    """A 'third-party' strategy for the plugin tests."""


class TestPluginRegistration:
    def test_registered_plugin_reaches_every_consumer(self):
        @STRATEGIES.register(
            "eagerlocal",
            cls=_EagerLocal,
            spell=lambda s: "eagerlocal",
            metadata={"summary": "test plugin", "example": "eagerlocal"},
        )
        def _build(rest, family="grid"):
            return _EagerLocal()

        try:
            # the factory
            assert isinstance(make_strategy("eagerlocal"), _EagerLocal)
            # the canonical speller
            from repro.core import spec_of

            assert spec_of(_EagerLocal()) == "eagerlocal"
            # the scenario grammar, end to end through a real run
            sc = Scenario.from_spec("fib:9 @ grid:4x4 / eagerlocal?seed=1")
            assert sc.run().result_value == 34
            # the scenario object, spelled by name
            assert Scenario("fib:9", "grid:4x4", "eagerlocal", seed=1).run().result_value == 34
            # the CLI listing
            from repro.cli import main

            import io
            from contextlib import redirect_stdout

            out = io.StringIO()
            with redirect_stdout(out):
                main(["list", "strategies"])
            assert "eagerlocal" in out.getvalue()
        finally:
            STRATEGIES.remove("eagerlocal")
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("eagerlocal")

    def test_entry_point_discovery(self, monkeypatch):
        """A distribution exposing the group's hook is found lazily."""

        class _FakeEntryPoint:
            name = "demo"

            @staticmethod
            def load():
                def hook(registry):
                    registry.add(
                        "epstrat",
                        lambda rest, family="grid": _EagerLocal(),
                        cls=None,
                        metadata={"summary": "via entry point", "example": "epstrat"},
                    )

                return hook

        import importlib.metadata as md

        def fake_entry_points(group=None):
            assert group == "test.group"
            return [_FakeEntryPoint()]

        monkeypatch.setattr(md, "entry_points", fake_entry_points)
        reg = Registry("strategy", entry_point_group="test.group")
        assert isinstance(reg.make("epstrat", family="grid"), _EagerLocal)
        assert "epstrat" in reg.names()

    def test_broken_entry_point_is_skipped(self, monkeypatch):
        class _Broken:
            @staticmethod
            def load():
                raise RuntimeError("boom")

        import importlib.metadata as md

        monkeypatch.setattr(md, "entry_points", lambda group=None: [_Broken()])
        reg = Registry("strategy", entry_point_group="test.group")
        reg.add("ok", lambda rest: "ok")
        assert reg.names() == ("ok",)
