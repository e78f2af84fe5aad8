"""`Scenario` — one simulation run as the library's single currency.

A scenario bundles everything the paper's cross-product sweeps over:
the workload, the topology, the strategy, the cost model / simulation
config, the injection point and seed, and the open-system arrival block
(:class:`~repro.scenario.arrivals.Arrivals`).  Each of the three main
parts may be a live object or a factory spec string — the registries
(:data:`repro.core.STRATEGIES`, :data:`repro.topology.TOPOLOGIES`,
:data:`repro.workload.WORKLOADS`) translate freely between the two.

One value, four consumers:

* ``Scenario.build()`` / ``Scenario.run()`` — construct the wired
  :class:`~repro.oracle.machine.Machine` / run it;
* the farm, cache, fleet and service (:mod:`repro.parallel`,
  :mod:`repro.serve`) — a fleet task is the scenario's exact spelling
  (:meth:`to_dict` as JSON), and every cache address is
  ``Scenario.content_hash()`` (so pre-Scenario warm caches keep
  hitting);
* :class:`~repro.experiments.plan.ExperimentPlan` — a plan's runs are
  scenarios;
* the CLI — ``repro run "fib:15 @ grid:8x8 / cwn?seed=3"`` parses the
  compact **spec grammar**::

      <workload> @ <topology> / <strategy> [?key=value[&key=value...]]

  with override keys ``seed``, ``start`` (injection PE), ``queries``,
  ``spacing``, ``pes`` / ``times`` (``;``-separated), plus
  ``cfg.<field>`` and ``cost.<field>`` for any scalar
  :class:`~repro.oracle.config.SimConfig` / ``CostModel`` field.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from .._spec_util import canonical_json, fmt_num
from ..oracle.config import SimConfig
from .arrivals import Arrivals

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import Strategy
    from ..oracle.machine import Machine
    from ..oracle.stats import SimResult
    from ..topology.base import Topology
    from ..workload.base import Program

__all__ = ["SPEC_SCHEMA", "Scenario"]

#: Version tag baked into every canonical dict (and hence every content
#: hash and cache path).  Bump it whenever simulation semantics change
#: in a way that invalidates previously computed results.
SPEC_SCHEMA = 1

#: fixed emission order of the scenario-level override keys
_SCENARIO_KEYS = ("seed", "start", "queries", "spacing", "pes", "times")

#: The config of every scenario that names none: the field's default,
#: and what :meth:`Scenario.from_spec` parses a spec without ``cfg.`` /
#: ``cost.`` overrides onto.  Frozen, so sharing it is safe, and its
#: memoized serialization (:meth:`SimConfig.serialized`) is then built
#: once per process instead of once per scenario.
_DEFAULT_CONFIG = SimConfig()


def _split_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(";") if v != "")

def _split_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(";") if v != "")


@dataclass(frozen=True)
class Scenario:
    """One run of the simulator, as a frozen value.

    ``workload`` / ``topology`` / ``strategy`` hold either registry spec
    strings or live objects; everything that needs strings
    (serialization, hashing, the farm) goes through :meth:`spelled`,
    which spells objects via the registries' ``spec_of`` — objects the
    spec grammar cannot express raise :class:`ValueError` there, and
    :func:`~repro.parallel.run_batch` runs such a scenario in-process.
    """

    workload: "Program | str"
    topology: "Topology | str"
    strategy: "Strategy | str"
    config: SimConfig = _DEFAULT_CONFIG
    seed: int | None = None
    start_pe: int = 0
    arrivals: Arrivals = field(default_factory=Arrivals)

    # -- resolution and execution ------------------------------------------------

    def resolve_workload(self) -> "Program":
        """The live :class:`~repro.workload.base.Program`."""
        if isinstance(self.workload, str):
            from ..workload import make as make_workload

            return make_workload(self.workload)
        return self.workload

    def resolve_topology(self) -> "Topology":
        """The live :class:`~repro.topology.base.Topology`."""
        if isinstance(self.topology, str):
            from ..topology import make as make_topology

            return make_topology(self.topology)
        return self.topology

    def resolve_strategy(self, family: str | None = None) -> "Strategy":
        """The live strategy; bare names pick up the paper's Table-1
        parameters for ``family`` (default: this scenario's topology's)."""
        if isinstance(self.strategy, str):
            from ..core import make_strategy

            if family is None:
                family = self.resolve_topology().family
            return make_strategy(self.strategy, family=family)
        return self.strategy

    @property
    def effective_config(self) -> SimConfig:
        """``config`` with the ``seed`` override folded in."""
        if self.seed is None:
            return self.config
        return self.config.replace(seed=self.seed)

    def seeded(self, default: int = 1) -> "Scenario":
        """This scenario with ``default`` as the seed when none was given.

        The CLI's default-seed rule, shared with ``repro serve``: a
        scenario that names no seed anywhere (no ``--seed``, no
        ``?seed=``/``?cfg.seed=`` spec override) runs with seed
        ``default``, so the two fronts hash — and answer — identically.
        """
        if self.seed is None and self.config.seed == 0:
            return replace(self, seed=default)
        return self

    def build(self) -> "Machine":
        """Construct (but do not run) the fully wired machine."""
        from ..oracle.machine import Machine

        workload = self.resolve_workload()
        topology = self.resolve_topology()
        strategy = self.resolve_strategy(family=topology.family)
        return Machine(
            topology,
            workload,
            strategy,
            self.effective_config,
            self.start_pe,
            arrivals=self.arrivals,
        )

    def run(self) -> "SimResult":
        """Run this scenario to completion in the current process."""
        return self.build().run()

    # -- spelling ----------------------------------------------------------------

    def _spellings(self) -> tuple[str, str, str]:
        """The three parts as spec strings, objects spelled by ``spec_of``."""
        workload, topology, strategy = self.workload, self.topology, self.strategy
        if not isinstance(workload, str):
            from ..workload import spec_of as workload_spec

            workload = workload_spec(workload)
        if not isinstance(topology, str):
            from ..topology import spec_of as topology_spec

            topology = topology_spec(topology)
        if not isinstance(strategy, str):
            from ..core import spec_of as strategy_spec

            strategy = strategy_spec(strategy)
        return workload, topology, strategy

    def spelled(self) -> "Scenario":
        """This scenario with all three parts as factory spec strings.

        Objects are spelled by the registries' ``spec_of``; objects the
        grammar cannot express raise :class:`ValueError`.
        """
        parts = self._spellings()
        if parts == (self.workload, self.topology, self.strategy):
            return self
        workload, topology, strategy = parts
        return replace(self, workload=workload, topology=topology, strategy=strategy)

    # -- canonical form and hashing ----------------------------------------------

    def _canonical_parts(self) -> tuple[str, str, str, Arrivals]:
        """The canonical form's parts, shared by :meth:`canonical`,
        :meth:`canonical_dict` and :meth:`canonical_json`: the three
        canonical spec strings and the canonical arrival block.

        Raises :class:`ValueError` for an unknown name, a malformed
        spec, or a ``start_pe`` / ``Arrivals.pes`` outside the topology.
        The spellings come from the registries' memos
        (:meth:`~repro.scenario.Registry.canonical`), which keep the
        topology's PE count and family too, so once a process has seen
        the spellings this builds no topology, strategy or workload.
        """
        from ..core import STRATEGIES
        from ..topology import TOPOLOGIES
        from ..workload import WORKLOADS

        workload, topology, strategy = self._spellings()
        canonical_topology = TOPOLOGIES.canonical(topology)
        n, family = canonical_topology.facts
        if not 0 <= self.start_pe < n:
            raise ValueError(f"start_pe {self.start_pe} outside 0..{n - 1}")
        self.arrivals.check_pes(n)
        return (
            WORKLOADS.canonical(workload).spec,
            canonical_topology.spec,
            STRATEGIES.canonical(strategy, family=family).spec,
            self.arrivals.canonical(),
        )

    def canonical(self) -> "Scenario":
        """The unique representative of this scenario's equivalence class.

        All three parts are normalized to canonical spec strings (the
        strategy against the topology's family, so bare ``"cwn"``
        resolves to the same explicit parameters :meth:`build` gives
        it), the seed override is folded into the config, and the
        arrival block is canonicalized.  Injection PEs outside the
        topology raise :class:`ValueError` here, before any run starts.

        This is the object form, which :attr:`spec` spells; it shares
        its parts with :meth:`canonical_dict`, the hashed form, and
        ``canonical().canonical_dict() == canonical_dict()``.  Unlike
        the hashed form it builds a :class:`Scenario` and, for a seed
        override, a :class:`SimConfig` (:attr:`effective_config`).
        """
        workload, topology, strategy, arrivals = self._canonical_parts()
        return replace(
            self,
            workload=workload,
            topology=topology,
            strategy=strategy,
            config=self.effective_config,
            seed=None,
            arrivals=arrivals,
        )

    def canonical_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form — the preimage of :meth:`content_hash`,
        which digests it as :meth:`canonical_json` spells it.

        Assembled from the parts :meth:`canonical` uses, plus the
        config's memoized serialization (:meth:`SimConfig.serialized`)
        with the ``seed`` override folded in — the dict form of
        :attr:`effective_config`.  Once the registries' memos hold this
        scenario's spellings, building it constructs no
        :class:`Scenario` and no :class:`SimConfig`.

        The result is memoized on the instance — the fields it derives
        from are frozen — and shares its ``config`` entry with the
        config's memo, so treat it as read only.

        The layout is byte-compatible with the farm's pre-Scenario
        canonical form: default arrivals are omitted entirely, so every
        previously computed content hash — and the warm cache entries
        addressed by it — stays valid.
        """
        cached = self.__dict__.get("_canonical_dict")
        if cached is None:
            workload, topology, strategy, arrivals = self._canonical_parts()
            config = self.config.serialized()
            if self.seed is not None:
                config = {**config, "seed": self.seed}
            cached = {
                "schema": SPEC_SCHEMA,
                "workload": workload,
                "topology": topology,
                "strategy": strategy,
                "config": config,
                "start_pe": self.start_pe,
            }
            if not arrivals.is_default:
                cached["arrivals"] = arrivals.to_dict()
            object.__setattr__(self, "_canonical_dict", cached)
        return cached

    def canonical_json(self) -> str:
        """The text :meth:`content_hash` digests: :meth:`canonical_dict`
        as compact JSON with sorted keys.

        Byte for byte ``json.dumps(self.canonical_dict(), sort_keys=True,
        separators=(",", ":"))``, and it raises where that raises, but
        spliced from the same parts (:meth:`_canonical_parts`) and the
        config's memoized text (:meth:`SimConfig.serialized_json`, the
        seed override spliced in), so it builds no dict.  Besides
        :meth:`canonical_dict` this is the one place that knows the
        hashed fields; it writes them in sorted order, as ``json.dumps``
        does, and omits default arrivals as the dict does.
        """
        workload, topology, strategy, arrivals = self._canonical_parts()
        head = "{"
        if not arrivals.is_default:
            head = f'{{"arrivals":{canonical_json(arrivals.to_dict())},'
        return (
            f'{head}"config":{self.config.serialized_json(self.seed)}'
            f',"schema":{canonical_json(SPEC_SCHEMA)}'
            f',"start_pe":{canonical_json(self.start_pe)}'
            f',"strategy":{canonical_json(strategy)}'
            f',"topology":{canonical_json(topology)}'
            f',"workload":{canonical_json(workload)}}}'
        )

    def content_hash(self) -> str:
        """Content-address: SHA-256 of the canonical form (memoized).

        The digest of :meth:`canonical_json`, the compact sorted-key
        JSON of :meth:`canonical_dict`.  Stable across processes and
        sessions (no hash randomization is involved), and identical for
        every spelling of the same run — this is the key the farm's
        :class:`~repro.parallel.cache.ResultCache` stores results under.
        Once the registries' memos hold a fresh scenario's spellings,
        its hash constructs no topology, strategy, workload,
        :class:`Scenario`, :class:`SimConfig` or dict: it costs the memo
        lookups, one string splice and one SHA-256.  It raises the same
        :class:`ValueError` as :meth:`canonical` for an unknown name, a
        malformed spec or a PE outside the topology.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    # -- the spec grammar --------------------------------------------------------

    @property
    def spec(self) -> str:
        """The canonical one-line spelling of this scenario.

        ``"<workload> @ <topology> / <strategy>"`` plus a ``?key=value``
        override block for every non-default knob, in a fixed order, so
        equal scenarios produce equal strings and
        ``Scenario.from_spec(sc.spec)`` hashes identically to ``sc``.
        Raises :class:`ValueError` for parameters the grammar cannot
        express (custom objects, ``pe_speeds``).
        """
        spec = self.canonical()
        overrides: list[tuple[str, str]] = []
        cfg = dict(spec.config.spec_overrides())
        seed = cfg.pop("cfg.seed", None)
        if seed is not None:
            overrides.append(("seed", seed))
        if spec.start_pe != 0:
            overrides.append(("start", str(spec.start_pe)))
        arrivals = spec.arrivals
        if arrivals.queries != 1:
            overrides.append(("queries", str(arrivals.queries)))
        if arrivals.spacing != 0.0:
            overrides.append(("spacing", fmt_num(arrivals.spacing)))
        if arrivals.pes is not None:
            overrides.append(("pes", ";".join(str(p) for p in arrivals.pes)))
        if arrivals.times is not None:
            overrides.append(("times", ";".join(fmt_num(t) for t in arrivals.times)))
        overrides.extend(sorted(cfg.items()))
        text = f"{spec.workload} @ {spec.topology} / {spec.strategy}"
        if overrides:
            text += "?" + "&".join(f"{k}={v}" for k, v in overrides)
        return text

    @classmethod
    def from_spec(cls, text: str) -> "Scenario":
        """Parse the spec grammar (see the module docstring).

        The three parts are kept as-spelled (canonicalization is a
        separate, explicit step), so ``from_spec`` is cheap and the
        original spelling survives round trips through :meth:`to_dict`.
        A spec without ``cfg.`` / ``cost.`` overrides gets the one
        shared default :class:`SimConfig`, so the scenarios parsed in a
        process share its memoized serialization, and hashing them
        builds no config.  Malformed specs, unknown override keys and
        non-finite numbers raise :class:`ValueError` here; unknown
        names and out-of-range PEs raise it at hash time.
        """
        main, _, query = text.partition("?")
        left, slash, strategy = main.rpartition("/")
        workload, at, topology = left.partition("@")
        workload, topology, strategy = workload.strip(), topology.strip(), strategy.strip()
        if not slash or not at or not workload or not topology or not strategy:
            raise ValueError(
                f"malformed scenario spec {text!r}; expected "
                f"'<workload> @ <topology> / <strategy>[?key=value&...]' "
                f"e.g. 'fib:15 @ grid:8x8 / cwn?seed=3'"
            )
        seed: int | None = None
        start_pe = 0
        queries = 1
        spacing = 0.0
        pes: tuple[int, ...] | None = None
        times: tuple[float, ...] | None = None
        cfg_overrides: dict[str, str] = {}
        if query:
            for item in query.split("&"):
                key, eq, raw = item.partition("=")
                key = key.strip()
                raw = raw.strip()
                if not eq or not key:
                    raise ValueError(
                        f"malformed scenario override {item!r} in {text!r} "
                        f"(expected key=value)"
                    )
                if key.startswith(("cfg.", "cost.")):
                    cfg_overrides[key] = raw
                elif key == "seed":
                    seed = int(raw)
                elif key == "start":
                    start_pe = int(raw)
                elif key == "queries":
                    queries = int(raw)
                elif key == "spacing":
                    spacing = float(raw)
                elif key == "pes":
                    pes = _split_ints(raw)
                elif key == "times":
                    times = _split_floats(raw)
                else:
                    import difflib

                    known = ", ".join(_SCENARIO_KEYS)
                    msg = (
                        f"unknown scenario override {key!r} in {text!r}; "
                        f"known: {known}, plus cfg.<field> / cost.<field> "
                        f"for SimConfig / CostModel fields"
                    )
                    close = difflib.get_close_matches(key, _SCENARIO_KEYS, n=1)
                    if close:
                        msg += f" — did you mean {close[0]!r}?"
                    raise ValueError(msg)
        config = _DEFAULT_CONFIG.with_spec_overrides(cfg_overrides)
        # A seed spelled as cfg.seed= is promoted to the scenario-level
        # seed (the fold in effective_config is a no-op on the same
        # value), so consumers that test `scenario.seed is None` — the
        # CLI's default-seed rule — see every explicit spelling,
        # including cfg.seed=0.
        if seed is None and "cfg.seed" in cfg_overrides:
            seed = config.seed
        return cls(
            workload,
            topology,
            strategy,
            config,
            seed,
            start_pe,
            Arrivals(queries, spacing, pes, times),
        )

    # -- plain serialization (non-canonicalizing) --------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable JSON-able form, exactly as spelled.

        Objects are spelled into spec strings (raising for parameters
        the grammar cannot express); nothing is canonicalized.
        """
        spelled = self.spelled()
        return {
            "workload": spelled.workload,
            "topology": spelled.topology,
            "strategy": spelled.strategy,
            "config": self.config.to_dict(),
            "seed": self.seed,
            "start_pe": self.start_pe,
            "arrivals": self.arrivals.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            topology=data["topology"],
            strategy=data["strategy"],
            config=SimConfig.from_dict(dict(data["config"])),
            seed=data.get("seed"),
            start_pe=int(data.get("start_pe", 0)),
            arrivals=Arrivals.from_dict(data.get("arrivals") or {}),
        )
