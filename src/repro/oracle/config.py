"""Simulation configuration: the "times charged for primitive operations".

ORACLE "accepts input specifications such as the number of PEs and their
interconnection scheme, the load balancing strategy to be used, control
strategy options, ... and times to be charged for primitive operations".
This module is that input record.

The paper deliberately chose a *low* communication-to-computation ratio so
that channel saturation would not mask the property being measured (load
distribution effectiveness).  :func:`CostModel.low_comm` reproduces that
regime; :func:`CostModel.high_comm` supports the ratio-sensitivity study
the conclusion calls for.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Literal, Mapping

__all__ = ["CostModel", "SimConfig"]


def _coerce_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _coerce_opt_int(raw: str) -> int | None:
    low = raw.strip().lower()
    if low in ("none", "null"):
        return None
    return int(raw)


def _spell_value(value: object) -> str:
    """The spec-string spelling of a config value (inverse of coercion)."""
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        from .._spec_util import fmt_num

        return fmt_num(value)
    return str(value)


#: spec-override coercers for every SimConfig field the grammar can
#: express (everything but the nested costs and the pe_speeds tuple)
_CFG_COERCE: dict[str, object] = {
    "seed": int,
    "load_info": str,
    "load_info_delay": float,
    "load_info_interval": float,
    "sample_interval": float,
    "sample_per_pe": _coerce_bool,
    "max_events": _coerce_opt_int,
    "trace_hops": _coerce_bool,
    "queue_discipline": str,
}

LoadInfoMode = Literal["instant", "on_change", "periodic", "channel", "piggyback"]


@dataclass(frozen=True)
class CostModel:
    """Chargeable simulated times for primitive operations (in sim units).

    Attributes
    ----------
    leaf_work:
        Execution time of a leaf goal (one that spawns no children).
    split_work:
        Execution time of an interior goal up to the point where it has
        spawned its children and suspends awaiting responses.
    combine_work:
        Execution time to fold children's responses into this task's
        result once the last response arrives.
    word_time:
        Channel occupancy per message word (a goal message is
        ``size_words`` words, see :mod:`repro.oracle.message`).
    hop_overhead:
        Fixed per-hop channel occupancy (switching/arbitration) added to
        the word cost of every transfer.
    route_decision:
        Time the communication co-processor spends deciding where to send
        or forward a goal.  The paper assumes a co-processor, so this does
        **not** consume PE compute time; it only delays the message.
    gm_cycle_overhead:
        Co-processor time for one wakeup of the Gradient Model's gradient
        process (state classification + proximity recomputation).
    """

    leaf_work: float = 50.0
    split_work: float = 40.0
    combine_work: float = 20.0
    word_time: float = 1.0
    hop_overhead: float = 1.0
    route_decision: float = 0.5
    gm_cycle_overhead: float = 0.5

    def __post_init__(self) -> None:
        for field_name in (
            "leaf_work",
            "split_work",
            "combine_work",
            "word_time",
            "hop_overhead",
            "route_decision",
            "gm_cycle_overhead",
        ):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{field_name} must be finite and non-negative, got {value}")
        if self.leaf_work == 0 and self.split_work == 0 and self.combine_work == 0:
            raise ValueError("at least one work cost must be positive")

    def transfer_time(self, size_words: int) -> float:
        """Channel occupancy of a ``size_words``-word message."""
        return self.hop_overhead + self.word_time * size_words

    @classmethod
    def low_comm(cls) -> "CostModel":
        """The paper's regime: communication far cheaper than computation."""
        return cls()

    @classmethod
    def high_comm(cls) -> "CostModel":
        """A communication-bound regime for the sensitivity extension."""
        return cls(word_time=10.0, hop_overhead=10.0)

    @classmethod
    def unit(cls) -> "CostModel":
        """Everything costs 1 unit — convenient for hand-checkable tests."""
        return cls(
            leaf_work=1.0,
            split_work=1.0,
            combine_work=1.0,
            word_time=1.0,
            hop_overhead=0.0,
            route_decision=0.0,
            gm_cycle_overhead=0.0,
        )

    def with_comm_ratio(self, ratio: float) -> "CostModel":
        """Scale communication costs to ``ratio`` × (word cost / leaf work).

        ``ratio = word_time / leaf_work`` after scaling; the default model
        has ratio 0.02.
        """
        if ratio <= 0:
            raise ValueError("comm/comp ratio must be positive")
        word = ratio * self.leaf_work
        return replace(self, word_time=word, hop_overhead=word)

    def to_dict(self) -> dict[str, float]:
        """JSON-serializable form (the :mod:`repro.parallel` spec format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "CostModel":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        return cls(**data)


@dataclass(frozen=True)
class SimConfig:
    """Everything a single simulation run needs besides topology+workload.

    Attributes
    ----------
    costs:
        The :class:`CostModel` in effect.
    seed:
        Seed for the run's private RNG (tie-breaking, synthetic workloads).
    load_info:
        How neighbor-load information propagates:

        ``"instant"``
            neighbors always see the true current queue length (an oracle
            bound — useful to isolate information-staleness effects);
        ``"on_change"``
            the default: a PE posts its new load to neighbors whenever its
            queue length changes, arriving after ``load_info_delay`` but
            not consuming channel bandwidth (the paper's piggyback +
            co-processor assumption);
        ``"periodic"``
            broadcast every ``load_info_interval`` units (also free of
            channel bandwidth);
        ``"channel"``
            updates are real one-word messages contending for channels
            (the most pessimistic model);
        ``"piggyback"``
            the paper's stated optimization taken literally: the load
            word travels *only* attached to regular goal/response
            messages crossing a hop — zero extra traffic, but a
            neighbor's view goes stale whenever the link goes quiet.
            Strategy control words (GM proximities etc.) cannot wait
            for traffic and fall back to ``"on_change"`` delivery.
    load_info_delay:
        Propagation latency of a load word in the non-channel modes.
    load_info_interval:
        Broadcast period for ``load_info="periodic"``.
    sample_interval:
        Sampling period of the utilization time-series recorder (the
        paper's "specially formatted output ... at every sampling
        interval"); ``0`` disables sampling.
    sample_per_pe:
        Also record each PE's utilization at every sample (the data the
        paper's red/blue graphics monitor displays).  Off by default:
        it costs ``n_pes`` floats per sample.
    max_events:
        Safety valve passed to the engine; ``None`` means unlimited.
    trace_hops:
        Record a histogram of goal-message travel distances (Table 3).
    queue_discipline:
        Order in which a PE's executor serves its queue: ``"fifo"``
        (the default; oldest first — breadth-first over the goal tree,
        matching the paper's "messages waiting to be processed" framing)
        or ``"lifo"`` (newest first — depth-first, the frontier-bounding
        alternative later systems adopted).  Strategy shipping policies
        (GM's newest/oldest) are independent of this.
    pe_speeds:
        Optional per-PE speed factors (tuple of positive floats, one per
        PE; 1.0 = nominal).  A PE with speed 2.0 executes work in half
        the charged time.  ``None`` (the paper's setting) means a
        homogeneous machine.  Heterogeneity is an extension study: the
        dynamic schemes' whole premise is adapting to conditions static
        schedulers cannot see.
    """

    costs: CostModel = field(default_factory=CostModel)
    seed: int = 0
    load_info: LoadInfoMode = "on_change"
    load_info_delay: float = 1.0
    load_info_interval: float = 20.0
    sample_interval: float = 0.0
    sample_per_pe: bool = False
    max_events: int | None = 50_000_000
    trace_hops: bool = True
    queue_discipline: str = "fifo"
    pe_speeds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.load_info not in ("instant", "on_change", "periodic", "channel", "piggyback"):
            raise ValueError(f"unknown load_info mode {self.load_info!r}")
        if self.queue_discipline not in ("fifo", "lifo"):
            raise ValueError(f"unknown queue_discipline {self.queue_discipline!r}")
        if self.pe_speeds is not None and not all(
            math.isfinite(s) and s > 0 for s in self.pe_speeds
        ):
            raise ValueError("pe_speeds must all be finite and positive")
        if not (math.isfinite(self.load_info_delay) and self.load_info_delay >= 0):
            raise ValueError("load_info_delay must be finite and non-negative")
        if not (math.isfinite(self.load_info_interval) and self.load_info_interval > 0):
            raise ValueError("load_info_interval must be finite and positive")
        if not (math.isfinite(self.sample_interval) and self.sample_interval >= 0):
            raise ValueError("sample_interval must be finite and non-negative")

    def replace(self, **changes: object) -> "SimConfig":
        """Return a copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form: nested costs dict, tuples as lists.

        The canonical config serialization used by :mod:`repro.parallel`
        run specs and the on-disk result cache.  :meth:`from_dict` is the
        exact inverse (``from_dict(to_dict(c)) == c``).
        """
        data = asdict(self)
        data["costs"] = self.costs.to_dict()
        if self.pe_speeds is not None:
            data["pe_speeds"] = list(self.pe_speeds)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SimConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        kwargs = dict(data)
        costs = kwargs.get("costs")
        if isinstance(costs, dict):
            kwargs["costs"] = CostModel.from_dict(costs)
        speeds = kwargs.get("pe_speeds")
        if speeds is not None:
            kwargs["pe_speeds"] = tuple(float(s) for s in speeds)
        return cls(**kwargs)

    # -- the scenario spec grammar's ``cfg.`` / ``cost.`` overrides --------------

    def with_spec_overrides(self, overrides: "Mapping[str, str]") -> "SimConfig":
        """Apply ``cfg.<field>=value`` / ``cost.<field>=value`` overrides.

        The string values come from a
        :class:`~repro.scenario.Scenario` spec's ``?key=value`` block
        and are coerced to the field's type (``max_events`` accepts
        ``none``).  Unknown fields raise :class:`ValueError` naming the
        expressible ones.
        """
        if not overrides:
            return self
        cfg_changes: dict[str, object] = {}
        cost_changes: dict[str, float] = {}
        cost_fields = {f.name for f in fields(CostModel)}
        for key, raw in overrides.items():
            prefix, _, name = key.partition(".")
            if prefix == "cfg" and name in _CFG_COERCE:
                cfg_changes[name] = _CFG_COERCE[name](raw)  # type: ignore[operator]
            elif prefix == "cost" and name in cost_fields:
                cost_changes[name] = float(raw)
            else:
                known = ", ".join(
                    [f"cfg.{n}" for n in _CFG_COERCE] + [f"cost.{n}" for n in sorted(cost_fields)]
                )
                raise ValueError(f"unknown config override {key!r}; known: {known}")
        if cost_changes:
            cfg_changes["costs"] = replace(self.costs, **cost_changes)
        return replace(self, **cfg_changes)  # type: ignore[arg-type]

    def spec_overrides(self) -> dict[str, str]:
        """The override mapping that rebuilds ``self`` from the default.

        Exact inverse of :meth:`with_spec_overrides` — every non-default
        scalar field is emitted as ``cfg.<field>`` / ``cost.<field>``
        with a spelling that coerces back to the identical value.
        ``pe_speeds`` (a tuple) has no spec-string syntax and raises.
        """
        if self.pe_speeds is not None:
            raise ValueError("pe_speeds has no spec-string syntax")
        base = SimConfig()
        out: dict[str, str] = {}
        for name in _CFG_COERCE:
            value = getattr(self, name)
            if value != getattr(base, name):
                out[f"cfg.{name}"] = _spell_value(value)
        base_costs = CostModel()
        for f in fields(CostModel):
            value = getattr(self.costs, f.name)
            if value != getattr(base_costs, f.name):
                out[f"cost.{f.name}"] = _spell_value(value)
        return out
