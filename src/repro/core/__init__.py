"""Load-distribution strategies: the paper's competitors and extensions.

* :class:`CWN` — Contracting Within a Neighborhood (the paper's scheme).
* :class:`GradientModel` — Lin & Keller's Gradient Model.
* :class:`KeepLocal`, :class:`RandomPlacement`, :class:`RoundRobin` —
  bracketing baselines.
* :class:`AdaptiveCWN` — the conclusion's proposed CWN improvements
  (saturation control, bounded redistribution, commitments-aware load).

:func:`paper_cwn` / :func:`paper_gm` construct the competitors with the
optimized per-topology-family parameters of the paper's Table 1.
"""

from __future__ import annotations

from .._spec_util import fmt_num, parse_kv, require_defaults
from ..scenario.registry import Registry
from .acwn import AdaptiveCWN
from .base import Strategy, argmin_load
from .baselines import KeepLocal, RandomPlacement, RoundRobin
from .bidding import Bidding
from .central import CentralScheduler
from .cwn import CWN
from .diffusion import Diffusion
from .gm_variants import BatchGradient, EventGradient
from .gradient import GradientModel
from .load_metrics import make_load_metric, queue_length, with_commitments
from .randomwalk import RandomWalk
from .stealing import WorkStealing
from .symmetric import Symmetric
from .threshold import ThresholdRandom

__all__ = [
    "AdaptiveCWN",
    "BatchGradient",
    "Bidding",
    "CWN",
    "CentralScheduler",
    "Diffusion",
    "EventGradient",
    "GradientModel",
    "KeepLocal",
    "RandomPlacement",
    "RandomWalk",
    "RoundRobin",
    "STRATEGIES",
    "Strategy",
    "Symmetric",
    "ThresholdRandom",
    "WorkStealing",
    "argmin_load",
    "canonical_spec",
    "make_load_metric",
    "make_strategy",
    "paper_cwn",
    "paper_gm",
    "queue_length",
    "spec_of",
    "with_commitments",
]

#: The open strategy vocabulary: ``make_strategy`` / ``spec_of`` /
#: the Scenario spec grammar / ``repro list strategies`` all read this
#: one table.  Third parties extend it with ``@STRATEGIES.register``
#: or a ``repro.strategies`` entry point.
STRATEGIES = Registry("strategy", entry_point_group="repro.strategies")

#: Table 1 — "Selected Parameters" from the paper's optimization
#: experiments, keyed by topology family.  Hypercubes are not in Table 1
#: (the appendix does not restate parameters); we use the grid settings,
#: which our own optimization sweep confirms are near-optimal there too.
#: These live as ``table1`` registry metadata on the entries that use
#: them; the families below are the keys each entry carries.
_TABLE1_CWN: dict[str, dict[str, float]] = {
    "grid": {"radius": 9, "horizon": 2},
    "dlm": {"radius": 5, "horizon": 1},
    "hypercube": {"radius": 9, "horizon": 2},
}
_TABLE1_GM: dict[str, dict[str, float]] = {
    "grid": {"high_water_mark": 2, "low_water_mark": 1, "interval": 20.0},
    "dlm": {"high_water_mark": 1, "low_water_mark": 1, "interval": 20.0},
    "hypercube": {"high_water_mark": 2, "low_water_mark": 1, "interval": 20.0},
}


def _family_params(family: str, scheme: str) -> dict[str, float]:
    """Table-1 defaults for ``scheme``, read from its registry metadata."""
    table = STRATEGIES.metadata(scheme)["table1"]
    return table.get(family, table["grid"])  # grid: default for other families


def paper_cwn(family: str = "grid") -> CWN:
    """CWN with the paper's Table 1 parameters for ``family``."""
    p = _family_params(family, "cwn")
    return CWN(radius=int(p["radius"]), horizon=int(p["horizon"]))


def paper_gm(family: str = "grid") -> GradientModel:
    """Gradient Model with the paper's Table 1 parameters for ``family``."""
    p = _family_params(family, "gm")
    return GradientModel(
        low_water_mark=p["low_water_mark"],
        high_water_mark=p["high_water_mark"],
        interval=p["interval"],
    )


#: strategy parameters are all spelled as floats
_kw = parse_kv


def _spell_cwn(strategy: CWN) -> str:
    require_defaults(strategy, tie_break="random", keep_on_tie=True)
    return f"cwn:radius={strategy.radius},horizon={strategy.horizon}"


@STRATEGIES.register(
    "cwn",
    cls=CWN,
    spell=_spell_cwn,
    metadata={
        "summary": "Contracting Within a Neighborhood (the paper's scheme)",
        "example": "cwn:radius=9,horizon=2",
        "table1": _TABLE1_CWN,
    },
)
def _build_cwn(rest: str, family: str = "grid") -> CWN:
    kwargs = _kw(rest)
    base = _family_params(family, "cwn")
    return CWN(
        radius=int(kwargs.get("radius", base["radius"])),
        horizon=int(kwargs.get("horizon", base["horizon"])),
    )


def _spell_gm(strategy: GradientModel) -> str:
    require_defaults(strategy, ship="newest", stagger=True, tie_break="random")
    return (
        f"gm:lwm={fmt_num(strategy.low_water_mark)},hwm={fmt_num(strategy.high_water_mark)},"
        f"interval={fmt_num(strategy.interval)}"
    )


@STRATEGIES.register(
    "gm",
    cls=GradientModel,
    spell=_spell_gm,
    metadata={
        "summary": "Lin & Keller's Gradient Model",
        "example": "gm:lwm=1,hwm=2,interval=20",
        "table1": _TABLE1_GM,
    },
)
def _build_gm(rest: str, family: str = "grid") -> GradientModel:
    kwargs = _kw(rest)
    base = _family_params(family, "gm")
    return GradientModel(
        low_water_mark=kwargs.get("lwm", base["low_water_mark"]),
        high_water_mark=kwargs.get("hwm", base["high_water_mark"]),
        interval=kwargs.get("interval", base["interval"]),
    )


def _spell_acwn(strategy: AdaptiveCWN) -> str:
    require_defaults(
        strategy, tie_break="random", pull=True, pull_threshold=2.0,
        load_metric="queue", commitment_weight=0.5,
    )
    if strategy.saturation is None:
        raise ValueError("AdaptiveCWN(saturation=None) has no spec-string syntax")
    return (
        f"acwn:radius={strategy.radius},horizon={strategy.horizon},"
        f"saturation={fmt_num(strategy.saturation)}"
    )


@STRATEGIES.register(
    "acwn",
    cls=AdaptiveCWN,
    spell=_spell_acwn,
    metadata={
        "summary": "the conclusion's proposed CWN improvements",
        "example": "acwn:radius=9,horizon=2,saturation=3",
        "table1": _TABLE1_CWN,
    },
)
def _build_acwn(rest: str, family: str = "grid") -> AdaptiveCWN:
    kwargs = _kw(rest)
    base = _family_params(family, "cwn")
    return AdaptiveCWN(
        radius=int(kwargs.get("radius", base["radius"])),
        horizon=int(kwargs.get("horizon", base["horizon"])),
        saturation=kwargs.get("saturation", 3.0),
    )


@STRATEGIES.register(
    "local",
    cls=KeepLocal,
    spell=lambda s: "local",
    metadata={"summary": "no distribution: everything runs at the start PE", "example": "local"},
)
def _build_local(rest: str, family: str = "grid") -> KeepLocal:
    return KeepLocal()


@STRATEGIES.register(
    "random",
    cls=RandomPlacement,
    spell=lambda s: "random",
    metadata={"summary": "uniform random placement baseline", "example": "random"},
)
def _build_random(rest: str, family: str = "grid") -> RandomPlacement:
    return RandomPlacement()


@STRATEGIES.register(
    "roundrobin",
    cls=RoundRobin,
    spell=lambda s: "roundrobin",
    metadata={"summary": "cyclic placement baseline", "example": "roundrobin"},
)
def _build_roundrobin(rest: str, family: str = "grid") -> RoundRobin:
    return RoundRobin()


def _spell_threshold(strategy: ThresholdRandom) -> str:
    return (
        f"threshold:threshold={fmt_num(strategy.threshold)},"
        f"transfers={strategy.max_transfers}"
    )


@STRATEGIES.register(
    "threshold",
    cls=ThresholdRandom,
    spell=_spell_threshold,
    metadata={
        "summary": "Eager & Lazowska threshold policy (random probes)",
        "example": "threshold:threshold=2,transfers=3",
    },
)
def _build_threshold(rest: str, family: str = "grid") -> ThresholdRandom:
    kwargs = _kw(rest)
    return ThresholdRandom(
        threshold=kwargs.get("threshold", 2.0),
        max_transfers=int(kwargs.get("transfers", 3)),
    )


def _spell_stealing(strategy: WorkStealing) -> str:
    require_defaults(strategy, retry_interval=50.0, tie_break="random")
    return f"stealing:threshold={fmt_num(strategy.threshold)},probes={strategy.max_probes}"


@STRATEGIES.register(
    "stealing",
    cls=WorkStealing,
    spell=_spell_stealing,
    metadata={
        "summary": "receiver-initiated work stealing",
        "example": "stealing:threshold=2,probes=3",
    },
)
def _build_stealing(rest: str, family: str = "grid") -> WorkStealing:
    kwargs = _kw(rest)
    return WorkStealing(
        threshold=kwargs.get("threshold", 2.0),
        max_probes=int(kwargs.get("probes", 3)),
    )


def _spell_diffusion(strategy: Diffusion) -> str:
    require_defaults(strategy, stagger=True)
    return f"diffusion:alpha={fmt_num(strategy.alpha)},interval={fmt_num(strategy.interval)}"


@STRATEGIES.register(
    "diffusion",
    cls=Diffusion,
    spell=_spell_diffusion,
    metadata={
        "summary": "periodic nearest-neighbor load diffusion",
        "example": "diffusion:alpha=0.25,interval=20",
    },
)
def _build_diffusion(rest: str, family: str = "grid") -> Diffusion:
    kwargs = _kw(rest)
    return Diffusion(
        alpha=kwargs.get("alpha", 0.25),
        interval=kwargs.get("interval", 20.0),
    )


def _spell_bidding(strategy: Bidding) -> str:
    require_defaults(strategy, guard_interval=200.0)
    return f"bidding:threshold={fmt_num(strategy.threshold)}"


@STRATEGIES.register(
    "bidding",
    cls=Bidding,
    spell=_spell_bidding,
    metadata={
        "summary": "auction-style sender-initiated bidding",
        "example": "bidding:threshold=2",
    },
)
def _build_bidding(rest: str, family: str = "grid") -> Bidding:
    return Bidding(threshold=_kw(rest).get("threshold", 2.0))


def _spell_symmetric(strategy: Symmetric) -> str:
    require_defaults(strategy, retry_interval=50.0, tie_break="random")
    return (
        f"symmetric:send={fmt_num(strategy.send_threshold)},radius={strategy.radius},"
        f"steal={fmt_num(strategy.steal_threshold)},probes={strategy.max_probes}"
    )


@STRATEGIES.register(
    "symmetric",
    cls=Symmetric,
    spell=_spell_symmetric,
    metadata={
        "summary": "sender- and receiver-initiated, combined",
        "example": "symmetric:send=2,radius=3,steal=2,probes=3",
    },
)
def _build_symmetric(rest: str, family: str = "grid") -> Symmetric:
    kwargs = _kw(rest)
    return Symmetric(
        send_threshold=kwargs.get("send", 2.0),
        radius=int(kwargs.get("radius", 3)),
        steal_threshold=kwargs.get("steal", 2.0),
        max_probes=int(kwargs.get("probes", 3)),
    )


def _spell_central(strategy: CentralScheduler) -> str:
    return f"central:manager={strategy.manager},cost={fmt_num(strategy.dispatch_cost)}"


@STRATEGIES.register(
    "central",
    cls=CentralScheduler,
    spell=_spell_central,
    metadata={
        "summary": "one manager PE dispatches all goals",
        "example": "central:manager=0,cost=0.5",
    },
)
def _build_central(rest: str, family: str = "grid") -> CentralScheduler:
    kwargs = _kw(rest)
    return CentralScheduler(
        manager=int(kwargs.get("manager", 0)),
        dispatch_cost=kwargs.get("cost", 0.5),
    )


def _spell_randomwalk(strategy: RandomWalk) -> str:
    return (
        f"randomwalk:radius={strategy.radius},horizon={strategy.horizon},"
        f"keep={fmt_num(strategy.keep_prob)}"
    )


@STRATEGIES.register(
    "randomwalk",
    cls=RandomWalk,
    spell=_spell_randomwalk,
    metadata={
        "summary": "CWN's contraction with random (not min-load) hops",
        "example": "randomwalk:radius=5,horizon=1,keep=0.3",
    },
)
def _build_randomwalk(rest: str, family: str = "grid") -> RandomWalk:
    kwargs = _kw(rest)
    return RandomWalk(
        radius=int(kwargs.get("radius", 5)),
        horizon=int(kwargs.get("horizon", 1)),
        keep_prob=kwargs.get("keep", 0.3),
    )


def _spell_gm_event(strategy: EventGradient) -> str:
    require_defaults(strategy, ship="newest", tie_break="random")
    return (
        f"gm-event:lwm={fmt_num(strategy.low_water_mark)},"
        f"hwm={fmt_num(strategy.high_water_mark)}"
    )


@STRATEGIES.register(
    "gm-event",
    cls=EventGradient,
    spell=_spell_gm_event,
    metadata={
        "summary": "Gradient Model, event-driven (no polling cycle)",
        "example": "gm-event:lwm=1,hwm=2",
        "table1": _TABLE1_GM,
    },
)
def _build_gm_event(rest: str, family: str = "grid") -> EventGradient:
    kwargs = _kw(rest)
    base = _family_params(family, "gm")
    return EventGradient(
        low_water_mark=kwargs.get("lwm", base["low_water_mark"]),
        high_water_mark=kwargs.get("hwm", base["high_water_mark"]),
    )


def _spell_gm_batch(strategy: BatchGradient) -> str:
    require_defaults(strategy, ship="newest", stagger=True, tie_break="random")
    return (
        f"gm-batch:lwm={fmt_num(strategy.low_water_mark)},"
        f"hwm={fmt_num(strategy.high_water_mark)},interval={fmt_num(strategy.interval)},"
        f"batch={strategy.batch}"
    )


@STRATEGIES.register(
    "gm-batch",
    cls=BatchGradient,
    spell=_spell_gm_batch,
    metadata={
        "summary": "Gradient Model shipping work in batches",
        "example": "gm-batch:lwm=1,hwm=2,interval=20,batch=4",
        "table1": _TABLE1_GM,
    },
)
def _build_gm_batch(rest: str, family: str = "grid") -> BatchGradient:
    kwargs = _kw(rest)
    base = _family_params(family, "gm")
    return BatchGradient(
        low_water_mark=kwargs.get("lwm", base["low_water_mark"]),
        high_water_mark=kwargs.get("hwm", base["high_water_mark"]),
        interval=kwargs.get("interval", base["interval"]),
        batch=int(kwargs.get("batch", 4)),
    )


def make_strategy(spec: str, family: str = "grid") -> Strategy:
    """Build a strategy from a spec string (via :data:`STRATEGIES`).

    ``"cwn"`` / ``"gm"`` use the paper's Table 1 parameters for
    ``family``; explicit parameters override, e.g. ``"cwn:radius=4,horizon=1"``
    or ``"gm:hwm=2,lwm=1,interval=10"``.  Baselines: ``"local"``,
    ``"random"``, ``"roundrobin"``, ``"acwn"``.  Unknown names raise
    :class:`ValueError` listing the registered vocabulary and the
    nearest match.
    """
    return STRATEGIES.make(spec, family=family)


def spec_of(strategy: Strategy) -> str:
    """The canonical :func:`make_strategy` spec that rebuilds ``strategy``.

    Every parameter the spec grammar can express is spelled explicitly,
    so the result is family-independent: ``spec_of(paper_cwn("grid"))``
    is ``"cwn:radius=9,horizon=2"`` and rebuilds the same strategy under
    any ``family`` argument.  The parallel farm's content-addressed cache
    keys on this.  Strategies carrying parameters the grammar cannot
    express (e.g. a ``lowest`` tie-break) raise ``ValueError``.
    """
    return STRATEGIES.spec_of(strategy)


def canonical_spec(spec: str | Strategy, family: str = "grid") -> str:
    """Normalize a strategy spec (or object) to its canonical spelling.

    Bare family-parameterized names are resolved first — on a grid,
    ``canonical_spec("cwn")``, ``canonical_spec("cwn:radius=9,horizon=2")``
    and ``canonical_spec(paper_cwn("grid"))`` all yield the same string,
    so the result cache treats them as one configuration.
    """
    strategy = make_strategy(spec, family=family) if isinstance(spec, str) else spec
    return spec_of(strategy)
