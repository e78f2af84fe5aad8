"""The kernel's stored reference, and the machine's bound hop path.

The machine binds the per-hop services once, at construction: neighbor
rows, the channel joining each neighbor pair, the belief rows a load
word updates, the delivery callbacks (see ``Machine._bind_hop_path``).
Two contracts hold the kernel in place:

* **bit identity** — every case below reproduces the result digest
  stored in ``tests/golden/hop_path_digests.json``, the serial kernel's
  reference.  The spec cases were recorded on the kernel *before* the
  hop path was bound; the generator-process kernel, since deleted,
  reproduced every digest in the file.  The cases reach every branch of
  the path: all fifteen strategies (spelled and built directly), every
  ``load_info`` mode, zero and positive route decisions, queue
  disciplines, periodic machinery, open systems, every topology family,
  and a custom topology whose parallel channels still go through the
  per-hop backlog choice;
* **frames per event** — a profile hook counts the Python frames each
  kind of event executes on a CWN run and a GM run.  The bounds sit just
  above the bound path's counts (raise them only deliberately); the
  kernel before it paid 8.8 frames per event overall on CWN (15.9 per
  goal-hop arrival, 6.6 per response hop, 2 per load word) and 5.1 on
  GM (6.3 per gradient wakeup, 1 per load word).

Record the digests again, on the commit *before* an intentional kernel
change, with::

    PYTHONPATH=src python tests/regen_hop_path_digests.py
"""

from __future__ import annotations

import hashlib
import heapq
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

from repro.core import (
    CWN,
    STRATEGIES as REGISTERED,
    AdaptiveCWN,
    BatchGradient,
    Bidding,
    CentralScheduler,
    Diffusion,
    EventGradient,
    GradientModel,
    KeepLocal,
    RandomPlacement,
    RandomWalk,
    RoundRobin,
    Symmetric,
    ThresholdRandom,
    WorkStealing,
    paper_cwn,
    paper_gm,
)
from repro.oracle.config import SimConfig
from repro.oracle.machine import Machine, queue_length
from repro.parallel.cache import result_json
from repro.pdes.shard import ShardWorker
from repro.scenario import Scenario
from repro.scenario.arrivals import Arrivals
from repro.topology import DoubleLatticeMesh, Grid
from repro.topology.ring import Ring
from repro.workload import DivideConquer, Fibonacci

GOLDEN = Path(__file__).parent / "golden" / "hop_path_digests.json"

STRATEGIES = (
    "acwn", "bidding", "central", "cwn", "diffusion", "gm", "gm-batch", "gm-event",
    "local", "random", "randomwalk", "roundrobin", "stealing", "symmetric", "threshold",
)
#: config overrides that switch hop-path branches
CONFIGS = (
    "cfg.load_info=instant",
    "cfg.load_info=periodic&cfg.load_info_interval=7",
    "cfg.load_info=channel",
    "cfg.load_info=piggyback",
    "cfg.load_info_delay=0",
    "cost.route_decision=0",
    "cost.hop_overhead=0&cost.word_time=0&cost.route_decision=0",
    "cfg.queue_discipline=lifo",
    "cfg.sample_interval=25&cfg.sample_per_pe=true",
    "cfg.trace_hops=false",
    "queries=3&spacing=40&pes=0;3;1",
)
TOPOLOGIES = (
    "ccc:3", "chordal:12x3", "complete:6", "grid:2x3", "hypercube:4", "ring:8",
    "star:8", "torus3d:3x3x3", "tree:2x4",
)


class DoubledRing(Ring):
    """A ring whose 0-1 pair is joined by two channels (no built-in has any)."""

    def _build(self):
        neighbor_sets, links = super()._build()
        links.append((0, 1))
        return neighbor_sets, links


def _specs() -> dict[str, Callable[[], Machine]]:
    specs = [f"fib:9 @ {t} / {s}?seed=3" for s in STRATEGIES for t in ("grid:4x4", "dlm:3x3x3")]
    specs += [
        f"fib:9 @ grid:4x4 / {s}?seed=5&{c}"
        for s in ("cwn", "acwn", "gm", "randomwalk", "threshold")
        for c in CONFIGS
    ]
    specs += [f"fib:9 @ {t} / {s}?seed=2" for t in TOPOLOGIES for s in ("cwn", "gm")]
    specs += ["fib:13 @ grid:8x8 / cwn?seed=1", "fib:13 @ grid:8x8 / gm?seed=1"]
    return {spec: (lambda spec=spec: Scenario.from_spec(spec).build()) for spec in specs}


def _machines() -> dict[str, Callable[[], Machine]]:
    cfg = SimConfig(seed=4)
    return {
        "doubled-ring/cwn": lambda: Machine(DoubledRing(6), Fibonacci(10), CWN(3, 1), cfg),
        "doubled-ring/gm": lambda: Machine(DoubledRing(6), Fibonacci(10), GradientModel(), cfg),
        "doubled-ring/random": lambda: Machine(
            DoubledRing(6), Fibonacci(10), RandomPlacement(), cfg
        ),
        "grid/cwn-lowest-tie": lambda: Machine(
            Grid(6, 6), Fibonacci(11), CWN(4, 1, tie_break="lowest"), cfg
        ),
        "grid/cwn-strict-keep": lambda: Machine(
            Grid(6, 6), Fibonacci(11), CWN(4, 2, keep_on_tie=False), cfg
        ),
        "grid/acwn-commitments-instant": lambda: Machine(
            Grid(4, 4),
            Fibonacci(10),
            AdaptiveCWN(4, 1, load_metric="commitments"),
            SimConfig(seed=4, load_info="instant"),
        ),
        **_direct(),
        **_paper(),
    }


#: every strategy built directly, small-parameterized, keyed by its
#: registry name (``test_every_registered_strategy_has_cases`` keeps the
#: keys, STRATEGIES and the registry in step)
DIRECT = {
    "acwn": lambda: AdaptiveCWN(radius=4, horizon=1),
    "bidding": Bidding,
    "central": CentralScheduler,
    "cwn": lambda: CWN(radius=4, horizon=1),
    "diffusion": Diffusion,
    "gm": GradientModel,
    "gm-batch": BatchGradient,
    "gm-event": EventGradient,
    "local": KeepLocal,
    "random": RandomPlacement,
    "randomwalk": RandomWalk,
    "roundrobin": RoundRobin,
    "stealing": WorkStealing,
    "symmetric": Symmetric,
    "threshold": ThresholdRandom,
}


def _direct() -> dict[str, Callable[[], Machine]]:
    """Each strategy on ``Grid(4, 4)`` / ``Fibonacci(9)`` / seed 3."""
    return {
        f"direct/{name}": lambda make=make: Machine(
            Grid(4, 4), Fibonacci(9), make(), SimConfig(seed=3)
        )
        for name, make in DIRECT.items()
    }


def _paper() -> dict[str, Callable[[], Machine]]:
    """The paper's two schemes on both topology families and workloads,
    the periodic machinery (sampler and load broadcast), and open systems."""
    topologies = {"grid": lambda: Grid(4, 4), "dlm": lambda: DoubleLatticeMesh(4, 4, 4)}
    programs = {"fib": lambda: Fibonacci(9), "dc": lambda: DivideConquer(1, 21)}
    schemes = {"cwn": paper_cwn, "gm": paper_gm}
    cases: dict[str, Callable[[], Machine]] = {
        f"paper/{family}-{kind}/{scheme}": (
            lambda topo=topo, program=program, build=build, family=family: Machine(
                topo(), program(), build(family), SimConfig(seed=1)
            )
        )
        for family, topo in topologies.items()
        for kind, program in programs.items()
        for scheme, build in schemes.items()
    }
    cases["paper/grid-fib/cwn-sampled-periodic"] = lambda: Machine(
        Grid(4, 4),
        Fibonacci(9),
        paper_cwn("grid"),
        SimConfig(seed=5, sample_interval=25.0, sample_per_pe=True, load_info="periodic"),
    )
    open_system = {"cwn": lambda: paper_cwn("grid"), "central": CentralScheduler}
    for name, make in open_system.items():
        cases[f"open-system/{name}"] = lambda make=make: Machine(
            Grid(4, 4),
            Fibonacci(8),
            make(),
            SimConfig(seed=2),
            arrivals=Arrivals(queries=3, spacing=40.0),
        )
    return cases


CASES: dict[str, Callable[[], Machine]] = {**_specs(), **_machines()}


def digest(machine: Machine) -> str:
    """128-bit sha256 prefix of the run's canonical result JSON."""
    return hashlib.sha256(result_json(machine.run()).encode("utf-8")).hexdigest()[:32]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_every_registered_strategy_has_cases():
    """A newly registered strategy cannot skip the stored reference."""
    assert STRATEGIES == REGISTERED.names()
    assert tuple(DIRECT) == STRATEGIES


@pytest.mark.parametrize("case", sorted(CASES))
def test_bit_identical_to_stored_digest(case, golden):
    assert digest(CASES[case]()) == golden[case]


# -- frames per event ----------------------------------------------------------------


def _event_kind(frame) -> str:
    """Name of an event's action; channel completions and launches by message kind."""
    code = frame.f_code
    owner = frame.f_locals.get("self")
    kind = code.co_name if owner is None else f"{type(owner).__name__}.{code.co_name}"
    item = frame.f_locals.get("item")
    if item is not None:
        kind += f":{type(item[0]).__name__}"
    return kind


def frames_per_event(machine: Machine) -> tuple[dict[str, float], float]:
    """Python frames per event, by event kind and overall, over one run.

    A profile hook counts every Python-level call made inside each event
    (the action's own frame included; builtins are not frames).  An
    action that runs in C — a builtin called straight from the event
    loop, other than the loop's own heappop — is an event with zero
    frames, keyed ``C:<name>``.  A counted no-op (``Engine.noop``) is an
    event with zero frames that never reaches the loop, keyed
    ``counted``; the engine's own calls outside its loop (the ledger's
    settlement) belong to no event.
    """
    calls: Counter[str] = Counter()
    events: Counter[str] = Counter()
    depth = 0
    base = None  # the depth of the event loop's frame while it runs
    kind = ""

    def hook(frame, event, arg):
        nonlocal depth, base, kind
        if event == "call":
            depth += 1
            if base is None:
                code = frame.f_code
                if code.co_name == "_segment" and code.co_filename.endswith("engine.py"):
                    base = depth
                return
            if depth == base + 1:
                kind = _event_kind(frame)
                events[kind] += 1
            calls[kind] += 1
        elif event == "return":
            if depth == base:
                base = None
            depth -= 1
        elif event == "c_call" and depth == base and arg is not heapq.heappop:
            events[f"C:{arg.__name__}"] += 1

    sys.setprofile(hook)
    try:
        result = machine.run()
    finally:
        sys.setprofile(None)
    counted = result.events_executed - sum(events.values())
    assert counted >= 0
    if counted:
        events["counted"] = counted
    per_kind = {k: calls[k] / events[k] for k in events}
    return per_kind, sum(calls.values()) / sum(events.values())


def test_cwn_frames_per_event():
    machine = Scenario.from_spec("fib:13 @ grid:8x8 / cwn?seed=1").build()
    per_kind, overall = frames_per_event(machine)
    assert "counted" not in per_kind  # CWN reads beliefs: every word is calendared
    assert per_kind["Machine._apply_load_word"] == 1.0  # the load word's own frame only
    assert per_kind["Channel.transmit:GoalMessage"] == 2.0  # launch: transmit + send
    assert per_kind["Channel._complete:GoalMessage"] <= 9.6
    assert per_kind["Channel._complete:ResponseMessage"] <= 4.5
    assert per_kind["PE._burst_done"] <= 15.7
    assert overall <= 5.6


def test_gm_frames_per_event():
    """GM's wakeup is a payload tick straight into ``_gradient_cycle``, and
    its load words update no beliefs (GM reads none), so they are counted,
    not calendared."""
    machine = Scenario.from_spec("fib:13 @ grid:8x8 / gm?seed=1").build()
    per_kind, overall = frames_per_event(machine)
    assert per_kind["counted"] == 0.0  # a load word runs no frame ...
    assert "C:len" not in per_kind  # ... and no load word reaches the calendar
    assert "Machine._apply_load_word" not in per_kind
    assert per_kind["Tick.fire"] <= 4.1
    assert overall <= 3.9


def test_bound_services_match_their_reference_methods():
    machine = Scenario.from_spec("fib:9 @ dlm:3x3x3 / acwn?seed=1").build()
    for pe, proc in enumerate(machine.pes):
        proc.queue.extend([None] * (pe % 3))
    for pe in range(machine.topology.n):
        assert machine.neighbors(pe) == Machine.neighbors(machine, pe)
        assert machine.load_of(pe) == Machine.load_of(machine, pe)


def test_load_fn_replacement_rebinds_load_of():
    machine = Scenario.from_spec("fib:5 @ grid:2x2 / cwn?seed=1").build()
    bound = machine.load_changed
    assert "load_changed" in vars(machine)  # the on-change closure
    machine.pes[1].queue.extend([None, None])
    assert machine.load_of(1) == 2.0
    machine.load_fn = lambda pe: 10.0 * len(pe.queue)
    assert machine.load_of(1) == 20.0
    assert machine.known_loads_of(0, (1,)) == [0.0]  # beliefs, not live loads
    # load_changed is rebound with load_of: the method, posting load_of
    assert "load_changed" not in vars(machine)
    machine.load_changed(1)
    assert machine._last_posted[1] == 20.0
    machine.load_fn = queue_length
    assert machine.load_changed is not bound and "load_changed" in vars(machine)


def test_load_changed_binds_only_where_its_body_is_one_post():
    """Strategy hooks, other modes and subclass overrides keep the method."""

    def bound(spec: str) -> bool:
        return "load_changed" in vars(Scenario.from_spec(spec).build())

    assert bound("fib:5 @ grid:2x2 / gm?seed=1")
    assert bound("fib:5 @ grid:2x2 / acwn?seed=1")  # its "queue" metric is the default
    assert not bound("fib:5 @ grid:2x2 / gm-event?seed=1")  # on_load_changed hook
    assert not bound("fib:5 @ grid:2x2 / cwn?seed=1&cfg.load_info=periodic")
    assert not bound("fib:5 @ grid:2x2 / cwn?seed=1&cfg.load_info=channel")
    commitments = Machine(
        Grid(2, 2), Fibonacci(5), AdaptiveCWN(load_metric="commitments"), SimConfig(seed=1)
    )
    assert "load_changed" not in vars(commitments)
    shard = ShardWorker(Scenario.from_spec("fib:5 @ grid:2x2 / gm?seed=1"), 2, 0).machine
    assert "load_changed" not in vars(shard)  # ShardMachine.load_changed logs its words
