"""The simulated multiprocessor: PEs + channels + strategy plumbing.

:class:`Machine` assembles everything ORACLE takes as "input
specifications": the number of PEs and their interconnection scheme (a
:class:`~repro.topology.base.Topology`), the load balancing strategy, the
program to execute and the times charged for primitive operations
(:class:`~repro.oracle.config.SimConfig`), and runs the computation to
completion, returning a :class:`~repro.oracle.stats.SimResult`.

Traffic model
-------------
* **goal messages** hop neighbor-to-neighbor under strategy control; each
  hop occupies a channel (plus the co-processor's ``route_decision``
  latency) and is counted toward the paper's communication statistics;
* **responses** route shortest-path hop by hop, also through channels;
* **load/proximity words** travel per ``SimConfig.load_info``: free of
  channel bandwidth with a small latency by default (the paper's
  piggyback-on-a-co-processor assumption), or as genuine channel traffic
  in the fully charged ``"channel"`` mode.

The machine keeps per-observer **sparse rows** of *known* loads: what
each PE currently believes about each neighbor.  Beliefs only ever form
along information flows — on-change/periodic words reach neighbors,
channel broadcasts reach bus members, piggybacked words ride hops — so
a row holds at most an observer's neighborhood and the whole structure
is O(N * degree), not the dense N x N matrix it once was (>= 100 MB of
lists at 4096 PEs).  Unwritten entries read as the initial 0.0, exactly
as the dense matrix initialized them.  Strategies read beliefs (never
true remote state) unless the oracle ``"instant"`` mode is chosen
deliberately.
"""

from __future__ import annotations

import random
import time
from functools import cached_property
from heapq import heappush
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..obs import telemetry as _telemetry
from ..scenario.arrivals import Arrivals
from ..topology.base import Topology
from ..workload.base import Goal, Program
from .channel import Channel
from .config import CostModel, SimConfig
from .engine import Engine, SimulationError
from .message import ControlWord, GoalMessage, LoadUpdate, Message, ResponseMessage
from .pe import PE
from .stats import SimResult, StatsCollector, UtilizationSample

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import Strategy

__all__ = ["Machine", "queue_length"]


def queue_length(pe: "PE") -> float:
    """The paper's load measure: messages waiting to be processed.

    The machine's default ``load_fn``; while it is installed, the machine
    reads queue lengths inline instead of calling it.
    """
    return float(len(pe.queue))


class Machine:
    """One simulation run's worth of multiprocessor."""

    def __init__(
        self,
        topology: Topology,
        program: Program,
        strategy: "Strategy",
        config: SimConfig | None = None,
        start_pe: int = 0,
        *,
        arrivals: Arrivals | None = None,
    ) -> None:
        """``arrivals`` (default: one query at ``start_pe`` at time 0, the
        paper's closed system) says how many instances of ``program``
        enter the machine, when, and where — see
        :class:`~repro.scenario.arrivals.Arrivals`, which holds all
        arrival validation.  With several queries the machine is an open
        system, and the run ends when the last root response arrives.
        """
        self.topology = topology
        self.program = program
        self.strategy = strategy
        self.config = config or SimConfig()
        if not 0 <= start_pe < topology.n:
            raise ValueError(f"start_pe {start_pe} outside 0..{topology.n - 1}")
        arrivals = arrivals if arrivals is not None else Arrivals()
        arrivals.check_pes(topology.n)
        self.start_pe = start_pe
        self.arrivals = arrivals
        self.queries = arrivals.queries

        self.engine = Engine()
        self.engine.max_events = self.config.max_events
        # Ordering-site layout (see Engine): site 0 is the machine, then
        # one site per PE (1 + pe), then one per channel (1 + N + cid).
        self.engine.ensure_sites(1 + topology.n + len(topology.channels))
        self.rng = random.Random(self.config.seed)
        #: one independent stream per PE, seeded from (seed, index) — all
        #: randomized strategy decisions draw from the *acting* PE's
        #: stream, so a PE's draw sequence is a function of its own event
        #: history alone (what makes randomized strategies shardable; the
        #: string seed hashes through the Mersenne init, not PYTHONHASHSEED).
        self.rngs = [
            random.Random(f"{self.config.seed}:{i}") for i in range(topology.n)
        ]
        self.stats = self._make_stats(topology.n, self.config.trace_hops)
        self.stats._clock = lambda: self.engine.now

        speeds = self.config.pe_speeds
        if speeds is not None and len(speeds) != topology.n:
            raise ValueError(
                f"pe_speeds has {len(speeds)} entries for {topology.n} PEs"
            )
        self.pes = [
            self._make_pe(i, speeds[i] if speeds is not None else 1.0)
            for i in range(topology.n)
        ]
        costs = self.config.costs
        n = topology.n
        self.channels = [
            self._make_channel(cid, members, costs, 1 + n + cid)
            for cid, members in enumerate(topology.channels)
        ]
        #: channels each PE sits on (used for broadcast in "channel" mode)
        self._pe_channels: list[list[Channel]] = [[] for _ in range(topology.n)]
        for ch in self.channels:
            for member in ch.members:
                self._pe_channels[member].append(ch)

        #: known_loads[observer][subject] — what `observer` believes about
        #: `subject`'s load.  One sparse dict per observer: every write
        #: path targets PEs an information flow can actually reach (a
        #: neighbor, a bus mate, the far end of a hop), so rows stay
        #: neighborhood-sized and machine memory is O(N * degree) instead
        #: of the dense N x N lists that dominated large-machine RSS.
        #: Absent entries read as 0.0 (everyone initially looks idle),
        #: matching the paper's GM initialization convention.
        self._known_loads: list[dict[int, float]] = [
            {} for _ in range(topology.n)
        ]
        self._last_posted: list[float] = [-1.0] * topology.n  # force the first post
        #: does load_changed() publish anything? (precomputed: it runs on
        #: every queue push/pop, and the mode never changes mid-run)
        self._posting = self.config.load_info in ("on_change", "channel")
        self._post_on_change = self.config.load_info == "on_change"
        self._instant_info = self.config.load_info == "instant"
        self._piggyback = self.config.load_info == "piggyback"
        # Hook elision: load_changed runs on every queue push/pop and
        # pe_went_idle on every executor drain; when the strategy kept
        # the base no-op (tagged ``_noop_hook``) skip the call entirely.
        cls = type(strategy)
        self._on_load_changed = (
            None
            if getattr(cls.on_load_changed, "_noop_hook", False)
            else strategy.on_load_changed
        )
        self._on_idle = (
            None if getattr(cls.on_idle, "_noop_hook", False) else strategy.on_idle
        )

        self._bind_hop_path()
        #: the load measure; strategies may replace it (future-commitments
        #: metric).  Receives the PE object, returns a float.
        self.load_fn = queue_length

        self._finished = False
        self.completion_time: float = float("nan")
        self.result_value: Any = None
        #: (completion time, value) per query, indexed by query number
        self.query_results: list[tuple[float, Any] | None] = [None] * self.queries
        #: injection time per query, indexed by query number
        self.arrival_times: list[float] = [0.0] * self.queries
        self._queries_done = 0

        strategy.bind(self)

    # ------------------------------------------------------------------
    # Component factories
    # ------------------------------------------------------------------
    # Subclasses (the sharded machine in repro.pdes) substitute
    # instrumented components here.  The base methods construct exactly
    # what __init__ used to construct inline; overrides may consult any
    # attribute set before the corresponding construction point (stats
    # is built before pes, pes before channels).

    def _make_stats(self, n: int, trace_hops: bool) -> StatsCollector:
        return StatsCollector(n, trace_hops)

    def _make_pe(self, index: int, speed: float) -> PE:
        return PE(index, self, speed)

    def _make_channel(
        self, cid: int, members: tuple[int, ...], costs: CostModel, site: int
    ) -> Channel:
        return Channel(self.engine, cid, members, costs, site=site)

    # ------------------------------------------------------------------
    # The hop path, bound once
    # ------------------------------------------------------------------
    # Every goal hop, response hop and load word asks the same structural
    # questions: who are this PE's neighbors, which channel joins it to
    # the next PE, whose beliefs does its load word update.  None of the
    # answers changes during a run, so they become tables here, and the
    # two services a placement calls on every hop (``neighbors`` and
    # ``load_of``) become instance attributes bound to direct lookups,
    # shadowing the documented methods below, which stay as the reference
    # spelling.  ``load_changed``, run on every queue push and pop, is
    # bound the same way where its whole body is one on-change post.

    def _bind_hop_path(self) -> None:
        n = self.topology.n
        rows = tuple(self.topology.neighbors(pe) for pe in range(n))
        self.neighbors = rows.__getitem__  # type: ignore[method-assign]
        #: _links[a][b]: the channel joining neighbors a and b, or None
        #: where parallel channels join them (chosen per hop by backlog,
        #: see _pick_channel)
        links: list[dict[int, Channel | None]] = [{} for _ in range(n)]
        for channel in self.channels:
            members = channel.members
            for a in members:
                row = links[a]
                for b in members:
                    if b != a:
                        row[b] = None if b in row else channel
        self._links = links
        #: _word_rows[pe]: the belief rows a load word from pe updates
        known = self._known_loads
        self._word_rows = [[known[nb] for nb in nbrs] for nbrs in rows]
        self._route_decision = self.config.costs.route_decision
        self._word_delay = self.config.load_info_delay
        self._distance = self.topology.distance
        self._next_hop = self.topology.next_hop
        self._on_goal_message = self.strategy.on_goal_message
        self._deliver_goal = self._goal_arrived
        self._deliver_response = self._response_arrived
        #: are load words counted, not calendared? (see Engine.noop)
        self._count_words = not self.strategy.reads_beliefs
        if self._count_words:
            # No hook reads beliefs: a load word keeps its key, its place
            # in events_executed and its control-word count, but runs
            # nothing, so the engine counts it instead of calendaring it.
            # The sharded machine, which still calendars its words,
            # delivers them to len.
            self._deliver_load_word = len
            self.known_load = self.known_loads_of = self._no_beliefs  # type: ignore[method-assign]
        else:
            self._deliver_load_word = self._apply_load_word
        #: infinite default column for known_loads_of's map over a row
        self._unknown = repeat(0.0)

    def _no_beliefs(self, *_args: Any, **_kwargs: Any) -> Any:
        """``known_load`` / ``known_loads_of`` of a belief-free machine."""
        raise SimulationError(
            f"strategy {self.strategy.name!r} declares reads_beliefs = False, "
            "so this machine keeps no load beliefs to answer from"
        )

    @property
    def load_fn(self) -> Callable[[PE], float]:
        """The load measure: receives a PE, returns a float."""
        return self._load_fn

    @load_fn.setter
    def load_fn(self, fn: Callable[[PE], float]) -> None:
        # Rebinds load_of, which placements call on every hop, and
        # load_changed, which every queue push and pop calls.  While the
        # measure is the queue length, both read _queues inline.
        self._load_fn = fn
        pes = self.pes
        if fn is queue_length:
            self._queues = queues = [pe.queue for pe in pes]
            self.load_of = lambda pe: float(len(queues[pe]))  # type: ignore[method-assign]
        else:
            self._queues = None
            self.load_of = lambda pe: fn(pes[pe])  # type: ignore[method-assign]
        self._bind_load_changed()

    def _bind_load_changed(self) -> None:
        """Bind ``load_changed`` as a closure where its body reduces to one
        on-change post of the queue length: no strategy hook, ``on_change``
        mode, the queue measure, and no subclass override.  Elsewhere the
        method runs."""
        vars(self).pop("load_changed", None)
        queues = self._queues
        if (
            queues is None
            or self._on_load_changed is not None
            or not self._post_on_change
            or type(self).load_changed is not Machine.load_changed
        ):
            return
        last_posted = self._last_posted
        stats = self.stats
        engine = self.engine
        delay = self._word_delay
        seqs = engine._site_seq
        if self._count_words and delay > 0:
            # Inlined Engine.noop: the word's key goes on the ledger.  The
            # commonest post of a belief-free run costs no heap entry.
            ledger = engine._ledger
            record = ledger.extend

            def load_changed(pe: int) -> None:
                value = float(len(queues[pe]))
                if value == last_posted[pe]:
                    return
                last_posted[pe] = value
                stats.control_words_sent += 1
                site = 1 + pe
                record((engine.now + delay, 10, site, seqs[site]))
                if len(ledger) >= engine._fold_at:
                    engine._fold()

        else:
            # A word that updates beliefs is calendared to run; so is a
            # counted word with zero delay (as in Engine.noop), since it
            # could sort before the event posting it.
            heap = engine._heap
            deliver = self._deliver_load_word

            def load_changed(pe: int) -> None:
                value = float(len(queues[pe]))
                if value == last_posted[pe]:
                    return
                last_posted[pe] = value
                stats.control_words_sent += 1
                site = 1 + pe
                k = seqs[site] + 1
                seqs[site] = k
                heappush(heap, [engine.now + delay, 10, site, k, deliver, (pe, value)])

        self.load_changed = load_changed  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Execute the program to completion and collect statistics."""
        if self._finished:
            raise SimulationError("a Machine instance runs exactly once")
        cfg = self.config
        self._start()

        # Telemetry (opt-in, see repro.obs.telemetry): one start/finish
        # event per run; the per-event simulation loop itself is never
        # instrumented, so the disabled cost is this one None check.
        tele = _telemetry.sink()
        if tele is not None:
            tele.emit(
                "run.start",
                workload=getattr(self.program, "label", self.program.name),
                topology=self.topology.name,
                strategy=self.strategy.name,
                n_pes=self.topology.n,
                cols=getattr(self.topology, "cols", None),
                seed=cfg.seed,
                queries=self.queries,
            )
        wall_start = time.perf_counter()  # lint: ok[wall-clock-in-kernel] telemetry throughput only
        self.engine.run()
        if not self._finished:
            raise SimulationError(
                "simulation deadlocked: event calendar drained before the "
                "root response (strategy lost a goal?)"
            )
        result = self._collect()
        if tele is not None:
            wall = time.perf_counter() - wall_start  # lint: ok[wall-clock-in-kernel] telemetry throughput only
            tele.emit(
                "run.finish",
                workload=result.workload,
                topology=result.topology,
                strategy=result.strategy,
                n_pes=result.n_pes,
                completion_time=float(result.completion_time),
                events=int(result.events_executed),
                wall_s=wall,
                events_per_s=(result.events_executed / wall) if wall > 0 else 0.0,
                utilization=float(result.utilization),
            )
        return result

    def _start(self, owned: Sequence[int] | None = None) -> None:
        """The run preamble: periodic machinery, ``strategy.start()``, and
        the query injections ``self.arrivals`` describes.

        ``owned`` (a per-PE flag mask) restricts the injections to the
        queries arriving at flagged PEs: each shard of a sharded run
        replicates the rest and injects only on the PEs it owns.
        """
        cfg = self.config
        engine = self.engine
        if cfg.sample_interval > 0:
            self._sample_prev = np.zeros(self.topology.n)
            engine.tick(cfg.sample_interval, self._sample, name="sampler", skip_first=True)
        if cfg.load_info == "periodic":
            engine.tick(
                cfg.load_info_interval, self._broadcast_loads, name="loadcast", skip_first=True
            )
        self.strategy.start()
        arrivals = self.arrivals
        for k in range(self.queries):
            pe = arrivals.pes[k] if arrivals.pes is not None else self.start_pe
            if owned is not None and not owned[pe]:
                continue
            when = arrivals.times[k] if arrivals.times is not None else k * arrivals.spacing
            if when == 0.0:
                self._inject((pe, k))
            else:
                engine.schedule(when, self._inject, (pe, k), site=1 + pe)

    def _inject(self, payload: tuple[int, int]) -> None:
        pe, query = payload
        # Root goals carry their query index in the (otherwise unused)
        # parent_task field, encoded as -(query + 1), so the root
        # response can be attributed to the right query.
        root = Goal(self.program.root_payload(), parent_pe=None, parent_task=-(query + 1))
        self.arrival_times[query] = self.engine.now
        self.goal_created(pe, root)

    def _collect(self) -> SimResult:
        elapsed = self.completion_time
        busy = np.array([pe.effective_busy(elapsed) for pe in self.pes])
        return SimResult(
            strategy=self.strategy.name,
            topology=self.topology.name,
            workload=getattr(self.program, "label", self.program.name),
            n_pes=self.topology.n,
            completion_time=elapsed,
            result_value=self.result_value,
            total_goals=self.stats.goals_started,
            sequential_work=self.queries * self.program.sequential_work(self.config.costs),
            busy_time=busy,
            goals_per_pe=np.array([pe.goals_executed for pe in self.pes]),
            hop_histogram=dict(sorted(self.stats.hop_histogram.items())),
            goal_messages_sent=self.stats.goal_messages_sent,
            response_messages_sent=self.stats.response_messages_sent,
            responses_routed=self.stats.responses_routed,
            response_hops=self.stats.response_hops,
            control_words_sent=self.stats.control_words_sent,
            channel_busy_time=np.array(
                [ch.effective_busy(elapsed) for ch in self.channels]
            ),
            channel_messages=np.array([ch.messages_carried for ch in self.channels]),
            samples=self.stats.samples,
            events_executed=self.engine.events_executed,
            seed=self.config.seed,
            piggybacked_words=self.stats.piggybacked_words,
            first_goal_time=np.array(self.stats.first_goal_time, dtype=float),
            params=self.strategy.describe_params(),
            query_completions=[qr[0] for qr in self.query_results],
            query_arrivals=list(self.arrival_times),
        )

    def finished(self, value: Any, query: int = 0) -> None:
        """A root response arrived; the last one stops the world."""
        if self.query_results[query] is not None:
            raise SimulationError(f"query {query} finished twice")
        self.query_results[query] = (self.engine.now, value)
        self._queries_done += 1
        if self._queries_done < self.queries:
            return
        self._finished = True
        self.completion_time = self.engine.now
        self.result_value = (
            value if self.queries == 1 else [qr[1] for qr in self.query_results]
        )
        # stop() is sticky: even if the event delivering the last root
        # response wakes strategy machinery that schedules more events
        # (steal retries, gradient wakeups), the run ends here.
        self.engine.stop()
        self.engine.clear()

    # ------------------------------------------------------------------
    # Services used by PEs
    # ------------------------------------------------------------------

    def goal_created(self, pe: int, goal: Goal) -> None:
        """A goal was just spawned on ``pe``; the strategy places it."""
        self.stats.goals_created += 1
        self.strategy.on_goal_created(pe, goal)

    def respond(
        self, src: int, parent_pe: int | None, parent_task: int, child_index: int, value: Any
    ) -> None:
        """Deliver a completed goal/task's value toward its parent."""
        if parent_pe is None:
            # Root of query k carries parent_task == -(k + 1).
            self.finished(value, query=-parent_task - 1)
        elif parent_pe == src:
            # Local response: no channel traffic, no latency.
            self.pes[src].deliver_response(parent_task, child_index, value)
        else:
            stats = self.stats
            stats.responses_routed += 1
            stats.response_hops += self._distance(src, parent_pe)
            # A new response stands at its source: route it from there.
            msg = ResponseMessage(src, src, parent_pe, parent_task, child_index, value)
            self._response_arrived(msg)

    def pe_went_idle(self, pe: int) -> None:
        """The executor on ``pe`` ran out of work (strategy hook)."""
        if self._on_idle is not None:
            self._on_idle(pe)

    # ------------------------------------------------------------------
    # Services used by strategies
    # ------------------------------------------------------------------

    def neighbors(self, pe: int) -> tuple[int, ...]:
        """Immediate neighbors of ``pe`` in the interconnection.

        Each instance serves this from its neighbor table (see
        ``_bind_hop_path``); this body is the reference spelling.
        """
        return self.topology.neighbors(pe)

    def load_of(self, pe: int) -> float:
        """True current load of ``pe`` (a PE may always read its own).

        Each instance serves this through a lookup bound by the
        ``load_fn`` setter; this body is the reference spelling.
        """
        return self.load_fn(self.pes[pe])

    def known_load(self, observer: int, subject: int) -> float:
        """What ``observer`` believes about ``subject``'s load."""
        if self._instant_info:
            return self.load_of(subject)
        return self._known_loads[observer].get(subject, 0.0)

    def known_loads_of(self, observer: int, subjects: "Sequence[int]") -> list[float]:
        """:meth:`known_load` for several subjects in one call.

        The bulk form placement loops should use: neighbor scans happen
        on every goal hop, and one belief-row fetch beats a method call
        per neighbor.
        """
        if self._instant_info:
            return list(map(self.load_of, subjects))
        return list(map(self._known_loads[observer].get, subjects, self._unknown))

    def enqueue(self, pe: int, goal: Goal) -> None:
        """Accept ``goal`` into ``pe``'s work queue."""
        self.pes[pe].push(goal)

    def take_shippable(self, pe: int, newest_first: bool = True) -> Goal | None:
        """Remove a not-yet-started goal from ``pe``'s queue (GM shipping)."""
        return self.pes[pe].take_shippable_goal(newest_first)

    def send_goal(self, src: int, dst: int, msg: GoalMessage) -> None:
        """Transmit a goal message one hop to a neighbor."""
        msg.src, msg.dst = src, dst
        if self._piggyback:
            msg.load_word = self.load_of(src)
        self.stats.goal_messages_sent += 1
        channel = self._links[src].get(dst) or self._pick_channel(src, dst)
        decision = self._route_decision
        if decision > 0:
            # Inlined Engine.after: once the route decision is made (the
            # co-processor latency paid) the launch event starts the hop.
            engine = self.engine
            site = 1 + src
            seqs = engine._site_seq
            k = seqs[site] + 1
            seqs[site] = k
            item = (msg, self._deliver_goal)
            heappush(engine._heap, [engine.now + decision, 10, site, k, channel.transmit, item])
        else:
            channel.send(msg, self._deliver_goal)

    def post_to_neighbors(self, src: int, kind: str, value: float) -> None:
        """Broadcast a one-word strategy datum (e.g. GM proximity)."""
        self._transport_word(src, None, kind, value)

    def post_word(self, src: int, dst: int, kind: str, value: float) -> None:
        """Send a one-word strategy datum to a single neighbor."""
        self._transport_word(src, dst, kind, value)

    @cached_property
    def diameter(self) -> int:
        """Interconnection diameter (GM clamps proximities to this + 1).

        Cached on the instance: gradient cycles read it on every wakeup.
        """
        return self.topology.diameter

    # ------------------------------------------------------------------
    # Load information service
    # ------------------------------------------------------------------

    def load_changed(self, pe: int) -> None:
        """``pe``'s load measure may have changed; propagate per config.

        Runs on every queue push/pop — the quiet modes (instant reads
        live; periodic has its own broadcaster; piggyback only rides on
        regular traffic) exit on one precomputed flag test.  In the
        common case (``on_change``, the queue measure, no strategy hook)
        an instance closure bound by ``_bind_load_changed`` runs instead;
        this body is its reference spelling.
        """
        hook = self._on_load_changed
        if hook is not None:
            hook(pe)
        if not self._posting:
            return
        queues = self._queues
        value = float(len(queues[pe])) if queues is not None else self.load_of(pe)
        if value == self._last_posted[pe]:
            return
        self._last_posted[pe] = value
        if self._post_on_change:
            self.stats.control_words_sent += 1
            engine = self.engine
            site = 1 + pe
            if self._count_words:
                engine.noop(self._word_delay, 10, site)
                return
            # Inlined Engine.after: one belief-update event per queue
            # change is the second most common heap entry in a run.
            seqs = engine._site_seq
            k = seqs[site] + 1
            seqs[site] = k
            heappush(
                engine._heap,
                [engine.now + self._word_delay, 10, site, k, self._deliver_load_word, (pe, value)],
            )
        else:  # "channel"
            self._channel_broadcast(pe, LoadUpdate(pe, -1, value))

    def _apply_load_word(self, payload: tuple[int, float]) -> None:
        pe, value = payload
        for row in self._word_rows[pe]:
            row[pe] = value

    def _broadcast_loads(self) -> None:
        """One periodic tick posting every changed PE load (``"periodic"``)."""
        delay = self.config.load_info_delay
        engine = self.engine
        for pe in range(self.topology.n):
            value = self.load_of(pe)
            if value != self._last_posted[pe]:
                self._last_posted[pe] = value
                self.stats.control_words_sent += 1
                if self._count_words:
                    engine.noop(delay, 10, 1 + pe)
                else:
                    engine.after(delay, self._deliver_load_word, (pe, value), site=1 + pe)

    # ------------------------------------------------------------------
    # Word transport (strategy control data)
    # ------------------------------------------------------------------

    def _transport_word(self, src: int, dst: int | None, kind: str, value: float) -> None:
        mode = self.config.load_info
        if mode == "channel":
            msg = ControlWord(src, dst if dst is not None else -1, kind, value)
            if dst is None:
                self._channel_broadcast(src, msg)
            else:
                self.stats.control_words_sent += 1
                self._pick_channel(src, dst).send(
                    msg,
                    lambda m: self.strategy.on_word(m.dst, m.src, m.word_kind, m.value),
                )
            return
        # Strategy words cannot wait for traffic: "piggyback" falls back
        # to on_change-style delayed delivery here.
        targets = self.neighbors(src) if dst is None else (dst,)
        self.stats.control_words_sent += len(targets)
        delay = 0.0 if mode == "instant" else self.config.load_info_delay
        if delay > 0:
            self.engine.after(delay, self._apply_word, (targets, src, kind, value), site=1 + src)
        else:
            self._apply_word((targets, src, kind, value))

    def _apply_word(self, payload: tuple[tuple[int, ...], int, str, float]) -> None:
        targets, src, kind, value = payload
        on_word = self.strategy.on_word
        for dst in targets:
            on_word(dst, src, kind, value)

    def _channel_broadcast(self, src: int, msg: Message) -> None:
        """One transfer per channel ``src`` sits on, heard by all members."""
        for channel in self._pe_channels[src]:
            self.stats.control_words_sent += 1
            channel.broadcast(msg, self._word_heard)

    def _word_heard(self, member: int, msg: Message) -> None:
        if type(msg) is LoadUpdate:
            self._known_loads[member][msg.src] = msg.load
        else:
            self.strategy.on_word(member, msg.src, msg.word_kind, msg.value)

    # ------------------------------------------------------------------
    # Message movement internals
    # ------------------------------------------------------------------

    def _pick_channel(self, a: int, b: int) -> Channel:
        """Least-backlogged channel joining adjacent PEs ``a`` and ``b``."""
        cids = self.topology.channels_between(a, b)
        if len(cids) == 1:
            return self.channels[cids[0]]
        return min((self.channels[c] for c in cids), key=lambda ch: (ch.backlog, ch.cid))

    def _goal_arrived(self, msg: GoalMessage) -> None:
        if msg.load_word is not None:
            self._absorb_piggyback(msg.dst, msg.src, msg.load_word)
            msg.load_word = None
        self._on_goal_message(msg.dst, msg)

    def _absorb_piggyback(self, observer: int, subject: int, load: float) -> None:
        self.stats.piggybacked_words += 1
        self._known_loads[observer][subject] = load

    def _response_arrived(self, msg: ResponseMessage) -> None:
        """``msg`` stands at ``msg.dst``: deliver it there or send it a hop on."""
        if msg.load_word is not None:
            self._absorb_piggyback(msg.dst, msg.src, msg.load_word)
            msg.load_word = None
        cur = msg.dst
        final = msg.final_dst
        if cur == final:
            self.pes[cur].deliver_response(msg.task_id, msg.child_index, msg.value)
            return
        nxt = self._next_hop(cur, final)
        msg.src, msg.dst = cur, nxt
        if self._piggyback:
            msg.load_word = self.load_of(cur)
        self.stats.response_messages_sent += 1
        channel = self._links[cur].get(nxt) or self._pick_channel(cur, nxt)
        channel.send(msg, self._deliver_response)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        """One utilization sample (the sampler tick's body)."""
        cfg = self.config
        interval = cfg.sample_interval
        n = self.topology.n
        now = self.engine.now
        cur = np.array([pe.effective_busy(now) for pe in self.pes])
        delta = cur - self._sample_prev
        self._sample_prev = cur
        per_pe = tuple(delta / interval) if cfg.sample_per_pe else None
        utilization = float(delta.sum()) / (n * interval)
        self.stats.samples.append(UtilizationSample(now, utilization, per_pe))
        tele = _telemetry.sink()
        if tele is not None:
            tele.emit(
                "sample",
                sim_time=float(now),
                utilization=utilization,
                per_pe=None if per_pe is None else [float(v) for v in per_pe],
                n_pes=n,
                cols=getattr(self.topology, "cols", None),
                queue_depth=sum(len(pe.queue) for pe in self.pes),
                calendar=self.engine.pending,
            )
