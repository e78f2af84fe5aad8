"""Shard-side half of the conservative parallel engine.

One :class:`ShardWorker` lives in each worker process and simulates the
PEs its :class:`~repro.topology.partition.Partition` block owns, plus
replicas of the machine-level machinery (site-0 ticks, construction,
``strategy.start()``) that every shard must agree on.  The coordinator
(:mod:`repro.pdes.coordinator`) drives it over a pipe with three
commands — ``window`` / ``finalize`` / ``abort``.

The headline guarantee is *bit identity with the serial run*, and it
rests on the engine's site-keyed event ordering: every event's full
sort key ``(time, priority, site, sseq)`` is computed from local
information of the site that schedules it.  A shard that owns a site
executes exactly the serial sequence of events that draw from that
site's counter, in serial key order, so it draws exactly the serial
sequence numbers; events that must be visible on *other* shards (load
words, strategy control words, boundary-channel deliveries) travel with
their serial key attached and are heap-inserted verbatim, never
re-keyed.

Because the coordinator only learns that a query completed at a window
barrier, a shard runs *past* the serial stop point inside the final
window.  Every mutation of reported state (stats counters, the work
front, PE burst accounting, local channel accounting) is therefore
undo-logged against the key of the event that made it, and
:meth:`ShardWorker.finalize` rolls back everything after the resolved
stop key K* before reporting.  Post-K* events may even *raise* (e.g. a
duplicate root response hitting a PE guard) — that is the wedge
protocol: the error travels to the coordinator with the key it occurred
at, and is only fatal if the serial run would have reached that key.
"""

from __future__ import annotations

import traceback
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any

from ..oracle.channel import Channel
from ..oracle.engine import SimulationError
from ..oracle.machine import Machine
from ..oracle.pe import PE
from ..oracle.stats import StatsCollector

if TYPE_CHECKING:  # annotation-only imports; runtime imports stay lazy
    from multiprocessing.connection import Connection

    from ..core.base import Strategy
    from ..oracle.config import CostModel, SimConfig
    from ..oracle.engine import Engine
    from ..scenario.arrivals import Arrivals
    from ..scenario.scenario import Scenario
    from ..topology.base import Topology
    from ..topology.partition import Partition
    from ..workload.base import Program

__all__ = ["PREAMBLE_KEY", "ShardMachine", "ShardWorker", "worker_main"]

#: Sorts before every real event key; tags effects of the replicated
#: t=0 preamble (construction, ``strategy.start()``, direct injects),
#: which the serial run performs outside the event loop and which are
#: never rolled back.
PREAMBLE_KEY = (-1.0, -1, -1, -1)

#: Stats counters whose writes are undo-logged via ``__setattr__``
#: (everything SimResult reports except the structures with dedicated
#: log records below).
_LOGGED_COUNTERS = frozenset(
    {
        "goals_created",
        "goals_started",
        "goal_messages_sent",
        "response_messages_sent",
        "responses_routed",
        "response_hops",
        "control_words_sent",
        "piggybacked_words",
    }
)


class ShardStats(StatsCollector):
    """Stats collector that undo-logs every reported mutation.

    Counter writes are intercepted in ``__setattr__`` (the machine and
    strategies mutate them with plain ``+=``); the work front and hop
    histogram get a dedicated ``first`` record because they change
    together in :meth:`record_goal_start`.
    """

    def __init__(self, machine: "ShardMachine", n_pes: int, trace_hops: bool) -> None:
        self.__dict__["_m"] = machine
        super().__init__(n_pes, trace_hops)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _LOGGED_COUNTERS:
            m = self.__dict__["_m"]
            m._undo.append((m._cur_key, "stats", name, self.__dict__.get(name, 0)))
        self.__dict__[name] = value

    def record_goal_start(self, pe: int, goal: Any) -> None:
        m = self.__dict__["_m"]
        m._undo.append(
            (
                m._cur_key,
                "first",
                pe,
                self.first_goal_time[pe],
                goal.hops if self.trace_hops else None,
            )
        )
        super().record_goal_start(pe, goal)


class ShardPE(PE):
    """PE whose burst accounting is undo-logged."""

    __slots__ = ()

    def _begin_burst(self) -> None:
        m = self.machine
        m._undo.append(
            (m._cur_key, "pe", self.index, self.busy_time, self._hold_end, self.goals_executed)
        )
        super()._begin_burst()


class ShardChannel(Channel):
    """Channel owned entirely by one shard; transfer accounting is logged."""

    __slots__ = ("_machine",)

    def __init__(
        self,
        machine: ShardMachine,
        engine: Engine,
        cid: int,
        members: tuple[int, ...],
        costs: CostModel,
        site: int,
    ) -> None:
        super().__init__(engine, cid, members, costs, site)
        self._machine = machine

    def send(self, msg, deliver) -> None:
        if not self.busy:  # a transfer starts: log the accounting it charges
            m = self._machine
            m._undo.append(
                (
                    m._cur_key,
                    "chan",
                    self.cid,
                    self.busy_time,
                    self.messages_carried,
                    self.words_carried,
                    self._busy_until,
                )
            )
        super().send(msg, deliver)


class BoundaryChannel(Channel):
    """Stub for a channel whose members span shards.

    ``send`` records the submission in the shard's outbox — the
    channel's busy/queue state machine is replayed authoritatively by
    the coordinator's :class:`~repro.pdes.mirror.BoundaryMirror`, which
    draws the transfer-complete keys and injects the delivery into the
    destination shard.  The record's extended key ``cur_key + (sub,)``
    totally orders sends across shards even inside one replicated event
    (``sub`` is synchronized across shards — see
    :meth:`ShardMachine._apply_word`).
    """

    __slots__ = ("_machine",)

    def __init__(
        self,
        machine: ShardMachine,
        engine: Engine,
        cid: int,
        members: tuple[int, ...],
        costs: CostModel,
        site: int,
    ) -> None:
        super().__init__(engine, cid, members, costs, site)
        self._machine = machine

    def send(self, msg, deliver) -> None:
        m = self._machine
        if deliver == m._goal_arrived:
            kind = "goal"
        elif deliver == m._response_arrived:
            kind = "response"
        else:  # pragma: no cover - channel-mode deliveries are rejected earlier
            raise SimulationError(
                "unrecognized delivery callback on a boundary channel"
            )
        sub = m._sub_base + m._sub_n
        m._sub_n += 1
        m._outbox.append(("send", m._cur_key + (sub,), self.cid, m.engine.now, kind, msg))


class ShardMachine(Machine):
    """A Machine that simulates one shard of the partition.

    Construction is *replicated*: every shard builds the full machine
    (all PEs, all channels, the strategy bound against the whole
    topology), so all replicated decisions — construction-time RNG
    draws, ``strategy.start()`` scheduling, site-0 ticks — land
    identically everywhere.  Only execution is partitioned.
    """

    def __init__(
        self,
        partition: Partition,
        shard: int,
        topology: Topology,
        program: Program,
        strategy: Strategy,
        config: SimConfig,
        start_pe: int,
        arrivals: Arrivals,
    ) -> None:
        # Everything the component factories consult must exist before
        # super().__init__ constructs stats/pes/channels.
        self.partition = partition
        self.shard = shard
        self._owned = partition.owned(shard)
        n = topology.n
        mask = bytearray(n)
        for pe in self._owned:
            mask[pe] = 1
        self._owner_mask = mask
        #: owned PEs with at least one foreign-shard neighbor: their
        #: load/control words must be exported
        export = bytearray(n)
        for pe in self._owned:
            if partition.word_fanout[pe]:
                export[pe] = 1
        self._word_export = export
        #: undo log: (key, kind, ...) records in execution (= key) order
        self._undo: list[tuple] = []
        #: cross-shard records drained to the coordinator each window
        self._outbox: list[tuple] = []
        #: root-response candidates: (key, query, time, value)
        self._candidates: list[tuple] = []
        #: raw utilization samples: (key, time, [owned effective_busy])
        self._sample_log: list[tuple] = []
        #: key of the event currently executing (tuple copy — heap
        #: entries are mutable lists that ticks recycle)
        self._cur_key: tuple = PREAMBLE_KEY
        # within-event ordering of boundary sends (see BoundaryChannel)
        self._sub_base = 0
        self._sub_n = 0
        super().__init__(topology, program, strategy, config, start_pe, arrivals=arrivals)
        #: per-site flag: does an event at this site count toward this
        #: shard's events_executed?  Site 0 is counted by shard 0 alone;
        #: PE sites by their owner; channel sites by the owning shard
        #: (boundary-channel delivery events are only ever *executed* on
        #: the destination shard, so the flag can be 1 everywhere).
        countf = bytearray(1 + n + len(topology.channels))
        if shard == 0:
            countf[0] = 1
        for pe in self._owned:
            countf[1 + pe] = 1
        for cid, owner in enumerate(partition.channel_shard):
            if owner == shard or owner == -1:
                countf[1 + n + cid] = 1
        self._count_site = countf

    # -- component factories ------------------------------------------------

    def _make_stats(self, n: int, trace_hops: bool) -> ShardStats:
        return ShardStats(self, n, trace_hops)

    def _make_pe(self, index: int, speed: float) -> ShardPE:
        return ShardPE(index, self, speed)

    def _make_channel(
        self, cid: int, members: tuple[int, ...], costs: CostModel, site: int
    ) -> Channel:
        cls = BoundaryChannel if self.partition.channel_shard[cid] == -1 else ShardChannel
        return cls(self, self.engine, cid, members, costs, site)

    # -- termination --------------------------------------------------------

    def finished(self, value, query: int = 0) -> None:
        """Record a root-response candidate; never stop locally.

        The serial stop point K* is a *global* property (the key of the
        event completing the last query, machine-wide), so a shard keeps
        executing its window and lets the coordinator resolve K* from
        all shards' candidates — including the duplicate-completion
        error, which is faithful only in global key order.
        """
        self._candidates.append((self._cur_key, query, self.engine.now, value))

    # -- load information service -------------------------------------------

    def load_changed(self, pe: int) -> None:
        hook = self._on_load_changed
        if hook is not None:
            hook(pe)
        if not self._posting:
            return
        value = self.load_of(pe)
        if value == self._last_posted[pe]:
            return
        self._last_posted[pe] = value
        # Only "on_change" posts here in shard mode ("channel" is
        # rejected by check_shardable).
        self.stats.control_words_sent += 1
        engine = self.engine
        site = 1 + pe
        delay = self.config.load_info_delay
        engine.after(delay, self._deliver_load_word, (pe, value), site=site)
        if self._word_export[pe]:
            self._outbox.append(
                ("load", (engine.now + delay, 10, site, engine._site_seq[site]), pe, value)
            )

    def _broadcast_loads(self) -> None:
        """Periodic-mode broadcaster, restricted to owned PEs.

        Runs as a replicated site-0 tick on every shard; each shard
        posts (and exports) only the loads it owns, so the per-site
        draw sequences match the serial broadcaster that walks all PEs.
        """
        delay = self.config.load_info_delay
        engine = self.engine
        for pe in self._owned:
            value = self.load_of(pe)
            if value != self._last_posted[pe]:
                self._last_posted[pe] = value
                self.stats.control_words_sent += 1
                site = 1 + pe
                engine.after(delay, self._deliver_load_word, (pe, value), site=site)
                if self._word_export[pe]:
                    self._outbox.append(
                        (
                            "load",
                            (engine.now + delay, 10, site, engine._site_seq[site]),
                            pe,
                            value,
                        )
                    )

    # -- word transport -----------------------------------------------------

    def _transport_word(self, src, dst, kind, value) -> None:
        # "channel" and "instant" modes are rejected by check_shardable,
        # so the delivery is always the delayed event the serial
        # on_change/periodic/piggyback path schedules.
        targets = self.neighbors(src) if dst is None else (dst,)
        self.stats.control_words_sent += len(targets)
        delay = self.config.load_info_delay
        mask = self._owner_mask
        local = all(mask[t] for t in targets)
        if delay > 0:
            engine = self.engine
            site = 1 + src
            engine.after(delay, self._apply_word, (targets, src, kind, value), site=site)
            if not local:
                self._outbox.append(
                    (
                        "word",
                        (engine.now + delay, 10, site, engine._site_seq[site]),
                        targets,
                        src,
                        kind,
                        value,
                    )
                )
        elif local:
            self._apply_word((targets, src, kind, value))
        else:
            raise SimulationError(
                "zero-delay control word crosses a shard boundary; this "
                "scenario cannot run sharded (set load_info_delay > 0)"
            )

    def _apply_word(self, payload) -> None:
        """Deliver a control word to the *owned* targets only.

        The word event is replicated on every shard owning a target;
        each shard runs ``on_word`` for its own PEs alone (the hook may
        mutate the target's state and schedule at the target's site).
        The ``_sub_base`` jumps keep boundary sends made inside
        different targets' hook calls globally ordered by the target's
        position — the serial call order.
        """
        targets, src, kind, value = payload
        on_word = self.strategy.on_word
        mask = self._owner_mask
        for pos, dst in enumerate(targets):
            if mask[dst]:
                self._sub_base = (pos + 1) << 20
                self._sub_n = 0
                on_word(dst, src, kind, value)

    # -- sampling -----------------------------------------------------------

    def _sample(self) -> None:
        """Record this shard's slice of one utilization sample.

        The numpy reduction happens on the coordinator, which
        concatenates the shard slices in shard order and redoes the
        exact serial arithmetic — bit-identical floats.
        """
        now = self.engine.now
        self._sample_log.append(
            (self._cur_key, now, [self.pes[pe].effective_busy(now) for pe in self._owned])
        )


class ShardWorker:
    """Drives one ShardMachine through prepare / window / finalize."""

    def __init__(self, scenario: Scenario, shards: int, shard: int) -> None:
        from ..topology.partition import Partition

        topology = scenario.resolve_topology()
        self.partition = Partition(topology, shards)
        self.shard = shard
        self.machine = ShardMachine(
            self.partition,
            shard,
            topology,
            scenario.resolve_workload(),
            scenario.resolve_strategy(family=topology.family),
            scenario.effective_config,
            scenario.start_pe,
            scenario.arrivals,
        )
        #: counted keys of the window currently awaiting confirmation
        self._window_keys: list[tuple] = []
        #: counted events from all confirmed (pre-final) windows
        self._executed_confirmed = 0
        m = self.machine
        self._deliver = {
            "goal": m._goal_arrived,
            "response": m._response_arrived,
            "load": m._deliver_load_word,
            "word": m._apply_word,
        }

    # -- lifecycle ----------------------------------------------------------

    def prepare(self) -> dict:
        """Run the serial preamble (``Machine._start``), then prune.

        Periodic machinery and ``strategy.start()`` run identically on
        every shard (synchronizing the replicated site-0 and RNG state);
        the owner mask limits query injections to the owner of the
        arrival PE.
        Afterwards the heap is pruned of events parked at foreign PE
        sites — replicated construction scheduled startup and strategy
        machinery for every PE, but each executes only on its owner.
        """
        m = self.machine
        mask = m._owner_mask
        m._start(mask)
        n = m.topology.n
        heap = m.engine._heap
        heap[:] = [e for e in heap if not (1 <= e[2] <= n and not mask[e[2] - 1])]
        heapify(heap)
        return self._drain(None, 0)

    def run_window(self, horizon: float, injections: list) -> dict:
        """Insert cross-shard injections and execute events < horizon."""
        m = self.machine
        engine = m.engine
        heap = engine._heap
        # The coordinator issuing a new window confirms the previous one
        # contained no stop key: fold its count, forget its undo log.
        self._executed_confirmed += len(self._window_keys)
        self._window_keys = []
        keys = self._window_keys
        m._undo.clear()
        deliver = self._deliver
        for t, prio, site, k, kind, payload in injections:
            heappush(heap, [t, prio, site, k, deliver[kind], payload])
        countf = m._count_site
        limit = m.config.max_events
        if limit is None:
            limit = float("inf")
        error = None
        try:
            while heap and heap[0][0] < horizon:
                entry = heappop(heap)
                engine.now = entry[0]
                m._cur_key = (entry[0], entry[1], entry[2], entry[3])
                m._sub_base = 0
                m._sub_n = 0
                if countf[entry[2]]:
                    keys.append(m._cur_key)
                    if self._executed_confirmed + len(keys) > limit:
                        raise SimulationError(
                            f"event limit exceeded ({m.config.max_events}); "
                            "likely a runaway model"
                        )
                entry[4](entry[5])
        except Exception:
            # The wedge protocol: report the error with the key it hit;
            # the torn event's undo entries are already logged, so a
            # finalize at K* < this key still rolls back cleanly.
            error = (traceback.format_exc(), m._cur_key)
        return self._drain(error, len(keys))

    def _drain(self, error, events: int) -> dict:
        m = self.machine
        heap = m.engine._heap
        sends, m._outbox = m._outbox, []
        candidates, m._candidates = m._candidates, []
        samples, m._sample_log = m._sample_log, []
        return {
            "sends": sends,
            "candidates": candidates,
            "samples": samples,
            "next_time": heap[0][0] if heap else float("inf"),
            "events": events,
            "error": error,
        }

    def finalize(self, kstar, tstar: float) -> dict:
        """Roll back past the stop key and report this shard's slice."""
        m = self.machine
        kstar = tuple(kstar)
        undo = m._undo
        stats = m.stats
        # Entries are in key order; __dict__ writes bypass the logging
        # __setattr__ so the log cannot grow while it drains.
        while undo and undo[-1][0] > kstar:
            rec = undo.pop()
            kind = rec[1]
            if kind == "stats":
                stats.__dict__[rec[2]] = rec[3]
            elif kind == "pe":
                pe = m.pes[rec[2]]
                pe.busy_time = rec[3]
                pe._hold_end = rec[4]
                pe.goals_executed = rec[5]
            elif kind == "first":
                stats.first_goal_time[rec[2]] = rec[3]
                hops = rec[4]
                if hops is not None:
                    left = stats.hop_histogram[hops] - 1
                    if left:
                        stats.hop_histogram[hops] = left
                    else:
                        del stats.hop_histogram[hops]
            else:  # "chan"
                ch = m.channels[rec[2]]
                ch.busy_time = rec[3]
                ch.messages_carried = rec[4]
                ch.words_carried = rec[5]
                ch._busy_until = rec[6]
        executed = self._executed_confirmed + bisect_right(self._window_keys, kstar)
        owned = m._owned
        shard = self.shard
        channel_shard = self.partition.channel_shard
        return {
            "busy": [m.pes[pe].effective_busy(tstar) for pe in owned],
            "goals": [m.pes[pe].goals_executed for pe in owned],
            "first": [stats.first_goal_time[pe] for pe in owned],
            "counters": {name: stats.__dict__[name] for name in sorted(_LOGGED_COUNTERS)},
            "hist": dict(stats.hop_histogram),
            "channels": {
                ch.cid: (ch.effective_busy(tstar), int(ch.messages_carried))
                for ch in m.channels
                if channel_shard[ch.cid] == shard
            },
            "executed": executed,
        }


def worker_main(conn: Connection, scenario: Scenario, shards: int, shard: int) -> None:
    """Process entry point: serve coordinator commands over ``conn``."""
    try:
        worker = ShardWorker(scenario, shards, shard)
        conn.send(("ready", worker.prepare()))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "window":
                conn.send(("window", worker.run_window(cmd[1], cmd[2])))
            elif op == "finalize":
                conn.send(("final", worker.finalize(cmd[1], cmd[2])))
                return
            else:  # "abort"
                return
    except EOFError:  # coordinator went away; nothing to report to
        return
    except BaseException:
        try:
            conn.send(("crash", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()
