"""Conservative parallel execution of one scenario across processes.

:func:`run_sharded` splits one machine's PEs into contiguous blocks
(:class:`~repro.topology.partition.Partition`), runs each block in its
own worker process, and advances them in lockstep *windows*: before
window *j* every cross-shard effect with a timestamp below the horizon
``H_j = E_j + L`` is already in flight toward its destination, where
``E_j`` is the earliest unexecuted timestamp machine-wide and ``L`` the
scenario's *lookahead* — the minimum latency any cross-shard effect
pays (boundary-channel transfer time, capped by the load-word delay for
strategies that consume load information).  Each shard then executes
its events strictly below ``H_j`` knowing nothing can arrive to
invalidate them.  Null-message-free conservative PDES in the
Chandy/Misra/Bryant tradition, with a central window barrier.

The payoff is the guarantee, not just the parallelism: the result is
**bit-identical** to ``scenario.run()`` — same ``SimResult`` down to
``events_executed`` and every float — because events carry their serial
``(time, priority, site, sseq)`` keys across shard boundaries and each
site's key sequence is drawn by exactly one authority (the owning
shard, or the coordinator's boundary-channel mirror).  See
``docs/pdes.md`` for the full protocol and its correctness argument.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.base import Strategy
from ..obs import telemetry as _telemetry
from ..oracle.config import SimConfig
from ..oracle.engine import SimulationError
from ..oracle.stats import SimResult, UtilizationSample
from ..scenario.arrivals import Arrivals
from ..topology.partition import Partition
from .mirror import BoundaryMirror
from .shard import worker_main

if TYPE_CHECKING:  # annotation-only imports
    from multiprocessing.connection import Connection

    from ..scenario.scenario import Scenario
    from ..topology.base import Topology
    from ..workload.base import Program

__all__ = ["NotShardable", "check_shardable", "lookahead_of", "run_sharded"]

_INF = float("inf")


class NotShardable(SimulationError):
    """The scenario cannot legally run under the conservative engine.

    Raised by :func:`check_shardable` (and hence :func:`run_sharded`)
    for scenarios whose semantics require same-instant visibility of
    another shard's state — the caller should fall back to a serial
    run (which is always legal) rather than treat this as a failure.
    """


def lookahead_of(config: SimConfig, strategy: Strategy) -> float:
    """The minimum model-time latency of any cross-shard effect.

    Goal/response messages pay at least one boundary-channel transfer
    (``hop_overhead + word_time`` for the smallest message, before the
    sender-side ``route_decision`` hold which only adds).  Load words
    and strategy control words pay ``load_info_delay`` — but only modes
    that actually deliver them can make one cross a boundary:
    ``on_change``/``periodic`` always may, ``piggyback`` only feeds
    strategies that override ``on_word`` (its load words ride inside
    goal messages, which already pay the channel latency).
    """
    costs = config.costs
    lookahead = costs.hop_overhead + costs.word_time
    mode = config.load_info
    uses_words = type(strategy).on_word is not Strategy.on_word
    if mode in ("on_change", "periodic") or (mode == "piggyback" and uses_words):
        lookahead = min(lookahead, config.load_info_delay)
    return lookahead


def _check(
    topology: Topology, strategy: Strategy, config: SimConfig, partition: Partition
) -> float:
    """Validate shardability; return the lookahead or raise NotShardable."""
    if not getattr(type(strategy), "shardable", False):
        raise NotShardable(
            f"strategy {strategy.name!r} is not shardable: its hooks read or "
            "write the live state of PEs other than the acting one"
        )
    if config.load_info == "instant":
        raise NotShardable(
            'load_info="instant" lets every PE read live loads of PEs on '
            "other shards"
        )
    if config.load_info == "channel":
        raise NotShardable(
            'load_info="channel" broadcasts on channels whose backlog and '
            "members may span shards"
        )
    lookahead = lookahead_of(config, strategy)
    if lookahead <= 0:
        raise NotShardable(
            "lookahead is zero: a cross-shard effect could demand same-"
            "instant delivery (raise load_info_delay or the channel costs)"
        )
    # Multi-channel adjacent pairs: _pick_channel reads live backlog to
    # choose, and a boundary channel's backlog is not visible shard-side.
    for cid in partition.boundary_channels:
        members = topology.channels[cid]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                try:
                    if len(topology.channels_between(a, b)) > 1:
                        raise NotShardable(
                            f"PEs {a} and {b} are joined by several channels "
                            "and at least one crosses a shard boundary; "
                            "channel selection reads live backlog"
                        )
                except KeyError:
                    continue
    return lookahead


def check_shardable(
    scenario: Scenario, shards: int, *, verify: bool = False
) -> tuple[Partition, float]:
    """Validate ``scenario`` for ``shards``-way execution.

    Returns the :class:`Partition` and the lookahead on success; raises
    :class:`NotShardable` (with the reason) otherwise.  ``Partition``
    itself raises ``ValueError`` for impossible shard counts.

    With ``verify=True`` the declared ``shardable`` flag is additionally
    cross-checked against the static effect inference
    (:func:`repro.lint.flow.verify_strategy`): a strategy *declared*
    shardable whose hooks the analysis can prove non-shard-local is
    rejected before any worker forks — a contract breach here means a
    sharded run would silently diverge from the sequential oracle.
    """
    topology = scenario.resolve_topology()
    partition = Partition(topology, shards)
    strategy = scenario.resolve_strategy(family=topology.family)
    config = scenario.effective_config
    lookahead = _check(topology, strategy, config, partition)
    if verify:
        from ..lint.flow import verify_strategy

        report = verify_strategy(type(strategy).__name__)
        if report is not None and report.contract_breach:
            detail = "; ".join(v.describe() for v in report.violations[:3])
            raise NotShardable(
                f"strategy {strategy.name!r} declares shardable = True but "
                f"effect inference found non-shard-local hooks: {detail} "
                f"(run `repro lint --explain` for the propagation paths)"
            )
    return partition, lookahead


def run_sharded(scenario: Scenario, shards: int) -> SimResult:
    """Run ``scenario`` across ``shards`` worker processes.

    Bit-identical to ``scenario.run()`` — including error behavior: a
    scenario that deadlocks or raises serially does so here too, with
    the same exception type.  ``shards == 1`` simply runs serially.
    """
    if shards == 1:
        return scenario.run()
    topology = scenario.resolve_topology()
    strategy = scenario.resolve_strategy(family=topology.family)
    program = scenario.resolve_workload()
    config = scenario.effective_config
    partition = Partition(topology, shards)
    lookahead = _check(topology, strategy, config, partition)

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    # Forked workers inherit the parent's heap copy-on-write, and any
    # cyclic garbage the parent is carrying gets re-traced (and its
    # pages faulted) by every worker's own collector.  A parent that
    # just dropped a big machine can slow a 4-shard run by an order of
    # magnitude; collect once here so workers start from a clean heap.
    gc.collect()
    workers = []
    conns = []
    try:
        for s in range(shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(child, scenario, shards, s),
                daemon=True,
                name=f"repro-shard-{s}",
            )
            proc.start()
            child.close()
            workers.append(proc)
            conns.append(parent)
        return _drive(
            scenario, topology, strategy, program, config, partition, lookahead, conns
        )
    finally:
        for conn in conns:
            try:
                conn.send(("abort",))
            except OSError:
                pass  # worker already exited and closed its end
            conn.close()
        for proc in workers:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5)


def _recv(conn: Connection, shard: int, stage: str) -> Any:
    """One reply off a worker pipe; fatal-crash replies propagate."""
    try:
        tag, payload = conn.recv()
    except EOFError:
        raise SimulationError(
            f"shard {shard} died without a reply during {stage}"
        ) from None
    if tag == "crash":
        raise SimulationError(f"shard {shard} crashed during {stage}:\n{payload}")
    return payload


def _drive(
    scenario: Scenario,
    topology: Topology,
    strategy: Strategy,
    program: Program,
    config: SimConfig,
    partition: Partition,
    lookahead: float,
    conns: list[Connection],
) -> SimResult:
    shards = partition.shards
    mirror = BoundaryMirror(partition, config.costs)
    #: per destination shard: injection entries not yet shipped
    pending: list[list[tuple]] = [[] for _ in range(shards)]
    next_time = [0.0] * shards
    candidates: list[tuple] = []
    #: key -> (time, {shard: [effective_busy per owned PE]})
    samples_by_key: dict[tuple, tuple[float, dict[int, list[float]]]] = {}
    #: (key, shard, traceback_text) per wedged shard
    errors: list[tuple] = []
    arrivals = scenario.arrivals
    queries = arrivals.queries
    events_issued = 0

    def absorb(shard: int, reply: dict) -> int:
        next_time[shard] = reply["next_time"]
        boundary_sends = []
        for rec in reply["sends"]:
            tag = rec[0]
            if tag == "send":
                boundary_sends.append(rec)
            elif tag == "load":
                _tag, key, pe, value = rec
                entry = key + ("load", (pe, value))
                for dest in partition.word_fanout[pe]:
                    pending[dest].append(entry)
            else:  # "word"
                _tag, key, targets, src, kind, value = rec
                entry = key + ("word", (targets, src, kind, value))
                dests = {partition.shard_of(t) for t in targets}
                dests.discard(partition.shard_of(src))
                for dest in sorted(dests):
                    pending[dest].append(entry)
        if boundary_sends:
            mirror.add_sends(boundary_sends)
        candidates.extend(reply["candidates"])
        for key, now, slice_ in reply["samples"]:
            if key not in samples_by_key:
                samples_by_key[key] = (now, {})
            samples_by_key[key][1][shard] = slice_
        if reply["error"] is not None:
            text, key = reply["error"]
            errors.append((key, shard, text))
        return reply["events"]

    tele = _telemetry.sink()
    wall_start = time.perf_counter()  # lint: ok[wall-clock-in-kernel] telemetry throughput only
    if tele is not None:
        tele.emit(
            "shard.start",
            shards=shards,
            n_pes=topology.n,
            lookahead=float(lookahead),
            boundary_channels=len(partition.boundary_channels),
            workload=getattr(program, "label", program.name),
            topology=topology.name,
            strategy=strategy.name,
        )

    for s, conn in enumerate(conns):
        absorb(s, _recv(conn, s, "setup"))

    windows = 0
    resolved = None
    while True:
        resolved = _resolve(candidates, queries)
        fail = min(errors) if errors else None
        if resolved is not None and resolved[0] == "dup":
            _, dup_key, dup_query = resolved
            if fail is None or dup_key < fail[0]:
                raise SimulationError(f"query {dup_query} finished twice")
        if fail is not None and (
            resolved is None or resolved[0] != "done" or resolved[1] >= fail[0]
        ):
            # The serial run reaches this event and dies there too.
            raise SimulationError(
                f"shard {fail[1]} failed at event {fail[0]}:\n{fail[2]}"
            )
        if resolved is not None and resolved[0] == "done":
            break

        earliest = min(next_time)
        for queue in pending:
            for entry in queue:
                if entry[0] < earliest:
                    earliest = entry[0]
        if earliest == _INF:
            raise SimulationError(
                "simulation deadlocked: event calendar drained before the "
                "root response (strategy lost a goal?)"
            )
        horizon = earliest + lookahead
        active = []
        shipped = 0
        for s in range(shards):
            ready = [e for e in pending[s] if e[0] < horizon]
            if not ready and next_time[s] >= horizon:
                continue  # nothing for this shard below the horizon
            if ready:
                pending[s] = [e for e in pending[s] if e[0] >= horizon]
                shipped += len(ready)
            conns[s].send(("window", horizon, ready))
            active.append(s)
        windows += 1
        barrier_start = time.perf_counter()  # lint: ok[wall-clock-in-kernel] telemetry sync timing
        executed = 0
        for s in active:
            executed += absorb(s, _recv(conns[s], s, f"window {windows}"))
        events_issued += executed
        mirror.replay(horizon)
        for dest, entry in mirror.drain_injections():
            pending[dest].append(entry)
        if tele is not None:
            tele.emit(
                "shard.window",
                window=windows,
                horizon=float(horizon),
                shards_active=len(active),
                events=executed,
                injections=shipped,
            )
            tele.emit(
                "shard.sync",
                window=windows,
                wall_ms=(time.perf_counter() - barrier_start) * 1e3,  # lint: ok[wall-clock-in-kernel] telemetry sync timing
                events_total=events_issued,
            )

    _status, kstar, tstar, per_query = resolved
    # The final window's boundary sends up to its horizon still charge
    # channel accounting for events <= K*; replay them before finalize.
    mirror.replay(tstar + lookahead)
    for conn in conns:
        conn.send(("finalize", kstar, tstar))
    reports = [_recv(conn, s, "finalize") for s, conn in enumerate(conns)]
    result = _assemble(
        scenario, topology, strategy, program, config, partition, arrivals,
        mirror, kstar, tstar, per_query, reports, samples_by_key,
    )
    if tele is not None:
        wall = time.perf_counter() - wall_start  # lint: ok[wall-clock-in-kernel] telemetry throughput only
        tele.emit(
            "shard.finish",
            shards=shards,
            windows=windows,
            completion_time=float(result.completion_time),
            events=int(result.events_executed),
            wall_s=wall,
            events_per_s=(result.events_executed / wall) if wall > 0 else 0.0,
            utilization=float(result.utilization),
        )
    return result


def _resolve(candidates: list, queries: int) -> tuple | None:
    """Walk completion candidates in global key order.

    Returns ``("done", kstar, tstar, per_query)`` once the last query
    completes, ``("dup", key, query)`` if a query completes twice
    *before* that point (the serial run raises there), else ``None``.
    """
    per_query: list[tuple | None] = [None] * queries
    count = 0
    for key, query, now, value in sorted(candidates):
        if per_query[query] is not None:
            return ("dup", key, query)
        per_query[query] = (now, value)
        count += 1
        if count == queries:
            return ("done", key, now, per_query)
    return None


def _assemble(
    scenario: Scenario,
    topology: Topology,
    strategy: Strategy,
    program: Program,
    config: SimConfig,
    partition: Partition,
    arrivals: Arrivals,
    mirror: BoundaryMirror,
    kstar: tuple,
    tstar: float,
    per_query: list,
    reports: list,
    samples_by_key: dict,
) -> SimResult:
    n = topology.n
    queries = arrivals.queries
    busy = np.empty(n, dtype=float)
    goals = np.empty(n, dtype=int)
    first = np.empty(n, dtype=float)
    counters: dict[str, int] = {}
    hist: dict[int, int] = {}
    chan_busy = [0.0] * len(topology.channels)
    chan_msgs = [0] * len(topology.channels)
    events = 0
    for s, rep in enumerate(reports):
        owned = partition.owned(s)
        busy[owned.start : owned.stop] = rep["busy"]
        goals[owned.start : owned.stop] = rep["goals"]
        first[owned.start : owned.stop] = rep["first"]
        for name, value in rep["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for hops, count in rep["hist"].items():
            hist[hops] = hist.get(hops, 0) + count
        for cid, (cbusy, cmsgs) in rep["channels"].items():
            chan_busy[cid] = cbusy
            chan_msgs[cid] = cmsgs
        events += rep["executed"]
    for cid, (cbusy, cmsgs, _cwords) in mirror.finalize(kstar, tstar).items():
        chan_busy[cid] = cbusy
        chan_msgs[cid] = cmsgs

    limit = config.max_events
    if limit is not None and events > limit:
        raise SimulationError(
            f"event limit exceeded ({limit}); likely a runaway model"
        )

    samples: list[UtilizationSample] = []
    interval = config.sample_interval
    if interval > 0 and samples_by_key:
        shards = partition.shards
        prev = np.zeros(n)
        for key in sorted(samples_by_key):
            if key > kstar:
                break
            now, parts = samples_by_key[key]
            flat: list[float] = []
            for s in range(shards):
                flat.extend(parts[s])
            cur = np.array(flat)
            delta = cur - prev
            prev = cur
            per_pe = tuple(delta / interval) if config.sample_per_pe else None
            utilization = float(delta.sum()) / (n * interval)
            samples.append(UtilizationSample(now, utilization, per_pe))

    if arrivals.times is not None:
        query_arrivals = [float(t) for t in arrivals.times]
    else:
        query_arrivals = [k * arrivals.spacing for k in range(queries)]
    if queries == 1:
        result_value: Any = per_query[0][1]
    else:
        result_value = [qv for (_qt, qv) in per_query]

    return SimResult(
        strategy=strategy.name,
        topology=topology.name,
        workload=getattr(program, "label", program.name),
        n_pes=n,
        completion_time=tstar,
        result_value=result_value,
        total_goals=counters["goals_started"],
        sequential_work=queries * program.sequential_work(config.costs),
        busy_time=busy,
        goals_per_pe=goals,
        hop_histogram=dict(sorted(hist.items())),
        goal_messages_sent=counters["goal_messages_sent"],
        response_messages_sent=counters["response_messages_sent"],
        responses_routed=counters["responses_routed"],
        response_hops=counters["response_hops"],
        control_words_sent=counters["control_words_sent"],
        channel_busy_time=np.array(chan_busy),
        channel_messages=np.array(chan_msgs),
        samples=samples,
        events_executed=events,
        seed=config.seed,
        piggybacked_words=counters["piggybacked_words"],
        first_goal_time=first,
        params=strategy.describe_params(),
        query_completions=[qt for (qt, _qv) in per_query],
        query_arrivals=query_arrivals,
    )
