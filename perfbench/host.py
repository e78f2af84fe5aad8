"""Host speed, measured beside every timed operation.

The benchmark's host is shared: on a 2-core box the same fixed loop has
been measured to take anywhere from 1x to 2x its fastest time within a
few minutes, as other tenants come and go.  Raw wall times then spread
across runs by far more than any regression worth catching, so the
closed-loop rates are scaled to a nominal host speed: each operation's
rate is divided by ``speed``, the ratio of the nominal wall time of a
fixed pure-Python reference loop to its wall time right around the
operation.  The loop lives here, not in the program, so no change to the
program can move it; it mimics the simulator's work (a heap of list
entries, slotted objects, calls through closures).

Paths that keep both cores busy (the farmed sweep, the service's burst)
are scaled by the speed of two passes run at once in two forked
processes instead: a tenant that takes one core slows them without
slowing a single pass.
"""

from __future__ import annotations

import heapq
import multiprocessing
import statistics
import time

#: wall time on a quiet host, in seconds, of one reference pass (key 1)
#: and of two passes at once in two forked processes (key 2)
NOMINAL_S = {1: 0.020, 2: 0.025}


class _Node:
    __slots__ = ("load", "recent")

    def __init__(self) -> None:
        self.load = 0
        self.recent: list[int] = []


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference loop."""
    start = time.perf_counter()
    nodes = [_Node() for _ in range(64)]

    def fire(node: _Node, seq: int) -> None:
        node.load += 1
        node.recent.append(seq)
        if len(node.recent) > 8:
            node.recent.pop(0)

    heap: list[list] = []
    for seq in range(25_000):
        heapq.heappush(heap, [(seq * 7919) % 1009, seq, nodes[seq % 64], fire])
        if len(heap) > 200:
            _, seq_, node, fn = heapq.heappop(heap)
            fn(node, seq_)
    while heap:
        _, seq_, node, fn = heapq.heappop(heap)
        fn(node, seq_)
    return time.perf_counter() - start


def pair_seconds() -> float:
    """Wall time of two reference passes run at once in two forked processes."""
    context = multiprocessing.get_context("fork")
    start = time.perf_counter()
    workers = [context.Process(target=reference_seconds) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - start


class Host:
    """Brackets operations with reference passes; reports the host's speed.

    ``speed_since_last`` gives, per number of busy cores (1 and, with
    ``pair``, 2), nominal time over measured time of that reference,
    averaged over the passes just before and just after the operation:
    1.0 on a quiet host, lower while other tenants slow it down.
    """

    def __init__(self, pair: bool = False) -> None:
        self.probes = {1: reference_seconds}
        if pair:
            self.probes[2] = pair_seconds
        self.last = self._measure()
        self.passes = [self.last[1]]

    def _measure(self) -> dict[int, float]:
        return {cores: probe() for cores, probe in self.probes.items()}

    def speed_since_last(self) -> dict[int, float]:
        """Speed per busy-core count over the span since the previous call."""
        now = self._measure()
        self.passes.append(now[1])
        speed = {
            cores: NOMINAL_S[cores] / ((self.last[cores] + now[cores]) / 2)
            for cores in now
        }
        self.last = now
        return speed

    @property
    def median_ms(self) -> float:
        return statistics.median(self.passes) * 1e3
