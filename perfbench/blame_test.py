"""Blame self-test: a slowdown injected into one layer must be charged to it.

Usage, from the root of a checkout::

    python3 perfbench/blame_test.py

Wraps ``Channel.send`` from outside with a fixed busy loop per call, then
runs the CWN paper scenario with and without the wrapper, interleaved.
The traced runs must charge the added time to ``channel``: its share of
the kernel's self time must grow, by more than three times the growth of
any other layer's share.  Shares, taken within each run, are immune to
the host getting slower for a whole run.  The untraced runs must show
``paper_events_per_s`` falling, scaled to the host's speed as in the
benchmark itself.
Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import statistics
import sys
import time

import tree

SPEC = "fib:18 @ grid:16x16 / cwn?seed=1"
#: iterations of the empty loop added to each call (about 10 us)
SPINS = 500
REPEATS = 5

#: compiled under channel.py's file name, so a profiler sees the wrapper's
#: own time, busy loop included, as time spent in the channel module.  The
#: loop makes no calls, so the profiler's hooks do not eat into it.
_WRAPPER = '''
def wrap(original, spins, calls):
    def send(self, msg, deliver):
        calls[0] += 1
        for _ in range(spins):
            pass
        return original(self, msg, deliver)
    return send
'''


def inject(spins: int) -> tuple[object, list[int]]:
    """Replace ``Channel.send`` by a slowed copy; returns (original, call count)."""
    from repro.oracle import channel

    namespace: dict = {}
    exec(compile(_WRAPPER, channel.__file__, "exec"), namespace)
    calls = [0]
    original = channel.Channel.send
    channel.Channel.send = namespace["wrap"](original, spins, calls)
    return original, calls


def measure(host) -> tuple[dict[str, float], float]:
    """One traced and one untraced run: (self ms per layer, host-scaled events/s)."""
    import cProfile

    from layers import KERNEL_LAYERS, attribute
    from repro.scenario import Scenario

    machine = Scenario.from_spec(SPEC).build()
    profile = cProfile.Profile()
    profile.enable()
    machine.run()
    profile.disable()
    self_ms, _ = attribute(profile)
    layers = {layer: self_ms.get(layer, 0.0) for layer in KERNEL_LAYERS + ("other",)}
    host.speed_since_last()

    start = time.perf_counter()
    result = Scenario.from_spec(SPEC).run()
    rate = result.events_executed / (time.perf_counter() - start)
    return layers, rate / host.speed_since_last()[1]


def main() -> int:
    tree.import_program()
    from host import Host
    from repro.oracle import channel

    host = Host()
    base, slow, calls = [], [], None
    for _ in range(REPEATS):
        base.append(measure(host))
        original, calls = inject(SPINS)
        try:
            slow.append(measure(host))
        finally:
            channel.Channel.send = original
    per_run_calls = calls[0] / 2  # the counter saw one traced and one untraced run

    layers = base[0][0].keys()

    def median(runs, layer, share=False):
        return statistics.median(
            r[0][layer] / (sum(r[0].values()) if share else 1.0) for r in runs
        )

    delta = {layer: median(slow, layer) - median(base, layer) for layer in layers}
    shift = {layer: median(slow, layer, True) - median(base, layer, True) for layer in layers}
    base_rate = statistics.median(b[1] for b in base)
    slow_rate = statistics.median(s[1] for s in slow)
    print(f"injected {SPINS} empty loop turns into each of {per_run_calls:.0f} "
          f"Channel.send calls")
    for layer in sorted(layers, key=lambda name: -shift[name]):
        print(f"  {layer:9s} self time {delta[layer]:+9.1f} ms, "
              f"share of the kernel's self time {shift[layer]:+7.1%}")
    print(f"  paper_events_per_s {base_rate:.0f} -> {slow_rate:.0f} "
          f"({slow_rate / base_rate - 1:+.1%})")

    others = max(v for name, v in shift.items() if name != "channel")
    failures = []
    if shift["channel"] <= max(0.0, 3 * others):
        failures.append(f"channel's share grew {shift['channel']:+.1%}, "
                        f"another layer's {others:+.1%}")
    if slow_rate >= 0.95 * base_rate:
        failures.append("paper_events_per_s did not drop")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("blame self-test passed: the added time is charged to channel")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
