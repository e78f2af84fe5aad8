#!/usr/bin/env python
"""Execution-driven vs trace-driven simulation — the paper's §3 choice.

The paper weighed recording a computation's trace in advance against
executing the program inside the simulator, and chose execution, noting
a trace "would not save much in terms of simulation time".  Both modes
exist here, so the claim is checkable: record fib(13) once, replay the
recording against several strategies, and confirm replays are
bit-identical to live runs.

Recordings also serialize to JSON (shareable benchmark inputs) and can
be perturbed — the last section doubles every goal's work without
touching the generating program.

Run:  python examples/trace_replay.py
"""

import time

from repro import Scenario
from repro.workload import Fibonacci, RecordedProgram, record


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    program = Fibonacci(13)
    recording, record_secs = timed(lambda: record(program))
    print(f"recorded {recording.total_goals()} goals in {record_secs * 1e3:.1f} ms\n")

    print(f"{'strategy':>10s}  {'live T':>9s}  {'replay T':>9s}  identical?")
    for strategy in ("cwn", "gm", "random"):
        live, live_secs = timed(
            lambda s=strategy: Scenario(program, "grid:8x8", s, seed=1).run()
        )
        replay, replay_secs = timed(
            lambda s=strategy: Scenario(recording, "grid:8x8", s, seed=1).run()
        )
        same = (
            replay.completion_time == live.completion_time
            and replay.hop_histogram == live.hop_histogram
        )
        print(
            f"{strategy:>10s}  {live.completion_time:9.1f}  "
            f"{replay.completion_time:9.1f}  {same}"
            f"   (wall: {live_secs * 1e3:.0f} vs {replay_secs * 1e3:.0f} ms)"
        )

    # Serialize, reload, perturb.
    reloaded = RecordedProgram.from_json(recording.to_json())
    heavy = reloaded.scale_work(2.0)
    base = Scenario(reloaded, "grid:8x8", "cwn", seed=1).run()
    doubled = Scenario(heavy, "grid:8x8", "cwn", seed=1).run()
    print()
    print(f"JSON round-trip goals : {reloaded.total_goals()}")
    print(f"2x work completion    : {doubled.completion_time:.0f} (base {base.completion_time:.0f})")
    print()
    print("The paper's observation holds: replay saves little wall time,")
    print("because executing fib IS just walking the same tree.")


if __name__ == "__main__":
    main()
