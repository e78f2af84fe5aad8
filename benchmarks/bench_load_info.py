"""What is load information worth, and what does it cost?

CWN's whole mechanism is the neighbor-load table.  §2.1 offers two ways
to maintain it — periodic broadcast, or "as an optimization,
piggybacking the load information 'word' with regular messages" — and
the paper's simulations assume a co-processor makes either free.  This
bench runs CWN under every information model the simulator supports:

| mode | freshness | cost |
|---|---|---|
| instant | perfect (oracle) | impossible |
| on_change | delayed by 1 unit | free words (co-processor) |
| periodic | up to 20 units stale | free words |
| piggyback | stale until traffic flows | literally zero extra traffic |
| channel | delayed + queued | full channel contention |

Measured: CWN is remarkably insensitive to the information model — all
five modes land within a few percent.  Perfect (instant) information is
*not* the fastest: herding (every PE steering toward the same believed
minimum simultaneously) slightly outweighs staleness at this scale, a
known effect in load-balancing folklore.  Piggybacking really is free
(zero control words) and costs ~3% over the co-processor model.
Asserted: the modes stay within a tight band, piggyback carries zero
control-word traffic, and CWN beats GM under every information model.
"""

from __future__ import annotations

from repro.core import paper_cwn, paper_gm
from repro.experiments.scale import full_scale
from repro.experiments.tables import format_table
from repro.oracle.config import SimConfig
from repro.scenario import Scenario
from repro.topology import Grid
from repro.workload import Fibonacci

MODES = ("instant", "on_change", "piggyback", "periodic", "channel")


def test_load_information_models(benchmark, save_artifact):
    fib_n = 15 if full_scale() else 13
    topo = Grid(8, 8)
    program = Fibonacci(fib_n)

    def sweep():
        rows = []
        for mode in MODES:
            cfg = SimConfig(load_info=mode, seed=1)
            cwn = Scenario(program, topo, paper_cwn("grid"), config=cfg).run()
            gm = Scenario(program, topo, paper_gm("grid"), config=cfg).run()
            rows.append(
                (
                    mode,
                    cwn.completion_time,
                    cwn.control_words_sent,
                    cwn.piggybacked_words,
                    cwn.speedup / gm.speedup,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = format_table(
        ["load info", "CWN completion", "control words", "piggybacked", "CWN/GM"],
        [
            [mode, f"{t:.0f}", words, piggy, f"{r:.2f}"]
            for mode, t, words, piggy, r in rows
        ],
    )
    save_artifact(
        "load_info_models",
        f"Load-information models, fib({fib_n}) on {topo.name}:\n{table}",
    )

    times = {r[0]: r[1] for r in rows}
    words = {r[0]: r[2] for r in rows}
    piggy = {r[0]: r[3] for r in rows}
    ratios = {r[0]: r[4] for r in rows}

    # CWN is robust to the information model: a tight band, not a cliff.
    assert max(times.values()) <= min(times.values()) * 1.25, times
    # The paper's optimization really is free: zero control words.
    assert words["piggyback"] == 0
    assert piggy["piggyback"] > 0
    # And close to the co-processor model's performance.
    assert times["piggyback"] <= times["on_change"] * 1.5
    # CWN beats GM under every information model.
    for mode in MODES:
        assert ratios[mode] > 1.0, (mode, ratios)
