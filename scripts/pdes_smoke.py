#!/usr/bin/env python
"""CI smoke: the conservative parallel engine on a 1024-PE machine.

Run as ``PYTHONPATH=src python scripts/pdes_smoke.py``.  Fails
(non-zero exit) if

* a 4-shard ``run_sharded`` on a Grid(32,32) scenario is not
  **bit-identical** to the serial run — every SimResult field compared,
  including ``events_executed``, the most fragile witness of
  event-sequence identity.  It runs CWN and GM; GM's load words are
  counted, not calendared, in the serial run and calendared in the
  shards, so its ``events_executed`` checks the count against the
  calendar; or
* the whole exercise (serial + sharded + comparison) exceeds the
  wall-clock budget — the window barrier must stay cheap enough that
  sharding a real machine is usable, not just correct.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

from repro.pdes import run_sharded
from repro.scenario import Scenario

SPECS = ("fib:14@grid:32x32/cwn?seed=1", "fib:14@grid:32x32/gm?seed=1")
SHARDS = 4
WALL_BUDGET_S = 60.0


def diff_fields(a, b) -> list[str]:
    bad = []
    for field in dataclasses.fields(type(a)):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or not np.array_equal(x, y, equal_nan=True):
                bad.append(field.name)
        elif x != y:
            bad.append(field.name)
    return bad


def main() -> int:
    total = 0.0
    for spec in SPECS:
        scenario = Scenario.from_spec(spec)
        start = time.perf_counter()
        serial = scenario.run()
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        sharded = run_sharded(scenario, SHARDS)
        sharded_s = time.perf_counter() - start

        bad = diff_fields(serial, sharded)
        assert not bad, f"{spec}: sharded SimResult diverges from serial in: {', '.join(bad)}"

        total += serial_s + sharded_s
        print(
            f"{spec} x {SHARDS} shards: {serial.events_executed} events, "
            f"serial {serial_s:.2f} s, sharded {sharded_s:.2f} s — bit-identical"
        )
    print(f"wall {total:.2f} s (budget {WALL_BUDGET_S:.0f} s)")
    assert total < WALL_BUDGET_S, f"smoke took {total:.2f} s, over budget"
    return 0


if __name__ == "__main__":
    sys.exit(main())
