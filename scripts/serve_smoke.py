#!/usr/bin/env python3
"""CI smoke for ``repro serve``: real process, real sockets, real dedup.

Boots a serve instance as a subprocess, fires ~100 concurrent requests
(10 distinct scenarios, heavily duplicated, shuffled deterministically)
at it from a thread pool, and then proves the service contract:

* every response is 200 and its ``result`` field is byte-identical to
  running the same scenario directly in this process;
* at least one request was coalesced onto an in-flight computation and
  at least one was answered from the warm cache (the second wave);
* SIGTERM drains and exits 0 within the 60-second budget.

Run from the repo root: ``python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHUTDOWN_BUDGET_S = 60.0


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.parallel import result_json
    from repro.scenario import Scenario

    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="serve-smoke-cache-")

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2",
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stderr is not None
        startup = proc.stderr.readline()
        matched = re.search(r"http://([\d.]+):(\d+)", startup)
        if not matched:
            fail(f"no listen address in startup line: {startup!r}")
        host, port = matched.group(1), int(matched.group(2))
        print(f"serve-smoke: serving on {host}:{port}")

        def post(spec: str) -> dict:
            request = urllib.request.Request(
                f"http://{host}:{port}/run",
                data=json.dumps({"spec": spec}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                if response.status != 200:
                    fail(f"HTTP {response.status} for {spec!r}")
                return json.loads(response.read())

        # 10 distinct scenarios; fib:13 is deliberately the heaviest and
        # most duplicated so concurrent copies pile onto one in-flight
        # computation (the coalesce witness).
        distinct = [f"fib:13 @ grid:4x4 / cwn?seed={s}" for s in (1, 2, 3)] + [
            f"fib:11 @ grid:2x2 / {strat}?seed={s}"
            for strat in ("cwn", "gm", "central")
            for s in (1, 2)
        ] + ["fib:12 @ grid:4x4 / random?seed=7"]
        assert len(distinct) == 10
        stream = distinct * 10  # 100 requests
        random.Random(42).shuffle(stream)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=32) as pool:
            answers = list(pool.map(post, stream))
        wave_s = time.perf_counter() - start
        print(
            f"serve-smoke: wave 1 — {len(answers)} requests in {wave_s:.1f}s "
            f"({len(answers) / wave_s:.0f} req/s)"
        )

        # Wave 2: every distinct spec again — all must come back warm.
        warm = [post(spec) for spec in distinct]

        # Bit-equality against direct in-process runs, spec by spec.
        for spec in distinct:
            direct = result_json(Scenario.from_spec(spec).seeded().run())
            for answer in answers + warm:
                if answer["spec"] != spec:
                    continue
                served = json.dumps(
                    answer["result"], sort_keys=True, separators=(",", ":")
                )
                if served != direct:
                    fail(f"served result for {spec!r} differs from direct run")
        print("serve-smoke: all 110 responses byte-identical to direct runs")

        sources = [a["source"] for a in answers]
        coalesced = sources.count("coalesced")
        if coalesced < 1:
            fail(f"expected >= 1 coalesced request, saw sources {set(sources)}")
        if any(a["source"] != "cache" for a in warm):
            fail(f"wave 2 should be all cache hits: {[a['source'] for a in warm]}")
        computed = sources.count("computed") + sources.count("cache")
        print(
            f"serve-smoke: dedup — {coalesced} coalesced, "
            f"{sources.count('cache')} wave-1 cache hits, "
            f"{len(warm)} warm wave-2 hits, "
            f"{computed} non-coalesced"
        )

        with urllib.request.urlopen(
            f"http://{host}:{port}/stats", timeout=30
        ) as response:
            stats = json.loads(response.read())
        if stats["coalesced"] < 1 or stats["cache_hits"] < 1:
            fail(f"server-side dedup counters disagree: {stats}")
        if stats["errors"]:
            fail(f"server reported {stats['errors']} worker errors")

        start = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=SHUTDOWN_BUDGET_S)
        except subprocess.TimeoutExpired:
            fail(f"no exit within {SHUTDOWN_BUDGET_S:.0f}s of SIGTERM")
        drain_s = time.perf_counter() - start
        if code != 0:
            fail(f"serve exited {code} after SIGTERM")
        print(f"serve-smoke: SIGTERM drained cleanly in {drain_s:.1f}s")
        print("serve-smoke: PASS")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
