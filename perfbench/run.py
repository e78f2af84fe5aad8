"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cwn --seed 1 --seconds 50 --rate 60 --trace 0

``--trace 0`` times the paper, sweep and serve paths with tracing off
and reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs them and the 2-shard path under the per-layer tracer
(``layers.py``) and reports the per-layer metrics instead.  The last line of stdout is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--out FILE`` also appends the run, with host metadata and each
metric's quartiles, to a JSON-lines result set for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import tree

#: share of --seconds given to the open-loop serve stream; it is played
#: in STREAM_SLICES slices, one per round of the closed-loop paths and
#: the serve bursts, so that it spans the whole run
SERVE_SHARE = 0.35
STREAM_SLICES = 12


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles (the quartiles collapse onto one sample)."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        q2 = statistics.median(values)
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values)}


#: rates scaled to the nominal host speed (see host.py), by the number of
#: cores their path keeps busy: the reference for one core for the
#: single-process paths, the one for two cores for the farm and the
#: service's burst.  Setup time and the stream's latency, which holds a
#: fixed batch window, are reported raw.
SCALED = {
    "paper_events_per_s": 1,
    "warm_runs_per_s": 1,
    "sweep_runs_per_s": 2,
    "serve_capacity_rps": 2,
}


def end_to_end(inputs, ledger, seconds: float) -> tuple[dict[str, dict], float]:
    """Every end-to-end metric, tracing off, and the host's median reference ms.

    The closed-loop paths, the serve bursts and slices of the open-loop
    stream run in interleaved rounds rather than one after another, so a
    slow spell of the host is shared by all of them instead of landing
    on one path's whole sample.
    """
    import phases
    from host import Host

    out = {"setup_s": summary([
        phases.setup_seconds(inputs.paper) for _ in range(phases.COLD_STARTS)
    ])}
    service = phases.ServeProcess(inputs.probe)
    sweep = phases.Sweep()
    try:
        host = Host(pair=True)
        bursts = iter(inputs.bursts)
        size = -(-len(inputs.stream) // STREAM_SLICES)
        slices = [inputs.stream[i : i + size] for i in range(0, len(inputs.stream), size)]
        stream: list[int] = []

        def burst(_inputs, _ledger) -> dict[str, list[float]]:
            specs = next(bursts, None)
            return service.burst(specs) if specs else {}

        def stream_slice(_inputs, _ledger) -> dict[str, list[float]]:
            if slices:
                stream.extend(service.stream(slices.pop(0)))
            return {}

        rounds = (
            phases.paper, sweep.cold, sweep.warm, burst,
            phases.paper, sweep.cold, sweep.warm, burst, stream_slice,
        )
        raw, samples = defaultdict(list), defaultdict(list)
        deadline = time.perf_counter() + seconds
        # Rounds go on while the slices still to play fit before the deadline.
        while not samples or time.perf_counter() < (
            deadline - sum(s[-1].due - s[0].due for s in slices)
        ):
            for path in rounds:
                phases.settle()
                measured = path(inputs, ledger)
                speed = host.speed_since_last()
                for name, values in measured.items():
                    raw[name] += values
                    samples[name] += [v / speed[SCALED[name]] if name in SCALED else v
                                      for v in values]
        while slices:
            phases.settle()
            stream_slice(inputs, ledger)
    finally:
        service.close()
        sweep.close()
    latency = service.latencies(ledger)
    stream_ms = [1e3 * latency[i] for i in stream if i in latency]

    for name, values in samples.items():
        out[name] = dict(summary(values), raw=statistics.median(raw[name]))
    out["serve_p50_ms"] = summary(stream_ms)
    out["peak_rss_mb"] = summary([phases.peak_rss_mb()])
    return out, host.median_ms


def metadata(args: argparse.Namespace) -> dict:
    """Host and tree identity, so two result sets can be compared honestly."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=tree.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted(tree.SRC.rglob("*.py")):
        source.update(str(path.relative_to(tree.SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rate": args.rate,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    import inputs as inputs_mod

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=60.0,
                        help="offered rate of the open-loop serve stream (requests/s)")
    parser.add_argument("--out", help="append this run to a JSON-lines result set")
    args = parser.parse_args(argv)

    tree.import_program()
    declared = json.loads((tree.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    import phases

    inputs = inputs_mod.make_inputs(
        args.workload, args.seed, args.rate, SERVE_SHARE * args.seconds
    )
    ledger = phases.Ledger(inputs_mod.Digests())
    try:
        if args.trace:
            import layers

            samples = layers.traced(inputs, ledger, args.seconds, SERVE_SHARE)
            measured = {name: summary(values) for name, values in samples.items()}
            host_ms = None
        else:
            measured, host_ms = end_to_end(inputs, ledger, args.seconds)
    finally:
        shutil.rmtree(tree.WORK, ignore_errors=True)
    if set(measured) != set(units):
        missing = sorted(set(units) - set(measured))
        extra = sorted(set(measured) - set(units))
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")

    meta = dict(metadata(args), host_ref_ms=host_ms)
    for name in sorted(measured):
        stat = measured[name]
        spread = f"  [{stat['q1']:.6g} .. {stat['q3']:.6g}]" if "q1" in stat else ""
        print(f"{name:28s} {stat['value']:>14.6g} {units[name]:<6s} n={stat['n']}{spread}")
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.out:
        record = {
            "meta": meta,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {n: dict(s, unit=units[n]) for n, s in measured.items()},
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": s["value"], "unit": units[n]} for n, s in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
