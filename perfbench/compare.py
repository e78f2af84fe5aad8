"""Compare two result sets and say which layer a change came from.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSON-lines file ``run.py --out`` appends to, one
line per run.  For every workload and end-to-end metric the table shows
both medians with their quartile ranges, the relative change (positive
= better) and the pairwise win fraction: the share of (base run, new
run) pairs in which the new run is strictly better.  With one run per
side the quartiles are those of the run's own samples.  The per-layer
section then lists the traced runs' self-time and count deltas, largest
first, and names the kernel layer whose share of self time grew most.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> tuple[list[dict], dict[tuple[str, bool, str], list[dict]]]:
    """Runs of a result set, grouped by (workload, traced, metric)."""
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    grouped = defaultdict(list)
    for run in runs:
        meta = run["meta"]
        for name, stat in run["metrics"].items():
            grouped[(meta["workload"], bool(meta["trace"]), name)].append(stat)
    return runs, grouped


def spread(stats: list[dict]) -> tuple[float, float, float, list[float]]:
    """Median, quartiles and values of one metric over a set's runs."""
    values = [s["value"] for s in stats]
    if len(values) == 1:
        return values[0], stats[0].get("q1", values[0]), stats[0].get("q3", values[0]), values
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, values


def win_fraction(base: list[float], new: list[float], higher: bool) -> float:
    wins = sum((b > a) if higher else (b < a) for a in base for b in new)
    return wins / (len(base) * len(new))


def describe(runs: list[dict]) -> str:
    metas = [r["meta"] for r in runs]
    first = metas[0]
    seeds = sorted({m["seed"] for m in metas})
    sha = first.get("git_sha") or "-"
    return (
        f"{len(runs)} runs, seeds {seeds}, git {sha[:12]}, src {first['src_sha256'][:12]}, "
        f"nproc {first['nproc']}, python {first['python']}, {first['platform']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "higher"
              for m in declared["end_to_end"] + declared["per_layer"]}
    base_runs, base = load(args.base)
    new_runs, new = load(args.new)
    print(f"base: {describe(base_runs)}")
    print(f"new:  {describe(new_runs)}")

    print(f"\n{'workload':8s} {'metric':22s} {'base median [q1 .. q3]':>36s} "
          f"{'new median [q1 .. q3]':>36s} {'change':>8s} {'new wins':>8s}")
    for key in sorted(k for k in base if k in new and not k[1]):
        workload, _, name = key
        higher = better[name]
        b_med, b_q1, b_q3, b_vals = spread(base[key])
        n_med, n_q1, n_q3, n_vals = spread(new[key])
        change = (n_med - b_med) / b_med if b_med else 0.0
        print(f"{workload:8s} {name:22s} {b_med:12.5g} [{b_q1:9.5g} .. {b_q3:9.5g}] "
              f"{n_med:12.5g} [{n_q1:9.5g} .. {n_q3:9.5g}] "
              f"{(change if higher else -change):+8.1%} {win_fraction(b_vals, n_vals, higher):8.2f}")

    layered = sorted(k for k in base if k in new and k[1])
    if not layered:
        print("\nno traced runs in both sets: no per-layer deltas")
        return 0
    print("\nper layer (traced runs), largest change first:")
    for workload in sorted({k[0] for k in layered}):
        rows = []
        for key in (k for k in layered if k[0] == workload):
            name = key[2]
            b_med = spread(base[key])[0]
            n_med = spread(new[key])[0]
            if name.endswith(".self_ms") or not name.endswith(("_ms", "overhead", "frac", "efficiency")):
                rows.append((abs(n_med - b_med) / (abs(b_med) or 1.0), name, b_med, n_med))
        for _, name, b_med, n_med in sorted(rows, reverse=True):
            if b_med != n_med:
                pct = f"{(n_med - b_med) / b_med:+.1%}" if b_med else "new"
                print(f"  {workload:8s} {name:28s} {b_med:12.6g} -> {n_med:12.6g}  {pct}")
        kernel = [k for k in layered if k[0] == workload and k[2].endswith(".self_ms")]
        if kernel:
            # Shares of the kernel's self time, so that a host that is
            # slower for the whole new run does not blame the biggest layer.
            base_total = sum(spread(base[k])[0] for k in kernel)
            new_total = sum(spread(new[k])[0] for k in kernel)
            shift, name = max(
                (spread(new[k])[0] / new_total - spread(base[k])[0] / base_total, k[2])
                for k in kernel
            )
            print(f"  {workload}: kernel layer whose share of self time grew most: "
                  f"{name[:-len('.self_ms')]} ({shift:+.1%} of the kernel's self time)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
