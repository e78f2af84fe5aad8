"""Benchmark inputs: everything a run feeds the program, drawn from its seed.

Each workload is one of the paper's two load-distribution methods.  A
run drives that method down the paths users pay for (the shard path in
the traced run only):

* **paper** — ``fib:18 @ grid:16x16`` with Table-1 parameters, run in
  process (a closed loop with one caller);
* **sweep** — 108 short, distinct scenarios farmed with ``jobs=2``;
* **serve** — an open-loop stream into ``repro serve --stdin``: fresh
  specs mixed with a hot set of 8, with saturating bursts of 64;
* **shard** — ``fib:16 @ grid:32x32``, serially and on 2 shards.

The short scenarios come from a fixed pool per method family, so every
scenario a run can touch has a stored reference digest (``digests.json``,
written by ``make_digests.py``).  The seed only chooses from the pools;
the program receives nothing but the spec strings built here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: workload name -> (paper method, the family its short scenarios use).
#: CWN's family places goals by contracting (CWN, adaptive CWN, random
#: placement); GM's spreads them down load gradients (GM, diffusion,
#: threshold).
WORKLOADS = {
    "cwn": ("cwn", ("cwn", "acwn", "random")),
    "gm": ("gm", ("gm", "diffusion", "threshold")),
}

PAPER_SHAPE = "fib:18 @ grid:16x16"
SHARD_SHAPE = "fib:16 @ grid:32x32"
#: the paper's runs use seed 1 throughout (result 2584 for fib:18)
BIG_SEED = 1
SMALL_WORKLOADS = ("fib:9", "fib:10", "fib:11")
SMALL_TOPOLOGIES = ("grid:2x2", "grid:4x4")
SMALL_SEEDS = range(1, 181)

SWEEP_SIZE = 108  # 6 seeds of each of the 18 shapes of a family
HOT_SET = 8
HOT_SHARE = 0.3
BURSTS = 26
BURST_SIZE = 64


def small_bases(family: tuple[str, ...]) -> list[str]:
    """The short-scenario shapes of one family, without their seed."""
    return [
        f"{w} @ {t} / {s}"
        for s in family
        for w in SMALL_WORKLOADS
        for t in SMALL_TOPOLOGIES
    ]


def big_bases(method: str) -> list[str]:
    return [f"{PAPER_SHAPE} / {method}", f"{SHARD_SHAPE} / {method}"]


def with_seed(base: str, seed: int) -> str:
    return f"{base}?seed={seed}"


def all_specs() -> list[str]:
    """Every scenario any run of any workload can execute."""
    specs = []
    for method, family in WORKLOADS.values():
        specs += [with_seed(b, BIG_SEED) for b in big_bases(method)]
        specs += [with_seed(b, s) for b in small_bases(family) for s in SMALL_SEEDS]
    return specs


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the stream starts
    spec: str


@dataclass(frozen=True)
class Inputs:
    paper: str
    shard: str
    probe: str  # the service's first request, outside every pool
    sweep: list[str]
    stream: list[Request]
    bursts: list[list[str]]


def make_inputs(workload: str, seed: int, rate: float, stream_seconds: float) -> Inputs:
    """The run's inputs; the same (workload, seed, rate, seconds) give the same.

    Short scenarios are drawn stratified: every run of 18 draws holds each
    of the family's 18 shapes once, so the work in a sweep or a stream
    does not swing with the seed's luck of the draw.
    """
    method, family = WORKLOADS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    bases = small_bases(family)

    def draws():
        seeds = {base: rng.sample(SMALL_SEEDS, len(SMALL_SEEDS)) for base in bases}
        for depth in range(len(SMALL_SEEDS)):
            for base in rng.sample(bases, len(bases)):
                yield with_seed(base, seeds[base][depth])

    sweep_draws = draws()
    sweep = [next(sweep_draws) for _ in range(SWEEP_SIZE)]
    # The service keeps one cache for the whole stream, so its fresh
    # specs are drawn without replacement: each one is a real compute.
    fresh = draws()
    hot = [next(fresh) for _ in range(HOT_SET)]
    count = int(rate * stream_seconds)
    try:
        stream = [
            Request(i / rate, rng.choice(hot) if rng.random() < HOT_SHARE else next(fresh))
            for i in range(count)
        ]
        bursts = [[next(fresh) for _ in range(BURST_SIZE)] for _ in range(BURSTS)]
    except StopIteration:
        raise ValueError(
            f"{count} requests at {rate}/s plus {BURSTS} bursts of {BURST_SIZE} "
            f"need more fresh specs than the {len(bases) * len(SMALL_SEEDS)} in the pool"
        ) from None
    return Inputs(
        paper=with_seed(f"{PAPER_SHAPE} / {method}", BIG_SEED),
        shard=with_seed(f"{SHARD_SHAPE} / {method}", BIG_SEED),
        probe=with_seed(bases[0], SMALL_SEEDS.stop),
        sweep=sweep,
        stream=stream,
        bursts=bursts,
    )


class Digests:
    """The stored reference digests: spec -> sha256 prefix of its result JSON."""

    def __init__(self, path: Path = DIGESTS_PATH) -> None:
        self._by_spec = {
            with_seed(base, int(seed)): value
            for base, by_seed in json.loads(path.read_text()).items()
            for seed, value in by_seed.items()
        }

    def matches(self, spec: str, result_json: str) -> bool:
        expected = self._by_spec.get(spec)
        return expected is not None and digest(result_json) == expected


def digest(result_json: str) -> str:
    """128-bit prefix of the sha256 of a canonical result JSON."""
    return hashlib.sha256(result_json.encode("utf-8")).hexdigest()[:32]
