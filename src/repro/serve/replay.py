"""``repro serve --replay``: race the paper's policies on a real stream.

The dogfood loop closed: the service's own dispatch queue is scheduled
by an adapter of the paper's load-balancing strategies
(:mod:`repro.serve.policy`), so replaying one recorded query stream
through each policy measures — with wall-clock latency percentiles and
throughput, not simulated time — which of conf_icpp_Kale88's schemes
serves real traffic fastest.

Stream format (one request per line): a bare scenario spec, or a JSON
object ``{"spec": "...", "at": <seconds>}`` whose optional ``at``
offset replays the recorded arrival pacing (bare lines all arrive at
once).  ``#`` lines are comments.  Every policy replays the identical
stream against its own fresh cache directory, so no policy inherits
another's warm entries and the comparison is fair.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..parallel.cache import ResultCache
from ..parallel.pool import WorkerFleet
from .policy import POLICY_NAMES, make_policy
from .service import ScenarioService

__all__ = ["ReplayRequest", "ReplayStats", "load_stream", "render_replay", "run_replay"]


@dataclass(frozen=True)
class ReplayRequest:
    """One recorded request: the spec and its arrival offset (seconds)."""

    spec: str
    at: float = 0.0


@dataclass(frozen=True)
class ReplayStats:
    """One policy's scorecard over the stream."""

    policy: str
    requests: int
    errors: int
    wall_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    cache_hits: int
    coalesced: int
    computed: int

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0


def load_stream(source: str | Path) -> list[ReplayRequest]:
    """Parse a recorded stream file (bare specs or JSON lines)."""
    requests: list[ReplayRequest] = []
    for raw in Path(source).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("{"):
            payload = json.loads(line)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("spec"), str
            ):
                raise ValueError(
                    f"replay line must be a spec or {{'spec': ..., 'at': ...}}: "
                    f"{line[:80]!r}"
                )
            requests.append(
                ReplayRequest(payload["spec"], float(payload.get("at", 0.0)))
            )
        else:
            requests.append(ReplayRequest(line))
    if not requests:
        raise ValueError(f"replay stream {source} holds no requests")
    return requests


def _percentile(sorted_ms: Sequence[float], fraction: float) -> float:
    if not sorted_ms:
        return 0.0
    index = min(len(sorted_ms) - 1, max(0, round(fraction * (len(sorted_ms) - 1))))
    return sorted_ms[index]


async def _replay_policy(
    requests: Sequence[ReplayRequest],
    policy_name: str,
    workers: int,
    cache_root: str | Path | None,
    seed: int,
    speed: float,
) -> ReplayStats:
    # Replay measures dispatch quality, not admission control: the
    # whole stream must be admitted, never 429'd, so neither the
    # service's high water nor a worker's queue may turn a miss away.
    fleet = WorkerFleet(workers=workers, queue_depth=max(64, len(requests)))
    service = ScenarioService(
        fleet,
        make_policy(policy_name, workers, seed=seed),
        cache=None if cache_root is None else ResultCache(cache_root),
        high_water=max(256, len(requests) + 1),
    )
    await service.start()
    latencies_ms: list[float] = []
    errors = 0

    async def one(request: ReplayRequest) -> None:
        nonlocal errors
        if speed > 0 and request.at > 0:
            await asyncio.sleep(request.at / speed)
        start = time.perf_counter()
        try:
            await service.submit(request.spec)
        except Exception:
            errors += 1
            return
        latencies_ms.append((time.perf_counter() - start) * 1000.0)

    wall_start = time.perf_counter()
    await asyncio.gather(*(one(r) for r in requests))
    wall_s = time.perf_counter() - wall_start
    stats = service.stats
    await service.stop()
    latencies_ms.sort()
    return ReplayStats(
        policy=policy_name,
        requests=len(requests),
        errors=errors,
        wall_s=wall_s,
        p50_ms=_percentile(latencies_ms, 0.50),
        p95_ms=_percentile(latencies_ms, 0.95),
        p99_ms=_percentile(latencies_ms, 0.99),
        cache_hits=stats.cache_hits,
        coalesced=stats.coalesced,
        computed=stats.computed,
    )


def run_replay(
    stream: str | Path | Sequence[ReplayRequest],
    policies: Sequence[str] = POLICY_NAMES,
    workers: int = 2,
    seed: int = 1,
    speed: float = 0.0,
    use_cache: bool = True,
) -> list[ReplayStats]:
    """Drive the stream through each policy; one scorecard per policy.

    ``speed`` > 0 honors recorded ``at`` offsets scaled by that factor
    (2.0 = twice as fast as recorded); 0 submits the whole stream at
    once.  With ``use_cache`` each policy gets its own *fresh* temporary
    cache directory — warm hits then measure the stream's internal
    redundancy, not leftover state.
    """
    if isinstance(stream, (str, Path)):
        requests: Sequence[ReplayRequest] = load_stream(stream)
    else:
        requests = list(stream)
    if not requests:
        raise ValueError("nothing to replay")
    out: list[ReplayStats] = []
    for name in policies:
        if use_cache:
            with tempfile.TemporaryDirectory(prefix="repro-serve-replay-") as root:
                stats = asyncio.run(
                    _replay_policy(requests, name, workers, root, seed, speed)
                )
        else:
            stats = asyncio.run(
                _replay_policy(requests, name, workers, None, seed, speed)
            )
        out.append(stats)
    return out


def render_replay(stats: Sequence[ReplayStats]) -> str:
    """The per-policy comparison table (the command's stdout)."""
    header = (
        f"{'policy':<12} {'requests':>8} {'req/s':>8} {'p50 ms':>9} "
        f"{'p95 ms':>9} {'p99 ms':>9} {'hits':>6} {'coal':>6} "
        f"{'computed':>8} {'errors':>6}"
    )
    lines = [header, "-" * len(header)]
    for s in stats:
        lines.append(
            f"{s.policy:<12} {s.requests:>8} {s.requests_per_s:>8.1f} "
            f"{s.p50_ms:>9.1f} {s.p95_ms:>9.1f} {s.p99_ms:>9.1f} "
            f"{s.cache_hits:>6} {s.coalesced:>6} {s.computed:>8} {s.errors:>6}"
        )
    if stats:
        best = min(stats, key=lambda s: s.p99_ms)
        fastest = max(stats, key=lambda s: s.requests_per_s)
        lines.append("")
        lines.append(
            f"best tail latency: {best.policy} (p99 {best.p99_ms:.1f} ms); "
            f"highest throughput: {fastest.policy} "
            f"({fastest.requests_per_s:.1f} req/s)"
        )
    return "\n".join(lines)
