"""On-disk content-addressed result store.

A repeated configuration is never worth resimulating: the engine is
deterministic, so a :class:`~repro.scenario.Scenario`'s result is a
pure function of its canonical form.  :class:`ResultCache` exploits that
— results live under ``<root>/v<schema>/<kk>/<key>.json`` where ``key``
is :meth:`Scenario.content_hash` (a SHA-256 over the canonical form) and
``kk`` its first two hex digits (a fan-out shard so directories stay
small).

Design points:

* **atomic writes** — entries are written to a temp file in the final
  directory and ``os.replace``-d into place, so a crashed or concurrent
  writer can never leave a half-written entry visible;
* **corruption recovery** — an unreadable, truncated, or mismatching
  entry is treated as a miss and deleted, never propagated;
* **schema versioning** — both the directory layout and each payload
  carry a schema tag; bumping :data:`CACHE_SCHEMA` (or the scenario's
  ``SPEC_SCHEMA``, which feeds the hash) orphans stale results instead
  of serving them;
* **relocatable** — the root defaults to ``~/.cache/repro-kale88`` and
  honours the ``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..obs import telemetry as _telemetry
from ..oracle.stats import SimResult, UtilizationSample
from ..scenario.scenario import Scenario

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "result_from_dict",
    "result_json",
    "result_to_dict",
]

#: Bump to orphan every stored result (e.g. when SimResult grows fields
#: that cannot be defaulted on read).  v2: channel_busy_time became
#: accrual-corrected (effective_busy at stop), so v1 entries hold
#: overcounted channel statistics the current simulator never produces.
#: v3: the event calendar moved to per-site sequence keys and randomized
#: strategies to per-PE RNG streams (the sharding groundwork), changing
#: simultaneous-event tie-breaks — v2 entries record runs the current
#: kernel can no longer reproduce.
CACHE_SCHEMA = 3

#: In-process memo capacity (entries), measured in parsed payload dicts.
#: 256 SimResult payloads of typical Table-2 size are a few MB — small
#: against the interpreter, large against any one run_batch working set.
_MEMO_CAPACITY = 256


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-kale88``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kale88"


# -- SimResult <-> JSON-able dict ------------------------------------------------

def result_to_dict(result: SimResult) -> dict[str, Any]:
    """JSON-serializable form of a :class:`SimResult`.

    Arrays become lists, the hop histogram's int keys become strings
    (JSON object keys), samples become dicts.  ``result_value`` and
    ``params`` are stored as-is and must be JSON-representable — true
    for every built-in workload (ints, floats, lists/tuples of those;
    tuples are revived as tuples where the schema knows to, see
    :func:`result_from_dict`).
    """
    return {
        "strategy": result.strategy,
        "topology": result.topology,
        "workload": result.workload,
        "n_pes": result.n_pes,
        "completion_time": result.completion_time,
        "result_value": result.result_value,
        "total_goals": result.total_goals,
        "sequential_work": result.sequential_work,
        "busy_time": [float(v) for v in result.busy_time],
        "goals_per_pe": [int(v) for v in result.goals_per_pe],
        "hop_histogram": {str(h): c for h, c in result.hop_histogram.items()},
        "goal_messages_sent": result.goal_messages_sent,
        "response_messages_sent": result.response_messages_sent,
        "responses_routed": result.responses_routed,
        "response_hops": result.response_hops,
        "control_words_sent": result.control_words_sent,
        "channel_busy_time": [float(v) for v in result.channel_busy_time],
        "channel_messages": [int(v) for v in result.channel_messages],
        "samples": [
            {
                "time": s.time,
                "utilization": s.utilization,
                "per_pe": None if s.per_pe is None else list(s.per_pe),
            }
            for s in result.samples
        ],
        "events_executed": result.events_executed,
        "seed": result.seed,
        "piggybacked_words": result.piggybacked_words,
        "first_goal_time": [float(v) for v in result.first_goal_time],
        "params": result.params,
        "query_completions": list(result.query_completions),
        "query_arrivals": list(result.query_arrivals),
    }


def result_json(result: SimResult) -> str:
    """The canonical JSON spelling of a :class:`SimResult`.

    One fixed rendering (:func:`result_to_dict` through sorted keys and
    compact separators) shared by ``repro run --json`` and the serve
    protocol, so a service response can be diffed byte-for-byte against
    a direct in-process run of the same scenario.
    """
    return json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))


def result_from_dict(data: dict[str, Any]) -> SimResult:
    """Inverse of :func:`result_to_dict`."""
    return SimResult(
        strategy=data["strategy"],
        topology=data["topology"],
        workload=data["workload"],
        n_pes=data["n_pes"],
        completion_time=data["completion_time"],
        result_value=data["result_value"],
        total_goals=data["total_goals"],
        sequential_work=data["sequential_work"],
        busy_time=np.asarray(data["busy_time"], dtype=float),
        goals_per_pe=np.asarray(data["goals_per_pe"], dtype=int),
        hop_histogram={int(h): c for h, c in data["hop_histogram"].items()},
        goal_messages_sent=data["goal_messages_sent"],
        response_messages_sent=data["response_messages_sent"],
        responses_routed=data["responses_routed"],
        response_hops=data["response_hops"],
        control_words_sent=data["control_words_sent"],
        channel_busy_time=np.asarray(data["channel_busy_time"], dtype=float),
        channel_messages=np.asarray(data["channel_messages"], dtype=int),
        samples=[
            UtilizationSample(
                time=s["time"],
                utilization=s["utilization"],
                per_pe=None if s["per_pe"] is None else tuple(s["per_pe"]),
            )
            for s in data["samples"]
        ],
        events_executed=data["events_executed"],
        seed=data["seed"],
        piggybacked_words=data["piggybacked_words"],
        first_goal_time=np.asarray(data["first_goal_time"], dtype=float),
        params=data["params"],
        query_completions=data["query_completions"],
        query_arrivals=data["query_arrivals"],
    )


# -- the store -------------------------------------------------------------------

@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a cache directory plus this instance's hit counters."""

    root: Path
    schema: int
    entries: int
    total_bytes: int
    hits: int
    misses: int

    def __str__(self) -> str:
        return (
            f"cache at {self.root} (schema v{self.schema}): "
            f"{self.entries} entries, {self.total_bytes / 1024:.1f} KiB on disk; "
            f"this session: {self.hits} hits, {self.misses} misses"
        )


class ResultCache:
    """Content-addressed ``Scenario -> SimResult`` store on disk.

    ``hits`` / ``misses`` count this instance's lookups (a ``put``
    does not count), so an orchestrator can report hit rates and tests
    can assert "zero new simulations" on a warm cache.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: in-process LRU memo: key -> parsed payload["result"] dict.  A
        #: warm ``run_batch`` re-reads the same entries every call; the
        #: memo skips the disk read *and* the JSON parse, leaving only
        #: the (cheap) SimResult revival.  Deliberately per-instance:
        #: sharing across caches rooted differently would serve results
        #: across isolation boundaries the roots exist to draw.
        self._memo: dict[str, dict[str, Any]] = {}

    @property
    def _version_dir(self) -> Path:
        return self.root / f"v{CACHE_SCHEMA}"

    def path_for(self, scenario: Scenario) -> Path:
        """Where ``scenario``'s result lives (whether or not it exists yet)."""
        key = scenario.content_hash()
        return self._version_dir / key[:2] / f"{key}.json"

    # -- lookup ------------------------------------------------------------------

    def get(self, scenario: Scenario) -> SimResult | None:
        """The stored result, or ``None`` on miss.

        Any defect in the stored entry — unparsable JSON, wrong schema,
        key mismatch, missing fields — deletes the entry and reports a
        miss; the cache never propagates corruption.  A read that fails
        for any other reason (an unusable cache root, an unreadable
        entry) is a plain miss with a ``cache.error`` event: nothing is
        known to be corrupt, so nothing is deleted.
        """
        path = self.path_for(scenario)
        key = path.stem
        tele = _telemetry.sink()
        memo = self._memo
        data = memo.get(key)
        if data is not None:
            # Refresh LRU position (dicts iterate in insertion order, so
            # pop + reinsert is move-to-end; eviction pops the front).
            memo.pop(key, None)
            memo[key] = data
            self.hits += 1
            if tele is not None:
                tele.emit("cache.hit", key=key[:12], memo=True)
            return result_from_dict(data)
        try:
            payload = json.loads(path.read_text())
            if payload["schema"] != CACHE_SCHEMA:
                raise ValueError(f"schema {payload['schema']} != {CACHE_SCHEMA}")
            if payload["key"] != key:
                raise ValueError("stored key does not match its address")
            result = result_from_dict(payload["result"])
        except OSError as exc:
            self.misses += 1
            if tele is not None:
                tele.emit("cache.miss", key=key[:12])
                if not isinstance(exc, FileNotFoundError):
                    tele.emit("cache.error", key=key[:12], error=str(exc))
            return None
        except Exception:
            # Corrupt entry: recover by dropping it (best-effort — on a
            # read-only cache the entry stays, but it is still a miss,
            # never a crash).
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            self.misses += 1
            if tele is not None:
                tele.emit("cache.miss", key=path.stem[:12], corrupt=True)
            return None
        self._memoize(key, payload["result"])
        self.hits += 1
        if tele is not None:
            tele.emit("cache.hit", key=key[:12])
        return result

    def _memoize(self, key: str, data: dict[str, Any]) -> None:
        # The memo shares the payload dict across get() calls; revival
        # copies every numeric field into fresh arrays/dicts, but list
        # fields stored as-is (params, result_value, query_completions)
        # are shared — SimResults are read-only by convention and nothing
        # in the repo mutates them.
        memo = self._memo
        memo.pop(key, None)
        memo[key] = data
        if len(memo) > _MEMO_CAPACITY:
            try:
                memo.pop(next(iter(memo)))
            except (KeyError, StopIteration, RuntimeError):
                # A concurrent thread evicted first; capacity is a soft
                # bound, losing one eviction race is harmless.
                pass

    # -- store -------------------------------------------------------------------

    def put(self, scenario: Scenario, result: SimResult) -> Path:
        """Store ``result`` under ``scenario``'s content address (atomic)."""
        path = self.path_for(scenario)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": path.stem,
            "spec": scenario.canonical_dict(),
            "result": result_to_dict(result),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps, not dump: only the one-shot encoder is the C one,
                # and the farm's parent writes one entry per result.
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        # Not memoized here: the first get() must read the entry back
        # from disk (validating what was actually persisted — the
        # corruption-recovery tests rely on disk staying authoritative);
        # it populates the memo for every lookup after.
        return path

    # -- maintenance -------------------------------------------------------------

    def _entry_paths(self) -> list[Path]:
        if not self._version_dir.is_dir():
            return []
        return [
            p
            for p in self._version_dir.glob("*/*.json")
            if not p.name.startswith(".tmp-")
        ]

    def stats(self) -> CacheStats:
        """Entry count and on-disk footprint of the current schema."""
        paths = self._entry_paths()
        return CacheStats(
            root=self.root,
            schema=CACHE_SCHEMA,
            entries=len(paths),
            total_bytes=sum(p.stat().st_size for p in paths),
            hits=self.hits,
            misses=self.misses,
        )

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count.

        Also sweeps up ``.tmp-*`` orphans a killed writer may have left
        (they are invisible to :meth:`stats` but would otherwise
        accumulate forever).
        """
        paths = self._entry_paths()
        self._memo.clear()
        for path in paths:
            path.unlink(missing_ok=True)
        # Tidy orphaned temp files and now-empty shard directories
        # (best-effort).
        if self._version_dir.is_dir():
            for orphan in self._version_dir.glob("*/.tmp-*.json"):
                try:
                    orphan.unlink()
                except OSError:
                    pass
            for shard in self._version_dir.iterdir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return len(paths)
