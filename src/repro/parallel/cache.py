"""On-disk content-addressed result store.

A repeated configuration is never worth resimulating: the engine is
deterministic, so a :class:`~repro.scenario.Scenario`'s result is a
pure function of its canonical form.  :class:`ResultCache` exploits that
— results live under ``<root>/v<schema>/<kk>/<key>.json`` where ``key``
is :meth:`Scenario.content_hash` (a SHA-256 over the canonical form) and
``kk`` its first two hex digits (a fan-out shard so directories stay
small).

An entry is three lines, laid out for the hit:

1. the header ``{"schema":4,"key":"<key>"}``, which a lookup checks by
   comparing bytes;
2. the result, spelled as :func:`result_json` spells it, the only line
   a lookup parses;
3. the hashed text (:meth:`Scenario.canonical_json`), with no newline
   after it, so the SHA-256 of everything after the second newline is
   the key and the file's stem.

Design points:

* **atomic writes** — entries are written to a temp file in the final
  directory and ``os.replace``-d into place, so a crashed or concurrent
  writer can never leave a half-written entry visible;
* **corruption recovery** — an unreadable, truncated, or mismatching
  entry is treated as a miss and deleted, never propagated;
* **schema versioning** — both the directory layout and each header
  carry a schema tag; bumping :data:`CACHE_SCHEMA` (or the scenario's
  ``SPEC_SCHEMA``, which feeds the hash) orphans stale results instead
  of serving them, and ``repro cache stats``/``clear`` still see them;
* **relocatable** — the root defaults to ``~/.cache/repro-kale88`` and
  honours the ``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .._spec_util import canonical_json
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
#: kernel can no longer reproduce.  v4: the three-line entry (header,
#: result, hashed text) that a hit reads without parsing the spec, and
#: one stored form per key for GM's spellings — their water marks are
#: ints when integral, where v3 entries hold either ``1`` or ``1.0``.
CACHE_SCHEMA = 4

#: a schema's directory under the root, this one's or an orphaned one's
_SCHEMA_DIR = re.compile(r"v[0-9]+")

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
    return canonical_json(result_to_dict(result))


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
    """Snapshot of a cache directory plus this instance's hit counters.

    ``other_entries`` / ``other_bytes`` count what other schemas'
    ``v<n>/`` directories still hold: no lookup reads it, and
    :meth:`ResultCache.clear` removes it.
    """

    root: Path
    schema: int
    entries: int
    total_bytes: int
    hits: int
    misses: int
    other_entries: int = 0
    other_bytes: int = 0

    def __str__(self) -> str:
        text = (
            f"cache at {self.root} (schema v{self.schema}): "
            f"{self.entries} entries, {self.total_bytes / 1024:.1f} KiB on disk; "
            f"this session: {self.hits} hits, {self.misses} misses"
        )
        if self.other_entries:
            text += (
                f"; other schemas: {self.other_entries} entries, "
                f"{self.other_bytes / 1024:.1f} KiB"
            )
        return text


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
        #: in-process LRU memo: key -> parsed result dict.  A warm
        #: ``run_batch`` re-reads the same entries every call; the memo
        #: skips the disk read *and* the JSON parse, leaving only the
        #: (cheap) SimResult revival.  Deliberately per-instance:
        #: sharing across caches rooted differently would serve results
        #: across isolation boundaries the roots exist to draw.
        self._memo: dict[str, dict[str, Any]] = {}

    def _address(self, key: str) -> str:
        """The entry path for ``key``, as the string the file calls take.

        ``os.path.join`` on the root, not ``pathlib``: the warm hit path
        runs once per spec, and a ``Path`` costs several times the join.
        A relative root resolves against the working directory at each
        call, as a ``Path`` would.
        """
        return os.path.join(self.root, f"v{CACHE_SCHEMA}", key[:2], key + ".json")

    def path_for(self, scenario: Scenario) -> Path:
        """Where ``scenario``'s result lives (whether or not it exists yet).

        ``<root>/v<schema>/<kk>/<key>.json`` with ``key`` the scenario's
        :meth:`~repro.scenario.Scenario.content_hash`: the address
        :meth:`get` and :meth:`put` use, as a :class:`~pathlib.Path`.
        """
        return Path(self._address(scenario.content_hash()))

    # -- lookup ------------------------------------------------------------------

    def get(self, scenario: Scenario) -> SimResult | None:
        """The stored result, or ``None`` on miss.

        A hit costs one key (:meth:`Scenario.content_hash`), one string
        address, one read of the entry's bytes, one comparison of its
        header, one ``json.loads`` of its result line and one
        :func:`result_from_dict`; the hashed text after the result is
        never parsed.  The in-process memo skips the read and the parse
        for an entry this instance has read before.

        Any defect in the stored entry — a header of another schema or
        key, a result line that is missing, truncated or unparsable, a
        result missing a field — deletes the entry and reports a miss;
        the cache never propagates corruption.  A read that fails for
        any other reason (an unusable cache root, an unreadable entry)
        is a plain miss with a ``cache.error`` event: nothing is known
        to be corrupt, so nothing is deleted.
        """
        key = scenario.content_hash()
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
        path = self._address(key)
        header = _header(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            if not raw.startswith(header):
                raise ValueError("header does not match this schema and key")
            # index() raises where no newline ends the result line: a cut entry.
            data = json.loads(raw[len(header):raw.index(b"\n", len(header))])
            result = result_from_dict(data)
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
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            if tele is not None:
                tele.emit("cache.miss", key=key[:12], corrupt=True)
            return None
        self._memoize(key, data)
        self.hits += 1
        if tele is not None:
            tele.emit("cache.hit", key=key[:12])
        return result

    def _memoize(self, key: str, data: dict[str, Any]) -> None:
        # The memo shares the result dict across get() calls; revival
        # copies every numeric field into fresh arrays/dicts, but list
        # fields stored as-is (params, result_value, query_completions)
        # are shared — SimResults are read-only by convention and nothing
        # in the repo mutates them.
        memo = self._memo
        memo.pop(key, None)
        memo[key] = data
        # Trim the oldest entries in a loop, not once: a trim that loses
        # a race to another thread stops, and the next insert finishes
        # it, so the memo never stays past its bound.
        while len(memo) > _MEMO_CAPACITY:
            try:
                memo.pop(next(iter(memo)))
            except (KeyError, StopIteration, RuntimeError):
                break

    # -- store -------------------------------------------------------------------

    def put(self, scenario: Scenario, result: SimResult | dict[str, Any]) -> Path:
        """Store ``result`` under ``scenario``'s content address (atomic).

        ``result`` is a :class:`SimResult` or its :func:`result_to_dict`
        form, as a fleet worker sends it home; both write the same bytes,
        so a served miss stores its worker's payload without reviving it.
        """
        key = scenario.content_hash()
        path = self._address(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        data = result if isinstance(result, dict) else result_to_dict(result)
        entry = b"%s%s\n%s" % (
            _header(key),
            canonical_json(data).encode("utf-8"),
            scenario.canonical_json().encode("utf-8"),
        )
        fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(entry)
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
        return Path(path)

    # -- maintenance -------------------------------------------------------------

    def _schema_dirs(self) -> list[Path]:
        """Every ``v<n>/`` directory under the root, this schema's included."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.iterdir() if _SCHEMA_DIR.fullmatch(p.name) and p.is_dir()
        )

    @staticmethod
    def _entry_paths(schema_dir: Path) -> list[Path]:
        return [p for p in schema_dir.glob("*/*.json") if not p.name.startswith(".tmp-")]

    def stats(self) -> CacheStats:
        """Entry count and on-disk footprint, this schema's and the others'."""
        entries = total_bytes = other_entries = other_bytes = 0
        for schema_dir in self._schema_dirs():
            paths = self._entry_paths(schema_dir)
            size = sum(p.stat().st_size for p in paths)
            if schema_dir.name == f"v{CACHE_SCHEMA}":
                entries, total_bytes = len(paths), size
            else:
                other_entries += len(paths)
                other_bytes += size
        return CacheStats(
            root=self.root,
            schema=CACHE_SCHEMA,
            entries=entries,
            total_bytes=total_bytes,
            hits=self.hits,
            misses=self.misses,
            other_entries=other_entries,
            other_bytes=other_bytes,
        )

    def clear(self) -> int:
        """Delete every entry, of this schema and of any other; returns the count.

        Also sweeps up ``.tmp-*`` orphans a killed writer may have left
        (they are invisible to :meth:`stats` but would otherwise
        accumulate forever), then the emptied shard and schema
        directories.  Nothing else under the root is touched.
        """
        self._memo.clear()
        removed = 0
        for schema_dir in self._schema_dirs():
            paths = self._entry_paths(schema_dir)
            for path in paths:
                path.unlink(missing_ok=True)
            removed += len(paths)
            # Tidy orphaned temp files and now-empty directories
            # (best-effort: a directory holding anything else stays).
            for orphan in schema_dir.glob("*/.tmp-*.json"):
                try:
                    orphan.unlink()
                except OSError:
                    pass
            for shard in schema_dir.iterdir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
            try:
                schema_dir.rmdir()
            except OSError:
                pass
        return removed


def _header(key: str) -> bytes:
    """An entry's first line, newline included: its schema and its key."""
    return b'{"schema":%d,"key":"%s"}\n' % (CACHE_SCHEMA, key.encode("ascii"))
