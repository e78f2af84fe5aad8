"""Multiprocess simulation farm with a content-addressed result cache.

Every experiment here is a bag of independent runs, each one
:class:`~repro.scenario.Scenario`; this package makes such bags cheap:

* :mod:`repro.parallel.cache` — :class:`ResultCache`, an on-disk store
  addressed by :meth:`Scenario.content_hash` (atomic writes,
  schema-versioned, ``REPRO_CACHE_DIR`` relocatable);
* :mod:`repro.parallel.pool` — :class:`WorkerFleet`, the one pool of
  worker processes (``repro serve`` keeps one warm), and
  :func:`run_many`, which farms spelled scenarios over a fleet with
  output bit-identical to serial execution;
* :mod:`repro.parallel.orchestrator` — :func:`run_batch`, the one batch
  engine: resumable batches, cache hits skipped, failures retried,
  every completed run persisted immediately, and scenarios the spec
  grammar cannot spell run in-process.

Every experiment module routes through :func:`run_batch` via the
declarative plan spine (:mod:`repro.experiments.plan`), as do the CLI's
uniform ``--jobs`` / ``--no-cache`` flags; the pieces compose directly
too::

    from repro.parallel import ResultCache, run_batch
    from repro.scenario import Scenario

    runs = [Scenario("fib:15", "grid:10x10", "cwn", seed=s) for s in range(8)]
    report = run_batch(runs, jobs=4, cache=ResultCache())
    speedups = [r.speedup for r in report.results]
"""

from __future__ import annotations

from .cache import (
    CACHE_SCHEMA,
    CacheStats,
    ResultCache,
    default_cache_dir,
    result_from_dict,
    result_json,
    result_to_dict,
)
from .orchestrator import BatchReport, run_batch
from .pool import FarmError, RunFailure, WorkerFleet, resolve_jobs, run_many
from .spec import RunSpec  # noqa: F401  (perfbench's alias; not exported)

__all__ = [
    "BatchReport",
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "FarmError",
    "RunFailure",
    "WorkerFleet",
    "default_cache_dir",
    "resolve_jobs",
    "result_from_dict",
    "result_json",
    "result_to_dict",
    "run_batch",
    "run_many",
]
