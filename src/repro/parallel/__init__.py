"""Multiprocess simulation farm with a content-addressed result cache.

Every experiment here is a bag of independent runs; this package
makes such bags cheap:

* :mod:`repro.parallel.spec` — :class:`RunSpec`, one run as canonical,
  hashable, JSON-serializable data;
* :mod:`repro.parallel.cache` — :class:`ResultCache`, an on-disk store
  addressed by the spec hash (atomic writes, schema-versioned,
  ``REPRO_CACHE_DIR`` relocatable);
* :mod:`repro.parallel.pool` — :func:`run_many`, a ``multiprocessing``
  farm whose output is bit-identical to serial execution;
* :mod:`repro.parallel.orchestrator` — :func:`run_batch`, resumable
  batches: cache hits skipped, failures retried, every completed run
  persisted immediately.

Every experiment module routes through :func:`run_batch` via the
declarative plan spine (:mod:`repro.experiments.plan`), as do the CLI's
uniform ``--jobs`` / ``--no-cache`` flags; the pieces compose directly
too::

    from repro.parallel import ResultCache, RunSpec, run_batch

    specs = [RunSpec("fib:15", "grid:10x10", "cwn", seed=s) for s in range(8)]
    report = run_batch(specs, jobs=4, cache=ResultCache())
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
from .pool import FarmError, RunFailure, resolve_jobs, run_many, warm_worker
from .spec import SPEC_SCHEMA, RunSpec

__all__ = [
    "BatchReport",
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "FarmError",
    "RunFailure",
    "RunSpec",
    "SPEC_SCHEMA",
    "default_cache_dir",
    "resolve_jobs",
    "result_from_dict",
    "result_json",
    "result_to_dict",
    "run_batch",
    "run_many",
    "warm_worker",
]
