#!/usr/bin/env bash
# Fast local gate: byte-compile everything, then the non-slow tests.
#
#   scripts/check.sh            # compile + fast tests
#   scripts/check.sh -k cache   # extra args forwarded to pytest
#
# The full suite (including the slow docs-tutorial execution) is
#   PYTHONPATH=src python -m pytest -q
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== compileall (src, tests, benchmarks) =="
python -m compileall -q src tests benchmarks

echo "== import every benchmark module (pytest --collect-only) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks/bench_*.py --collect-only -q

echo "== repro lint =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro lint

if command -v ruff >/dev/null 2>&1; then
  echo "== ruff check src tests =="
  ruff check src tests
else
  echo "== ruff not installed; skipping (pip install ruff) =="
fi

if command -v mypy >/dev/null 2>&1; then
  echo "== mypy (pdes + scenario + lint islands) =="
  mypy --config-file pyproject.toml
else
  echo "== mypy not installed; skipping (pip install mypy) =="
fi

echo "== pytest -m 'not slow' =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -m "not slow" "$@"

echo "== repro bench --quick vs committed BENCH (tolerance 4x) =="
# Write to a temp point so the committed baseline is never clobbered
# locally; 4x is looser than the same-machine default (2x) but far
# tighter than CI's cross-machine 10x.
BENCH_TMP="$(mktemp -t repro-bench-XXXXXX.json)"
trap 'rm -f "$BENCH_TMP"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro bench --quick \
  --out "$BENCH_TMP" --compare BENCH_10.json --tolerance 4
