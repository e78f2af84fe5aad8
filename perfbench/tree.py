"""Where the program under test lives: ``src/`` of the checkout holding us."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for caches and temp files; removed again after each run
WORK = ROOT / ".bench_work"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child process that runs the program from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra)
    # A telemetry sink inherited from the caller would add its writes to
    # every measured child.
    env.pop("REPRO_TELEMETRY", None)
    return env
