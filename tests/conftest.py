"""Shared fixtures: small machines, fast cost models, common topologies."""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.oracle.config import CostModel, SimConfig


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the default result cache at a session-private directory.

    Experiment commands cache by default now, so without this the suite
    would read and write ~/.cache/repro-kale88 — polluting the user's
    real cache and letting stale entries leak into assertions.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("result-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(autouse=True, scope="session")
def _no_ambient_telemetry():
    """Keep a developer's REPRO_TELEMETRY out of the suite.

    CLI tests call ``main()`` directly, which initializes telemetry from
    the environment; without this the suite would append events to the
    user's live stream (and watch/bench assertions could see them).
    """
    previous = os.environ.pop("REPRO_TELEMETRY", None)
    yield
    if previous is not None:
        os.environ["REPRO_TELEMETRY"] = previous
from repro.topology import Complete, DoubleLatticeMesh, Grid, Hypercube, Ring
from repro.workload import DivideConquer, Fibonacci


@pytest.fixture
def wall_clock_guard():
    """Arm with ``wall_clock_guard(seconds)``: past it the test fails, never hangs.

    SIGALRM interrupts the main thread wherever it blocks (a pipe read,
    a process join, an event loop), raising :class:`TimeoutError`.
    Forked children do not inherit the timer.
    """
    previous = signal.getsignal(signal.SIGALRM)

    def arm(seconds: float) -> None:
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)

    yield arm
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def kill_in_child(monkeypatch):
    """``kill_in_child(owner, name, when)``: a forked worker SIGKILLs itself.

    Patches method ``owner.name`` so that, in any process other than
    this one, a call for which ``when(self)`` holds kills its own
    process — no exception, no reply, as an OOM kill would.  The patch
    reaches workers only by being inherited through fork, so the test is
    skipped where fork is unavailable; this process never dies.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the kill patch reaches workers only through fork")
    parent = os.getpid()

    def patch(owner, name, when) -> None:
        original = getattr(owner, name)

        def dying(self, *args, **kwargs):
            if os.getpid() != parent and when(self):
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, dying)

    return patch


@pytest.fixture
def unit_config() -> SimConfig:
    """Everything costs one unit: hand-checkable timings."""
    return SimConfig(costs=CostModel.unit(), seed=7)


@pytest.fixture
def fast_config() -> SimConfig:
    """Default costs, fixed seed — the standard small-test config."""
    return SimConfig(seed=7)


@pytest.fixture
def grid5() -> Grid:
    return Grid(5, 5)


@pytest.fixture
def grid4() -> Grid:
    return Grid(4, 4)


@pytest.fixture
def dlm_small() -> DoubleLatticeMesh:
    return DoubleLatticeMesh(4, 8, 8)


@pytest.fixture
def cube4() -> Hypercube:
    return Hypercube(4)


@pytest.fixture
def ring8() -> Ring:
    return Ring(8)


@pytest.fixture
def complete4() -> Complete:
    return Complete(4)


@pytest.fixture
def fib9() -> Fibonacci:
    return Fibonacci(9)


@pytest.fixture
def dc55() -> DivideConquer:
    return DivideConquer(1, 55)
