"""repro — reproduction of Kale (ICPP 1988), "Comparing the Performance
of Two Dynamic Load Distribution Methods".

The package re-implements the paper's entire stack: the ORACLE
discrete-event multiprocessor simulator (:mod:`repro.oracle`), the
interconnection topologies (:mod:`repro.topology`), the tree-structured
workloads (:mod:`repro.workload`), the two competing dynamic load
distribution strategies plus baselines and the conclusion's proposed
extensions (:mod:`repro.core`), and the experiment harness regenerating
every table and figure of the evaluation (:mod:`repro.experiments`).

Quickstart::

    from repro import CWN, Fibonacci, Grid, Scenario
    result = Scenario("fib:15", "grid:10x10", "cwn").run()
    result = Scenario.from_spec("fib:15 @ grid:10x10 / cwn").run()  # same run
    result = Scenario(Fibonacci(15), Grid(10, 10), CWN(radius=9, horizon=2)).run()  # same
    print(result.summary())

Every run description is a :class:`~repro.scenario.Scenario` (see
:mod:`repro.scenario`): one frozen value carrying workload, topology,
strategy, config, seed/start and the arrival block, constructible from
the compact spec grammar above and extensible through the three plugin
registries (``STRATEGIES`` / ``TOPOLOGIES`` / ``WORKLOADS``).
"""

from __future__ import annotations

from . import analysis, core, experiments, oracle, scenario, topology, validation, workload
from .core import (
    CWN,
    AdaptiveCWN,
    BatchGradient,
    Bidding,
    CentralScheduler,
    EventGradient,
    GradientModel,
    KeepLocal,
    RandomPlacement,
    RandomWalk,
    RoundRobin,
    Symmetric,
    ThresholdRandom,
    WorkStealing,
)
from .oracle import CostModel, Machine, SimConfig, SimResult
from .scenario import Arrivals, Scenario
from .topology import (
    ChordalRing,
    Complete,
    CubeConnectedCycles,
    DoubleLatticeMesh,
    Grid,
    Hypercube,
    Ring,
    Star,
    Torus3D,
)
from .validation import completion_bounds, validate_result
from .workload import (
    BinomialCoefficient,
    CyclicTree,
    DivideConquer,
    Fibonacci,
    QuicksortTree,
    RandomTree,
    SkewedTree,
    UnbalancedTreeSearch,
)

__version__ = "1.1.0"

__all__ = [
    "AdaptiveCWN",
    "Arrivals",
    "BatchGradient",
    "Bidding",
    "BinomialCoefficient",
    "CWN",
    "CentralScheduler",
    "ChordalRing",
    "Complete",
    "CostModel",
    "CubeConnectedCycles",
    "CyclicTree",
    "DivideConquer",
    "DoubleLatticeMesh",
    "EventGradient",
    "Fibonacci",
    "GradientModel",
    "Grid",
    "Hypercube",
    "KeepLocal",
    "Machine",
    "QuicksortTree",
    "RandomPlacement",
    "RandomTree",
    "RandomWalk",
    "Ring",
    "RoundRobin",
    "Scenario",
    "SimConfig",
    "SimResult",
    "SkewedTree",
    "Star",
    "Symmetric",
    "ThresholdRandom",
    "Torus3D",
    "UnbalancedTreeSearch",
    "WorkStealing",
    "analysis",
    "completion_bounds",
    "core",
    "experiments",
    "oracle",
    "scenario",
    "topology",
    "validate_result",
    "validation",
    "workload",
]
