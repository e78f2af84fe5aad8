"""ORACLE reborn: the discrete-event multiprocessor simulator.

The paper's simulations ran on ORACLE, a SIMSCRIPT-based simulator with
"one process for each user process running on a PE, and one process for
each communication channel", modelling "contention for the basic
resources of a parallel system".  This package is our from-scratch
Python equivalent: kernel (:mod:`engine`), machine model (:mod:`pe`,
:mod:`channel`, :mod:`machine`), cost model (:mod:`config`), statistics
(:mod:`stats`) and the ANSI descendant of ORACLE's red/blue graphics
monitor (:mod:`monitor`).
"""

from __future__ import annotations

from .channel import Channel
from .config import CostModel, SimConfig
from .engine import Engine, SimulationError
from .machine import Machine
from .message import ControlWord, GoalMessage, LoadUpdate, Message, ResponseMessage
from .pe import PE, CombineItem, TaskRecord
from .stats import SimResult, StatsCollector, UtilizationSample

__all__ = [
    "Channel",
    "CombineItem",
    "ControlWord",
    "CostModel",
    "Engine",
    "GoalMessage",
    "LoadUpdate",
    "Machine",
    "Message",
    "PE",
    "ResponseMessage",
    "SimConfig",
    "SimResult",
    "SimulationError",
    "StatsCollector",
    "TaskRecord",
    "UtilizationSample",
]
