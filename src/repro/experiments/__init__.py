"""Experiment harness: everything needed to regenerate the paper's
tables and figures (see DESIGN.md section 4 for the full index).

* Table 1 -> :mod:`repro.experiments.optimization`
* Table 2 -> :mod:`repro.experiments.comparison`
* Table 3 -> :mod:`repro.experiments.hops`
* Plots 1-10 -> :mod:`repro.experiments.utilization_curves`
* Plots 11-16 -> :mod:`repro.experiments.timeseries`
* Appendix I -> :mod:`repro.experiments.hypercube_appendix`
"""

from __future__ import annotations

from . import scale
from .comparison import comparison_plan, render_table2, run_comparison, summarize_claims
from .grainsize import render_grainsize, run_grainsize
from .hops import render_table3, run_hop_study
from .large_machines import (
    large_machine_plan,
    render_large_machines,
    run_large_machines,
)
from .optimization import render_table1, run_optimization
from .plan import (
    ExecutionReport,
    ExperimentPlan,
    LocalRun,
    collect_reports,
    execute,
    merge_plans,
)
from .plots import ascii_plot
from .query_stream import render_stream, run_stream
from .replication import Replication, replicate_metric, replicate_pair
from .scaling import render_scaling, run_scaling
from .sweep import PairedSweep, SweepPoint, SweepResult
from .tables import format_kv, format_table
from .timeseries import render_timeseries, rise_time, run_timeseries, tail_length
from .utilization_curves import render_curve, run_all_curves, run_curve

__all__ = [
    "ExecutionReport",
    "ExperimentPlan",
    "LocalRun",
    "PairedSweep",
    "SweepPoint",
    "SweepResult",
    "Replication",
    "ascii_plot",
    "collect_reports",
    "comparison_plan",
    "execute",
    "format_kv",
    "format_table",
    "large_machine_plan",
    "merge_plans",
    "render_curve",
    "render_grainsize",
    "render_large_machines",
    "render_scaling",
    "render_stream",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_timeseries",
    "replicate_metric",
    "replicate_pair",
    "run_grainsize",
    "run_large_machines",
    "run_stream",
    "rise_time",
    "run_all_curves",
    "run_comparison",
    "run_curve",
    "run_hop_study",
    "run_optimization",
    "run_scaling",
    "run_timeseries",
    "scale",
    "summarize_claims",
    "tail_length",
]
