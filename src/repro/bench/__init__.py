"""Benchmark harness: instance sets, run matrix, aggregation, reporting.

Every table and figure in the paper's evaluation section has a bench target
under ``benchmarks/`` built from these pieces (see DESIGN.md section 4 for
the full index and EXPERIMENTS.md for paper-vs-measured records).
"""

from repro.bench.instances import (
    SET_A,
    SET_B,
    SMOKE_SET,
    Instance,
    load_instance,
)
from repro.bench.harness import (
    AggregateStat,
    RunRecord,
    aggregate,
    geometric_mean,
    harmonic_mean,
    run_matrix,
)
from repro.bench.profiles import performance_profile
from repro.bench.reporting import render_table

__all__ = [
    "SET_A",
    "SET_B",
    "SMOKE_SET",
    "Instance",
    "load_instance",
    "AggregateStat",
    "RunRecord",
    "aggregate",
    "geometric_mean",
    "harmonic_mean",
    "run_matrix",
    "performance_profile",
    "render_table",
]
