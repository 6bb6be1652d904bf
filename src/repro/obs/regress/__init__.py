"""Regression observatory: persisted run DB, baselines, attribution.

Four layers (DESIGN.md §8):

* :mod:`~repro.obs.regress.rundb`   — append-only JSONL run database with
  versioned, provenance-stamped records, a schema check on load, and the
  kinds table (:data:`KINDS`) stating what a row of each kind is,
* :mod:`~repro.obs.regress.compare` — named baselines + seed-aware
  bootstrap classification (improved / neutral / regressed) with the
  imbalance hard gate,
* :mod:`~repro.obs.regress.attrib`  — per-phase diffing of the obs
  waterfalls to *name* the phase behind a wall/memory regression,
* :mod:`~repro.obs.regress.report`  — Markdown report and the
  machine-readable ``BENCH_trajectory.json``.

Driven by ``repro bench record|baseline|compare`` (see
EXPERIMENTS.md for the workflow) and by the CI perf gate.
"""

from repro.obs.regress.attrib import (
    PhaseDelta,
    aggregate_profiles,
    attribute,
    diff_profiles,
    format_attribution,
    phase_profile,
)
from repro.obs.regress.compare import (
    Baseline,
    CompareReport,
    CompareThresholds,
    GateResult,
    MetricVerdict,
    capture_baseline,
    compare,
)
from repro.obs.regress.report import (
    render_markdown,
    trajectory_dict,
    write_trajectory,
)
from repro.obs.regress.rundb import (
    KINDS,
    RUNDB_SCHEMA,
    Measurement,
    RunDB,
    default_rundb,
    environment_stamp,
    latest_per_key,
    make_record,
    migrate_record,
    run_key,
)

__all__ = [
    "KINDS",
    "RUNDB_SCHEMA",
    "Baseline",
    "CompareReport",
    "CompareThresholds",
    "GateResult",
    "Measurement",
    "MetricVerdict",
    "PhaseDelta",
    "RunDB",
    "aggregate_profiles",
    "attribute",
    "capture_baseline",
    "compare",
    "default_rundb",
    "diff_profiles",
    "environment_stamp",
    "format_attribution",
    "latest_per_key",
    "make_record",
    "migrate_record",
    "phase_profile",
    "render_markdown",
    "run_key",
    "trajectory_dict",
    "write_trajectory",
]
