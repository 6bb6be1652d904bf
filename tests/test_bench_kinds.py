"""The kinds table (obs/regress/rundb.KINDS), driven end to end.

Every record kind goes through the same three steps -- record a cell,
capture a baseline, compare -- and everything that differs between kinds
is read off the table, so one parametrised test covers them all.
"""

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.harness import run_matrix
from repro.bench.instances import Instance
from repro.obs.regress.compare import Baseline, capture_baseline, compare
from repro.obs.regress.rundb import KINDS, RunDB

REPO = Path(__file__).parent.parent

#: what `repro bench record` would parse for one tiny cell of any kind
OPTS = SimpleNamespace(
    preset=["terapart"], threads=8, ranks=[2], modes="xterapart", artifacts=None
)


@pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
def test_record_baseline_compare_per_kind(kind, tmp_path):
    db = RunDB(tmp_path / "runs.jsonl")
    measurements = run_matrix(
        kind.load("configs")(OPTS),
        [Instance("fem-grid", "grid2d", (50, 50))],
        [4],
        [0],
        kind=kind.name,
        rundb=db,
        record_bench=kind.bench_prefix + "unit",
    )
    rows = db.query(kind=kind.name)
    assert len(rows) == len(measurements) == 1
    assert rows[0]["bench"] == kind.bench_prefix + "unit"
    for _, field, fmt in kind.summary:
        assert fmt(rows[0]["run"][field])  # every summary column is recorded

    base = capture_baseline(rows, "unit", kind=kind.name)
    (group,) = base.groups.values()
    assert set(group["metrics"]) - {"imbalance"} == set(kind.gated)

    same = compare(base, rows, kind=kind.name)
    assert [v.metric for v in same.verdicts] == list(kind.gated)
    for v in same.verdicts:
        assert (v.ratio, v.ci_low, v.ci_high) == (1.0, 1.0, 1.0), v
        assert v.classification == "neutral"
    assert same.gate.passed and not same.regressed

    metric = next(iter(kind.gated))
    worse = copy.deepcopy(rows)
    for row in worse:
        row["run"][metric] *= 1.03
    flipped = compare(base, worse, kind=kind.name)
    assert flipped.regressed_metrics == [metric]


@pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
def test_committed_baseline_holds_the_kinds_gated_metrics(kind):
    base = Baseline.load(
        REPO / "benchmarks" / "baselines" / f"{kind.bench_prefix}smoke.json"
    )
    assert base.groups
    for key, group in base.groups.items():
        assert set(group["metrics"]) - {"imbalance"} == set(kind.gated), key


def test_committed_run_db_loads_with_legacy_rows_as_opaque_data():
    """The append-only file is never rewritten and the loader does not
    switch on kind: rows of the retired ``microbench`` kind are just data."""
    rows = RunDB(REPO / "BENCH_runs.jsonl").load()
    assert len(rows) >= 18
    legacy = [r for r in rows if r["kind"] not in KINDS]
    assert [r["kind"] for r in legacy] == ["microbench"] * 2
    assert all(json.dumps(r["run"]) for r in legacy)
