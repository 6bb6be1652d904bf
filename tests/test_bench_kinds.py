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
from repro.cli import main
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
    assert same.metrics == kind.gated and same.pairs == len(kind.gated)
    assert same.passed

    metric = kind.gated[0]
    worse = copy.deepcopy(rows)
    for row in worse:
        row["run"][metric] *= 1.03
    flipped = compare(base, worse, kind=kind.name)
    assert [c.metric for c in flipped.changes] == [metric]
    assert flipped.risen_metrics == [metric]


@pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
def test_committed_baseline_holds_the_kinds_gated_metrics(kind):
    base = Baseline.load(
        REPO / "benchmarks" / "baselines" / f"{kind.bench_prefix}smoke.json"
    )
    assert base.groups
    for key, group in base.groups.items():
        assert set(group["metrics"]) - {"imbalance"} == set(kind.gated), key


@pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
def test_committed_baseline_reproduces(kind, tmp_path, capsys, monkeypatch):
    """What CI's three gates run, in-process: the kind's default smoke
    matrix, recorded now, equals its committed baseline value for value,
    so a stale baseline fails here and not only in CI."""
    path = REPO / "benchmarks" / "baselines" / f"{kind.bench_prefix}smoke.json"
    monkeypatch.chdir(tmp_path)
    common = ["--kind", kind.name, "--suite", "smoke", "--db", "runs.jsonl"]
    assert main(["bench", "record", *common]) == 0
    rc = main(["bench", "compare", *common, "--baseline", str(path), "--gate"])
    out = capsys.readouterr().out
    values = len(Baseline.load(path).groups) * len(kind.seeds) * len(kind.gated)
    assert rc == 0, out[out.find("## Values"):]
    assert f"All {values} values ({', '.join(kind.gated)}) equal the baseline." in out


def test_the_gate_names_the_config_a_baseline_was_recorded_under(
    tmp_path, capsys, monkeypatch
):
    """The smoke matrix recorded at ``--threads 3`` (the committed file's
    rows ran at the default 8) runs under another config digest: the gate
    names each group's config change ahead of the values it moved."""
    path = REPO / "benchmarks" / "baselines" / "smoke.json"
    monkeypatch.chdir(tmp_path)
    common = ["--kind", "partition", "--suite", "smoke", "--db", "runs.jsonl"]
    assert main(["bench", "record", *common, "--threads", "3"]) == 0
    rc = main(["bench", "compare", *common, "--baseline", str(path), "--gate"])
    out = capsys.readouterr().out
    assert rc == 1
    groups = Baseline.load(path).groups
    named = [line for line in out.splitlines() if line.startswith("- `") and " config " in line]
    assert len(named) == len(groups)
    for key, group in groups.items():
        assert group["config"] is not None
        assert f"{key} config {group['config']} → " in out
    assert out.index(" config ") < out.index(" seed ")
    assert f"perf gate: FAILED ({len(groups)} group(s) ran under another config" in out


def test_committed_run_db_loads_with_legacy_rows_as_opaque_data():
    """The append-only file is never rewritten and the loader does not
    switch on kind: rows of the retired ``microbench`` kind are just data."""
    rows = RunDB(REPO / "BENCH_runs.jsonl").load()
    assert len(rows) >= 18
    legacy = [r for r in rows if r["kind"] not in KINDS]
    assert [r["kind"] for r in legacy] == ["microbench"] * 2
    assert all(json.dumps(r["run"]) for r in legacy)
