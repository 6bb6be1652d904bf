"""End-to-end acceptance: record -> baseline -> compare round-trip.

The observatory's contract: an identical re-run of the baseline config
reads exactly 1.000 [1.000, 1.000] on the deterministic metrics across 3
seeds, and a deliberately degraded config (compression disabled -> bigger
working set) is flagged as regressed with the offending phase named by
the attribution layer.  Wall-clock decides nothing by default; the time
attribution path is exercised by asking for ``wall_seconds`` explicitly
with an explicit band, on a >=6x effect.
"""

import pytest

from repro.bench.harness import run_matrix
from repro.bench.instances import Instance
from repro.core import config as C
from repro.obs.regress.compare import CompareThresholds, capture_baseline, compare
from repro.obs.regress.rundb import RunDB, latest_per_key, run_key

INSTANCES = [Instance("fem-grid", "grid2d", (50, 50))]
SEEDS = [0, 1, 2]
THR = CompareThresholds(bootstrap_samples=300)


def _traced(cfg):
    return cfg.with_(obs=C.ObsConfig(enabled=True))


@pytest.fixture(scope="module")
def base_records(tmp_path_factory):
    db = RunDB(tmp_path_factory.mktemp("rundb") / "runs.jsonl")
    run_matrix(
        [_traced(C.terapart())],
        INSTANCES,
        [4],
        SEEDS,
        rundb=db,
        record_bench="smoke",
        record_label="base",
    )
    return db.query(label="base")


@pytest.fixture(scope="module")
def baseline(base_records):
    return capture_baseline(base_records, "e2e")


def _run_candidate(cfg, tmp_path, label):
    db = RunDB(tmp_path / "cand.jsonl")
    run_matrix(
        [_traced(cfg)], INSTANCES, [4], SEEDS,
        rundb=db, record_bench="smoke", record_label=label,
    )
    return latest_per_key(db.query(label=label), run_key)


def test_identical_rerun_is_neutral(baseline, tmp_path):
    cand = _run_candidate(C.terapart(), tmp_path, "rerun")
    report = compare(baseline, cand, thresholds=THR)
    assert not report.regressed, report.regressed_metrics
    assert report.gate.passed
    assert [v.metric for v in report.verdicts] == ["cut", "peak_bytes"]
    for v in report.verdicts:
        # seeded partitioner + ledger-tracked memory: bit-identical metrics
        assert (v.ratio, v.ci_low, v.ci_high) == (1.0, 1.0, 1.0), v
        assert v.classification == "neutral"


def test_slowed_config_flagged_with_phase_named(base_records, tmp_path):
    # same algorithm *name* (the pairing identity), deliberately slowed:
    # a 1024x initial-partitioning portfolio.  The adaptive pool skips most
    # of those slots and a skipped slot builds no order, which left
    # attempts=2048 at 2.5-3.6x the wall (at the edge of the band for three
    # 40 ms runs); 8192 measures 8x.
    slowed = C.terapart().with_(
        initial=C.InitialPartitioningConfig(attempts=8192)
    )
    cand = _run_candidate(slowed, tmp_path, "slow")
    # seconds have no declared band: both the vector and the band are
    # asked for explicitly
    report = compare(
        capture_baseline(base_records, "e2e-wall", metrics=("wall_seconds",)),
        cand,
        metrics=("wall_seconds",),
        thresholds=CompareThresholds(
            neutral_bands={"wall_seconds": 0.25}, bootstrap_samples=300
        ),
    )

    assert report.regressed
    wall = report.verdict_for("wall_seconds")
    assert wall.classification == "regressed", (wall.ratio, wall.ci_low)

    # attribution names the phase, not just the total
    assert report.attribution
    time_phases = {d.phase for d in report.attribution if d.metric == "time"}
    assert "initial-partitioning" in time_phases
    offenders = [
        d for d in report.attribution if d.phase == "initial-partitioning"
    ]
    assert offenders and offenders[0].pct > 100


def test_memory_regression_flagged_with_phase_named(baseline, tmp_path):
    # raw CSR instead of the compressed graph: a strictly larger working
    # set (the paper's whole point) — memory regresses even though the
    # decode-free traversal is *faster*
    fat = C.terapart().with_(compress_input=False)
    cand = _run_candidate(fat, tmp_path, "fat")
    report = compare(baseline, cand, thresholds=THR)

    assert report.regressed
    peak = report.verdict_for("peak_bytes")
    assert peak.classification == "regressed"
    assert peak.ratio > 1.1

    byte_phases = {d.phase for d in report.attribution if d.metric == "bytes"}
    assert byte_phases  # the bigger uncompressed working set is named


def test_trajectory_roundtrip(baseline, tmp_path):
    """The machine-readable artifact carries the verdicts and slim records."""
    import json

    from repro.obs.regress.report import (
        render_markdown,
        trajectory_dict,
        write_trajectory,
    )

    cand = _run_candidate(C.terapart(), tmp_path, "traj")
    report = compare(baseline, cand, thresholds=THR)
    traj = trajectory_dict(report, candidate_records=cand, timestamp=1.0)
    path = tmp_path / "BENCH_trajectory.json"
    write_trajectory(path, traj)
    loaded = json.loads(path.read_text())
    assert loaded["kind"] == "trajectory"
    assert loaded["regressed"] is False
    assert {v["metric"] for v in loaded["verdicts"]} == {"cut", "peak_bytes"}
    # obs payloads are stripped from the artifact
    assert all("obs" not in r for r in loaded["records"])

    md = render_markdown(report, candidate_label="traj")
    assert "| cut |" in md and "neutral" in md
    assert "hard gate passed" in md
