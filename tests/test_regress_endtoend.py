"""End-to-end acceptance: record -> baseline -> compare round-trip.

The observatory's contract: an identical re-run of the baseline config
reproduces every deterministic value across 3 seeds, and a deliberately
degraded config (compression disabled -> bigger working set) is named
value by value with the offending phase named by the attribution layer.
Wall-clock decides nothing; the time attribution path is exercised by
calling the attribution directly on a >=6x effect.
"""

import pytest

from repro.bench.harness import run_matrix
from repro.bench.instances import Instance
from repro.core import config as C
from repro.obs.regress.attrib import aggregate_profiles, attribute
from repro.obs.regress.compare import capture_baseline, compare
from repro.obs.regress.report import render_markdown
from repro.obs.regress.rundb import RunDB, latest_per_key, run_key

INSTANCES = [Instance("fem-grid", "grid2d", (50, 50))]
SEEDS = [0, 1, 2]


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
    report = compare(baseline, cand)
    # seeded partitioner + ledger-tracked memory: bit-identical values
    assert report.passed, [str(c) for c in report.changes]
    assert report.pairs == len(SEEDS) * 2

    md = render_markdown(report, candidate_label="rerun")
    assert "Overall: ok" in md
    assert "All 6 values (cut, peak_bytes) equal the baseline." in md
    assert "All candidate runs balanced." in md


def test_slowed_config_flagged_with_phase_named(baseline, tmp_path):
    # same algorithm *name* (the pairing identity), deliberately slowed:
    # a 1024x initial-partitioning portfolio.  The adaptive pool skips most
    # of those slots and a skipped slot builds no order, which left
    # attempts=2048 at 2.5-3.6x the wall; 8192 measures 8x.
    slowed = C.terapart().with_(
        initial=C.InitialPartitioningConfig(attempts=8192)
    )
    cand = _run_candidate(slowed, tmp_path, "slow")
    # seconds gate nothing: the attribution of a wall-clock rise is asked
    # for directly, against the baseline's condensed profiles
    deltas = attribute(
        [],
        cand,
        regressed_metrics=("wall_seconds",),
        base_profile=aggregate_profiles(
            g["profile"] for g in baseline.groups.values()
        ),
    )

    # attribution names the phase, not just the total
    time_phases = {d.phase for d in deltas if d.metric == "time"}
    assert "initial-partitioning" in time_phases
    offenders = [d for d in deltas if d.phase == "initial-partitioning"]
    assert offenders and offenders[0].pct > 100


def test_memory_regression_flagged_with_phase_named(baseline, tmp_path):
    # raw CSR instead of the compressed graph: a strictly larger working
    # set (the paper's whole point) — memory rises even though the
    # decode-free traversal is *faster*
    fat = C.terapart().with_(compress_input=False)
    cand = _run_candidate(fat, tmp_path, "fat")
    report = compare(baseline, cand)

    assert not report.passed
    peaks = [c for c in report.changes if c.metric == "peak_bytes"]
    assert len(peaks) == len(SEEDS)
    assert all(c.new > 1.1 * c.old for c in peaks)
    assert report.risen_metrics[-1] == "peak_bytes"

    byte_phases = {d.phase for d in report.attribution if d.metric == "bytes"}
    assert byte_phases  # the bigger uncompressed working set is named
