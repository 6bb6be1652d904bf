"""Tests for cluster-wide observability (repro.obs.dist).

The acceptance claims pinned here:

* every rank track's phase ``mem_peak`` in the merged trace equals that
  rank's :class:`~repro.memory.tracker.MemoryTracker` phase peak
  byte-for-byte (the PR 3 invariant, per rank),
* the memory ratio stays <= 2.0 at 4 ranks on the smoke matrix,
* compressed (varint) ghost-exchange bytes are strictly below raw,
* traffic is counted once (``SimComm.stats``): the report's totals are
  ``result.comm``, and its per-phase, per-kind and per-level splits each
  add up to them,
* tracing never perturbs the computation: traced and untraced runs are
  bit-identical,
* the distributed driver at ranks {1, 2, 4} produces valid, balanced
  partitions whose cut is within tolerance of the shared-memory run.
"""

import json

import numpy as np
import pytest

from repro.bench.instances import Instance, load_instance
from repro.core import config as C
from repro.core.config import DistObsConfig
from repro.core.partitioner import partition as sm_partition
from repro.dist import comm as comm_mod
from repro.dist.comm import SimComm, payload_nbytes
from repro.dist.dpartitioner import DistConfig, dpartition
from repro.graph.generators import grid2d
from repro.obs.dist import (
    ClusterObserver,
    cluster_chrome_trace,
    cluster_rollup,
    cluster_waterfall,
    memory_ratio_report,
    render_memory_ratio,
    write_cluster_trace,
)
from repro.obs.dist.rollup import CLUSTER_PID, COMM_FIELDS, attribute_traffic

K = 8
OBS_CFG = DistConfig(obs=DistObsConfig(enabled=True))


def varint_payload_nbytes(obj) -> int:
    return payload_nbytes(obj, varint=True)


def assert_attribution_complete(report: dict) -> None:
    """Every byte and message of the ledger lands in exactly one phase,
    one collective kind, and one level or the untagged bucket."""
    comm = report["comm"]
    untagged = report["per_phase"].get("(untagged)", {})
    for f in COMM_FIELDS:
        total = comm[f]
        assert sum(p[f] for p in report["per_phase"].values()) == total, f
        assert sum(k[f] for k in comm["by_kind"].values()) == total, f
        levelled = sum(lv[f"comm_{f}"] for lv in report["per_level"])
        assert levelled + untagged.get(f, 0) == total, f


@pytest.fixture(scope="module")
def smoke_graphs():
    return {
        name: load_instance(name) for name in ("fem-grid", "web-small")
    }


@pytest.fixture(scope="module")
def traced_runs(smoke_graphs):
    """One traced xTeraPart run per smoke instance at 4 ranks."""
    return {
        name: dpartition(g, K, 4, compressed=True, config=OBS_CFG)
        for name, g in smoke_graphs.items()
    }


# --------------------------------------------------------------------- #
# varint payload pricing
# --------------------------------------------------------------------- #
class TestVarintPricing:
    def test_sorted_ids_compress_far_below_raw(self):
        ids = np.arange(10_000, dtype=np.int64)  # deltas of 1 -> 1 byte each
        priced = varint_payload_nbytes(ids)
        assert priced < ids.nbytes / 4
        assert priced >= 10_000  # at least one byte per value

    def test_floats_are_incompressible(self):
        f = np.ones(100, dtype=np.float64)
        assert varint_payload_nbytes(f) == f.nbytes

    def test_2d_priced_column_wise(self):
        cols = np.stack(
            [np.arange(100, dtype=np.int64), np.arange(100, dtype=np.int64)],
            axis=1,
        )
        per_col = varint_payload_nbytes(
            np.ascontiguousarray(cols[:, 0])
        )
        assert varint_payload_nbytes(cols) == 2 * per_col

    def test_empty_and_containers(self):
        assert varint_payload_nbytes(np.empty(0, dtype=np.int64)) == 0
        assert varint_payload_nbytes(None) == 0
        a = np.arange(10, dtype=np.int64)
        assert varint_payload_nbytes([a, a]) == 2 * varint_payload_nbytes(a)
        assert varint_payload_nbytes(b"xyz") == 3


# --------------------------------------------------------------------- #
# the observer itself
# --------------------------------------------------------------------- #
class TestClusterObserver:
    def test_phases_mirrored_on_every_rank(self):
        comm = SimComm(3)
        obs = ClusterObserver(comm)
        assert comm.tracer is obs.rank_tracers[0]
        with obs.phase("dist-partition"):
            with obs.phase("dist-coarsening"):
                pass
        obs.finish()
        for tracer in obs.rank_tracers:
            names = [s.name for s in tracer.spans]
            assert names == ["dist-partition", "dist-coarsening"]
            assert all(s.category == "phase" for s in tracer.spans)
        # a finished observer no longer prices the communicator's traffic
        assert comm.tracer is None
        comm.bcast(np.arange(8, dtype=np.int64))
        assert comm.stats.by_kind["bcast"].varint_bytes == 0

    def test_collectives_tagged_with_open_phase_and_level(self):
        comm = SimComm(2)
        obs = ClusterObserver(comm)
        with obs.phase("dist-partition"):
            with obs.phase("dist-lp-level1", level=1):
                with obs.span("ghost-exchange"):  # level from its ancestor
                    comm.alltoallv(
                        [
                            [None, np.arange(4, dtype=np.int64)],
                            [np.arange(4, dtype=np.int64), None],
                        ]
                    )
            comm.bcast(7)
        obs.note_level(1, n=4, m=4, shard_bytes=64, ghost_bytes=0)
        obs.finish()
        tagged, untagged = attribute_traffic(obs)
        (ghost, ghost_level, ghost_traffic), (bare, bare_level, _) = tagged
        assert not any(untagged.values())
        assert ghost.name == "ghost-exchange" and ghost_level == 1
        assert ghost.counters["comm.raw_bytes"] == 2 * 32
        assert bare.name == "dist-partition" and bare_level is None
        # only rank 0's span tree carries traffic
        assert not any(s.counters for s in obs.rank_tracers[1].spans)
        report = memory_ratio_report(obs)
        tagged = report["per_phase"]["ghost-exchange"]
        assert tagged == ghost_traffic
        assert tagged["raw_bytes"] == 2 * 32
        assert 0 < tagged["varint_bytes"] < tagged["raw_bytes"]
        assert report["per_phase"]["dist-partition"]["raw_bytes"] == 8
        (level1,) = report["per_level"]
        assert level1["comm_raw_bytes"] == 2 * 32  # the bcast has no level

    def test_events_outside_spans_untagged(self):
        comm = SimComm(2)
        comm.bcast(np.arange(4, dtype=np.int64))  # before tracing: raw only
        obs = ClusterObserver(comm)
        comm.barrier()  # traced, but outside every span
        obs.finish()
        assert attribute_traffic(obs)[0] == []
        report = memory_ratio_report(obs)
        assert report["per_phase"] == {
            "(untagged)": {"raw_bytes": 32, "varint_bytes": 0, "messages": 3}
        }
        assert_attribution_complete(report)

    def test_totals_split_by_kind(self):
        comm = SimComm(2)
        obs = ClusterObserver(comm)
        comm.bcast(np.arange(8, dtype=np.int64))
        comm.bcast(np.arange(8, dtype=np.int64))
        comm.barrier()
        obs.finish()
        totals = memory_ratio_report(obs)["comm"]["by_kind"]
        assert totals["bcast"]["calls"] == 2
        assert totals["bcast"]["raw_bytes"] == 2 * 64
        assert totals["bcast"]["varint_bytes"] == 2 * varint_payload_nbytes(
            np.arange(8, dtype=np.int64)
        )
        assert totals["barrier"]["raw_bytes"] == 0
        for kind, ks in comm.stats.by_kind.items():
            assert totals[kind]["varint_bytes"] == ks.varint_bytes

    def test_counters_cluster_and_per_rank(self):
        comm = SimComm(2)
        obs = ClusterObserver(comm)
        with obs.phase("dist-partition"):
            obs.add("dlp.moves", 5)
            obs.add("dlp.moves", 2)
            obs.rank_add(0, "contract.rows_received", 4)
            obs.rank_add(1, "dlp.ghost_updates_sent", 3)
        obs.finish()
        # per-rank counters stay on their rank's span, out of the cluster's
        assert memory_ratio_report(obs)["counters"] == {"dlp.moves": 7}
        assert obs.rank_tracers[0].spans[0].counters == {
            "dlp.moves": 7,
            "contract.rows_received": 4,
        }
        assert obs.rank_tracers[1].spans[0].counters == {
            "dlp.ghost_updates_sent": 3
        }


# --------------------------------------------------------------------- #
# acceptance: the byte-for-byte rank-peak invariant
# --------------------------------------------------------------------- #
class TestMemPeakInvariant:
    def test_rank_spans_match_ledgers_byte_for_byte(self, traced_runs):
        for result in traced_runs.values():
            obs = result.trace
            checked = 0
            for rank, tracer in enumerate(obs.rank_tracers):
                tracker = obs.comm.trackers[rank]
                for span in tracer.spans:
                    if span.category != "phase":
                        continue
                    assert span.mem_peak == tracker.phase_peak(
                        span.tracker_path
                    )
                    checked += 1
            assert checked > 0

    def test_merged_trace_peaks_match_ledgers(self, traced_runs):
        """The invariant as seen through the exported artifact: every rank
        track's phase-span E event carries exactly the ledger peak."""
        for result in traced_runs.values():
            obs = result.trace
            doc = cluster_chrome_trace(obs)
            # phase spans per rank, keyed by (pid, begin ts, name)
            ledger = {}
            for rank, tracer in enumerate(obs.rank_tracers):
                tracker = obs.comm.trackers[rank]
                for span in tracer.spans:
                    if span.category != "phase":
                        continue
                    key = (rank + 1, round(span.t_end * 1e6, 3), span.name)
                    ledger[key] = tracker.phase_peak(span.tracker_path)
            matched = 0
            for ev in doc["traceEvents"]:
                if ev["ph"] != "E":
                    continue
                key = (ev["pid"], round(ev["ts"], 3), ev["name"])
                if key in ledger:
                    assert ev["args"]["mem_peak_bytes"] == ledger[key]
                    matched += 1
            assert matched >= len(ledger)

    def test_waterfall_reads_ledgers(self, traced_runs):
        for result in traced_runs.values():
            obs = result.trace
            rows = cluster_waterfall(obs)
            assert rows
            for row in rows:
                tracker = obs.comm.trackers[row["rank"]]
                assert row["peak_bytes"] == tracker.phase_peak(row["phase"])

    def test_rollup_max_is_max_over_ranks(self, traced_runs):
        for result in traced_runs.values():
            for entry in cluster_rollup(result.trace):
                assert entry["max_rank_peak_bytes"] == max(
                    entry["rank_peak_bytes"]
                )


# --------------------------------------------------------------------- #
# the merged chrome trace
# --------------------------------------------------------------------- #
class TestMergedTrace:
    def test_one_process_track_per_rank_plus_comm(self, traced_runs):
        result = traced_runs["fem-grid"]
        doc = cluster_chrome_trace(result.trace)
        names = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names[CLUSTER_PID] == "cluster-comm"
        for rank in range(4):
            assert names[rank + 1] == f"rank{rank}"

    def test_mandatory_keys_on_every_event(self, traced_runs):
        doc = cluster_chrome_trace(traced_runs["fem-grid"].trace)
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(ev)

    def test_comm_counter_track_is_cumulative(self, traced_runs):
        result = traced_runs["fem-grid"]
        doc = cluster_chrome_trace(result.trace)
        raws = [
            ev["args"]["raw"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "C" and ev["name"] == "comm-bytes"
        ]
        assert raws == sorted(raws)
        report = memory_ratio_report(result.trace)
        assert raws[-1] == report["comm"]["raw_bytes"]

    def test_write_cluster_trace_round_trips(self, traced_runs, tmp_path):
        path = tmp_path / "merged.trace.json"
        write_cluster_trace(path, traced_runs["fem-grid"].trace)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


# --------------------------------------------------------------------- #
# acceptance: the memory-ratio report
# --------------------------------------------------------------------- #
class TestMemoryRatioReport:
    def test_memory_ratio_bounded_at_4_ranks(self, traced_runs):
        for name, result in traced_runs.items():
            report = memory_ratio_report(result.trace)
            assert report["size"] == 4
            assert 1.0 <= report["memory_ratio"] <= 2.0, name

    def test_peaks_agree_with_result(self, traced_runs):
        for result in traced_runs.values():
            report = memory_ratio_report(result.trace)
            assert report["rank_peak_bytes"] == result.rank_peak_bytes
            assert (
                report["max_rank_peak_bytes"] == result.max_rank_peak_bytes
            )

    def test_varint_strictly_below_raw(self, traced_runs):
        for name, result in traced_runs.items():
            comm = memory_ratio_report(result.trace)["comm"]
            assert 0 < comm["varint_bytes"] < comm["raw_bytes"], name
            assert comm["compression_ratio"] < 1.0
            # ghost exchange specifically (the dominant traffic) compresses
            per_phase = memory_ratio_report(result.trace)["per_phase"]
            ghost = per_phase["ghost-exchange"]
            assert 0 < ghost["varint_bytes"] < ghost["raw_bytes"]

    def test_ghost_fraction_and_levels(self, traced_runs):
        for result in traced_runs.values():
            report = memory_ratio_report(result.trace)
            assert 0.0 < report["ghost_fraction"] < 1.0
            levels = report["per_level"]
            assert levels[0]["level"] == 0
            assert len(levels) == result.num_levels + 1
            for lv in levels:
                assert lv["comm_compute_ratio"] >= 0.0
            # coarsening shrinks the resident footprint level over level
            assert levels[-1]["shard_bytes"] < levels[0]["shard_bytes"]

    def test_attribution_is_complete(self, traced_runs):
        for result in traced_runs.values():
            assert_attribution_complete(result.obs["report"])

    def test_report_comm_is_the_result_ledger_on_a_pre_used_comm(self):
        """The report's traffic is ``result.comm`` (the one ledger), even
        for a communicator that carried traffic before the run, and stays
        frozen when the same communicator runs again."""
        comm = SimComm(2)
        comm.bcast(np.arange(100))
        graph = grid2d(30, 30)
        r1 = dpartition(graph, 4, comm, config=OBS_CFG)
        rc = r1.obs["report"]["comm"]
        assert rc["raw_bytes"] == r1.comm.bytes_sent
        assert rc["messages"] == r1.comm.messages
        assert rc["supersteps"] == r1.comm.supersteps
        assert rc["by_kind"] == {
            kind: {
                "calls": ks.calls,
                "messages": ks.messages,
                "raw_bytes": ks.bytes_sent,
                "varint_bytes": ks.varint_bytes,
            }
            for kind, ks in r1.comm.by_kind.items()
        }
        untagged = r1.obs["report"]["per_phase"]["(untagged)"]
        assert untagged["raw_bytes"] == 800 and untagged["varint_bytes"] == 0
        assert_attribution_complete(r1.obs["report"])
        frozen = json.dumps(r1.obs)
        dpartition(graph, 4, comm, config=OBS_CFG)
        assert json.dumps(r1.obs) == frozen

    def test_counters_surface_in_report(self, traced_runs):
        report = memory_ratio_report(traced_runs["fem-grid"].trace)
        assert report["counters"]["dlp.moves"] > 0
        assert report["counters"]["dlp.ghost_updates"] > 0
        assert "dlp.contention" in report["counters"]

    def test_render_is_readable(self, traced_runs):
        text = render_memory_ratio(
            memory_ratio_report(traced_runs["fem-grid"].trace)
        )
        assert "memory ratio=" in text
        assert "ghost" in text
        assert "level" in text


class TestImportFootprint:
    def test_traced_run_does_not_import_the_regress_package(self):
        """The phase vocabulary lives with the spans (obs/tracer), so a
        traced dpartition -- the report normalizes span names -- needs
        neither the regression observatory nor the bench harness."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys\n"
            "from repro.core.config import DistObsConfig\n"
            "from repro.dist.dpartitioner import DistConfig, dpartition\n"
            "from repro.graph.generators import grid2d\n"
            "cfg = DistConfig(obs=DistObsConfig(enabled=True))\n"
            "r = dpartition(grid2d(20, 20), 4, 2, compressed=True, config=cfg)\n"
            "assert r.obs['report']['per_phase'], 'no per-phase traffic'\n"
            "bad = [m for m in ('repro.obs.regress', 'repro.bench', 'repro.cli')"
            " if m in sys.modules]\n"
            "assert not bad, bad\n"
        )
        src = str(Path(repro.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------- #
# acceptance: tracing never perturbs the run
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def test_traced_equals_untraced(self, smoke_graphs):
        g = smoke_graphs["fem-grid"]
        traced = dpartition(g, K, 4, compressed=True, config=OBS_CFG)
        plain = dpartition(g, K, 4, compressed=True, config=DistConfig())
        assert traced.cut == plain.cut
        assert np.array_equal(traced.partition, plain.partition)
        assert traced.rank_peak_bytes == plain.rank_peak_bytes
        assert plain.trace is None and plain.obs is None

    def test_untraced_run_never_prices_varint(self, smoke_graphs, monkeypatch):
        def refuse(x):
            raise AssertionError("varint leaf priced an untraced collective")

        monkeypatch.setattr(comm_mod, "_varint_leaf", refuse)
        g = smoke_graphs["fem-grid"]
        plain = dpartition(g, K, 4, compressed=True, config=DistConfig())
        assert plain.comm.bytes_sent > 0
        assert all(ks.varint_bytes == 0 for ks in plain.comm.by_kind.values())
        with pytest.raises(AssertionError, match="varint leaf"):
            dpartition(g, K, 4, compressed=True, config=OBS_CFG)


# --------------------------------------------------------------------- #
# acceptance: dist == shared-memory equivalence on smoke instances
# --------------------------------------------------------------------- #
class TestSharedMemoryEquivalence:
    #: dist LP is batch-synchronous with stale reads; measured cut ratios
    #: on the smoke set peak at ~1.52 (web-small), so 1.8 leaves margin
    #: without letting a real quality regression through
    CUT_TOLERANCE = 1.8

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_valid_balanced_and_near_sm_cut(self, smoke_graphs, ranks):
        for name, g in smoke_graphs.items():
            sm_cut = int(sm_partition(g, K, C.terapart(seed=0)).cut)
            res = dpartition(g, K, ranks, compressed=True, config=OBS_CFG)
            part = res.partition
            assert part.shape == (g.n,)
            assert part.min() >= 0 and part.max() < K
            assert res.balanced, name
            assert res.cut <= self.CUT_TOLERANCE * sm_cut, (
                f"{name} r={ranks}: {res.cut} vs sm {sm_cut}"
            )

    def test_compressed_matches_uncompressed(self, smoke_graphs):
        g = smoke_graphs["fem-grid"]
        a = dpartition(g, K, 4, compressed=True, config=DistConfig())
        b = dpartition(g, K, 4, compressed=False, config=DistConfig())
        assert a.cut == b.cut
        assert np.array_equal(a.partition, b.partition)


# --------------------------------------------------------------------- #
# the dist bench + run-DB round trip
# --------------------------------------------------------------------- #
class TestDistBenchRoundTrip:
    def test_records_baseline_and_compare(self, tmp_path):
        from repro.bench.dist import DistSystem
        from repro.bench.harness import run_matrix
        from repro.obs.regress.compare import capture_baseline, compare
        from repro.obs.regress.rundb import KINDS, RunDB

        gated = tuple(KINDS["dist"].gated)
        db = RunDB(tmp_path / "runs.jsonl")
        instances = (Instance("fem-grid", "grid2d", (50, 50)),)
        run_matrix(
            [DistSystem("xterapart", 2, tmp_path / "artifacts")],
            instances,
            (4,),
            (0,),
            kind="dist",
            rundb=db,
            record_bench="dist-smoke",
            record_label="pr9",
        )
        records = db.load()
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "dist" and rec["schema"] == 4
        assert rec["run"]["algorithm"] == "xterapart-r2"
        assert rec["label"] == "pr9" and rec["config"] is None
        for m in gated:
            assert m in rec["run"], m
        assert rec["obs"]["report"]["memory_ratio"] >= 1.0
        # artifacts written per cell
        stem = "fem-grid-r2-xterapart-k4-s0"
        assert (tmp_path / "artifacts" / f"{stem}.trace.json").exists()
        assert (tmp_path / "artifacts" / f"{stem}.memratio.json").exists()

        loaded = db.query(kind="dist")
        assert len(loaded) == 1
        base = capture_baseline(loaded, "dist-smoke", kind="dist")
        report = compare(base, loaded, kind="dist")
        assert report.passed and report.pairs == len(gated)
