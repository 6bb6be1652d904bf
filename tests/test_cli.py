"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import generators as gen
from repro.graph.io import write_binary, write_metis


@pytest.fixture
def graph_file(tmp_path):
    g = gen.rgg2d(500, 8.0, seed=1)
    path = tmp_path / "g.bin"
    write_binary(g, path)
    return path, g


class TestPartitionCommand:
    def test_writes_partition_file(self, graph_file, capsys):
        path, g = graph_file
        out = path.parent / "g.part"
        rc = main(
            ["partition", str(path), "-k", "4", "--out", str(out), "--seed", "1"]
        )
        assert rc == 0
        part = np.loadtxt(out, dtype=int)
        assert len(part) == g.n
        assert set(np.unique(part)) <= set(range(4))
        captured = capsys.readouterr().out
        assert "cut:" in captured and "balanced: True" in captured

    def test_default_output_name(self, graph_file):
        path, g = graph_file
        main(["partition", str(path), "-k", "2"])
        assert (path.parent / "g.bin.part2").exists()

    def test_stream_compress_flag(self, graph_file, capsys):
        path, g = graph_file
        rc = main(["partition", str(path), "-k", "4", "--stream-compress"])
        assert rc == 0

    def test_preset_selection(self, graph_file):
        path, _ = graph_file
        rc = main(["partition", str(path), "-k", "2", "--preset", "kaminpar"])
        assert rc == 0

    def test_metis_input(self, tmp_path):
        g = gen.grid2d(10, 10)
        path = tmp_path / "g.metis"
        write_metis(g, path)
        rc = main(["partition", str(path), "-k", "2"])
        assert rc == 0


class TestCompressCommand:
    def test_reports_ratios(self, graph_file, capsys):
        path, _ = graph_file
        rc = main(["compress", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "intervals" in out


class TestGenerateCommand:
    @pytest.mark.parametrize("family", ["rgg2d", "weblike", "kmer", "ba", "er"])
    def test_generates_valid_file(self, tmp_path, family, capsys):
        out = tmp_path / "out.bin"
        rc = main(
            ["generate", "--family", family, "--n", "300", "--out", str(out)]
        )
        assert rc == 0
        from repro.graph.io import read_binary

        g = read_binary(out)
        g.validate()
        assert g.n == 300


class TestStatsCommand:
    def test_prints_stats(self, graph_file, capsys):
        path, _ = graph_file
        rc = main(["stats", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=" in out and "interval edge fraction" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_k_rejected(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main(["partition", str(path)])


class TestPortfolioAndMetricsFlags:
    def test_seeds_flag(self, graph_file, capsys):
        path, _ = graph_file
        rc = main(["partition", str(path), "-k", "4", "--seeds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "portfolio" in out and "best of 2 seeds" in out

    def test_metrics_flag(self, graph_file, capsys):
        path, _ = graph_file
        rc = main(["partition", str(path), "-k", "4", "--metrics"])
        assert rc == 0
        assert "comm" in capsys.readouterr().out.replace("cv=", "comm")


class TestBenchCommands:
    """The regression observatory CLI: record / baseline / compare."""

    @pytest.fixture(scope="class")
    def recorded_db(self, tmp_path_factory):
        """One real smoke run recorded into a fresh run DB (shared: slow)."""
        db = tmp_path_factory.mktemp("bench") / "runs.jsonl"
        rc = main(
            [
                "bench", "record", "--suite", "smoke",
                "--instances", "fem-grid", "--seeds", "0", "1",
                "--label", "base", "--db", str(db),
            ]
        )
        assert rc == 0
        return db

    def test_record_appends_stamped_records(self, recorded_db, capsys):
        from repro.obs.regress.rundb import RunDB

        recs = RunDB(recorded_db).load()
        assert len(recs) == 2
        assert all(r["kind"] == "partition" for r in recs)
        assert all(r["label"] == "base" for r in recs)
        assert all(r["obs"] is not None for r in recs)  # obs rides along
        assert recs[0]["config"]["name"] == "terapart"

    def test_baseline_compare_roundtrip_neutral(self, recorded_db, capsys):
        base_out = recorded_db.parent / "smoke.json"
        rc = main(
            [
                "bench", "baseline", "--name", "cli-smoke",
                "--db", str(recorded_db), "--label", "base",
                "--out", str(base_out),
            ]
        )
        assert rc == 0
        assert "1 groups" in capsys.readouterr().out

        traj = recorded_db.parent / "traj.json"
        rc = main(
            [
                "bench", "compare", "--baseline", str(base_out),
                "--db", str(recorded_db), "--label", "base",
                "--gate", "--trajectory", str(traj),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "perf gate: passed" in out
        assert "neutral" in out
        import json

        doc = json.loads(traj.read_text())
        assert doc["kind"] == "trajectory" and doc["regressed"] is False

    def test_compare_gate_fails_on_synthetic_regression(self, tmp_path, capsys):
        """No real runs needed: fabricate a DB + baseline, inflate peak."""
        from repro.bench.harness import RunRecord
        from repro.obs.regress.compare import capture_baseline
        from repro.obs.regress.rundb import RunDB, make_record

        def rec(seed, peak):
            return make_record(
                "partition",
                RunRecord(
                    "terapart", "fem-grid", 4, seed,
                    cut=100, balanced=True, imbalance=0.01,
                    wall_seconds=1.0, modeled_seconds=1.0, peak_bytes=peak,
                ),
                bench="smoke", label="cand", env={},
            )

        capture_baseline(
            [rec(s, 1000) for s in range(3)], "synthetic"
        ).save(tmp_path / "base.json")
        db = RunDB(tmp_path / "runs.jsonl")
        for s in range(3):
            db.append(rec(s, 1100))  # +10% ledger peak: beyond the 2% band
        rc = main(
            [
                "bench", "compare", "--baseline", str(tmp_path / "base.json"),
                "--db", str(tmp_path / "runs.jsonl"), "--label", "cand",
                "--gate", "--trajectory", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "perf gate: FAILED" in out
        assert "regressed" in out

    def test_bench_offers_exactly_three_verbs(self, capsys):
        """One verb records every kind: no `service`, `dist` or `trend`."""
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "{record,baseline,compare}" in capsys.readouterr().out
        for gone in ("service", "dist", "trend"):
            with pytest.raises(SystemExit):
                main(["bench", gone])

    def test_record_unknown_instance_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "bench", "record", "--instances", "no-such-graph",
                    "--db", str(tmp_path / "db.jsonl"),
                ]
            )
