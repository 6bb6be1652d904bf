"""Tests for the benchmark harness (instances, aggregation, profiles)."""

import numpy as np
import pytest

from repro.bench.harness import (
    RunRecord,
    aggregate,
    geometric_mean,
    harmonic_mean,
    relative_to,
    run_matrix,
)
from repro.bench.instances import SEM_GRAPHS, SET_A, SET_B, Instance, load_instance
from repro.bench.profiles import performance_profile, profile_summary
from repro.bench.reporting import render_series, render_table, render_waterfall
from repro.memory.report import fmt_bytes


class TestInstances:
    def test_all_instances_buildable(self):
        for inst in (*SET_A, *SET_B, *SEM_GRAPHS):
            g = inst.make()
            assert g.n > 0 and g.m > 0

    def test_load_instance_cached(self):
        a = load_instance("fem-grid")
        b = load_instance("fem-grid")
        assert a is b

    def test_unknown_instance(self):
        with pytest.raises(KeyError):
            load_instance("nope")

    def test_set_b_graphs_are_weblike(self):
        for inst in SET_B:
            g = inst.make()
            assert g.max_degree > 5 * g.degrees.mean()


class TestMeans:
    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_harmonic_mean(self):
        assert harmonic_mean([1, 1]) == pytest.approx(1.0)
        assert harmonic_mean([2, 6]) == pytest.approx(3.0)
        assert harmonic_mean([]) == 0.0

    def test_zero_values_skipped(self):
        assert geometric_mean([0, 10]) == pytest.approx(10.0)

    def test_dropped_values_are_counted(self):
        """A legal cut == 0 must not vanish silently from the aggregate."""
        g = geometric_mean([0, 10])
        assert g.used == 1 and g.dropped == 1
        h = harmonic_mean([-1.0, 2.0, 6.0])
        assert h == pytest.approx(3.0)
        assert h.used == 2 and h.dropped == 1

    def test_no_drops_means_zero_count(self):
        g = geometric_mean([1.0, 100.0])
        assert g.used == 2 and g.dropped == 0

    def test_all_dropped(self):
        g = geometric_mean([0, -5])
        assert g == 0.0 and g.used == 0 and g.dropped == 2

    def test_annotate_surfaces_drops(self):
        assert "1 non-positive dropped" in geometric_mean([0, 10]).annotate()
        assert "dropped" not in geometric_mean([10.0]).annotate()

    def test_aggregate_stat_behaves_like_float(self):
        g = geometric_mean([1, 100])
        assert g * 2 == pytest.approx(20.0)
        assert isinstance(g + 1, float)


def _rec(alg, inst, k, seed, cut, **kw):
    defaults = dict(
        balanced=True,
        imbalance=0.0,
        wall_seconds=1.0,
        modeled_seconds=1.0,
        peak_bytes=100,
    )
    defaults.update(kw)
    return RunRecord(alg, inst, k, seed, cut, **defaults)


class TestAggregation:
    def test_mean_over_seeds(self):
        records = [
            _rec("a", "g1", 4, 0, 10),
            _rec("a", "g1", 4, 1, 20),
            _rec("a", "g2", 4, 0, 5),
        ]
        agg = aggregate(records, "cut")
        assert agg[("a", "g1", 4)] == 15.0
        assert agg[("a", "g2", 4)] == 5.0

    def test_relative_to_baseline(self):
        agg = {
            ("base", "g1", 4): 10.0,
            ("base", "g2", 4): 100.0,
            ("x", "g1", 4): 20.0,
            ("x", "g2", 4): 50.0,
        }
        rel = relative_to(agg, "base")
        assert rel["base"] == pytest.approx(1.0)
        assert rel["x"] == pytest.approx(1.0)  # geo mean of 2.0 and 0.5

    def test_run_matrix_covers_product(self):
        calls = []

        def runner(cfg, inst, k, seed):
            calls.append((cfg.name, inst.name, k, seed))
            return _rec(cfg.name, inst.name, k, seed, 1)

        from repro.core import config as C

        insts = [SET_A[0], SET_A[1]]
        run_matrix([C.terapart()], insts, [2, 4], [0, 1], runner=runner)
        assert len(calls) == 8

    def _runner(self, cfg, inst, k, seed):
        return _rec(cfg.name, inst.name, k, seed, 1)

    def test_progress_reports_completion_for_any_matrix_size(self, capsys):
        """Matrices not divisible by 10 still get a final summary line."""
        from repro.core import config as C

        run_matrix(
            [C.terapart()],
            [SET_A[0]],
            [2],
            [0, 1, 2],
            runner=self._runner,
            progress=True,
            rundb=False,
        )
        out = capsys.readouterr().out
        assert "[3/3] done in" in out
        assert "s/run" in out

    def test_progress_periodic_plus_final(self, capsys):
        from repro.core import config as C

        run_matrix(
            [C.terapart()],
            [SET_A[0]],
            [2],
            list(range(20)),
            runner=self._runner,
            progress=True,
            rundb=False,
        )
        out = capsys.readouterr().out
        assert "[10/20]" in out
        assert "[20/20] done in" in out
        # the final record is reported by the summary, not a periodic line
        assert out.count("[20/20]") == 1

    def test_run_matrix_appends_to_rundb(self, tmp_path):
        from repro.core import config as C
        from repro.obs.regress.rundb import RunDB

        db = RunDB(tmp_path / "runs.jsonl")
        run_matrix(
            [C.terapart()],
            [SET_A[0]],
            [2, 4],
            [0, 1],
            runner=self._runner,
            rundb=db,
            record_bench="unit",
            record_label="lbl",
        )
        recs = db.load()
        assert len(recs) == 4
        assert {r["bench"] for r in recs} == {"unit"}
        assert {r["label"] for r in recs} == {"lbl"}
        assert {r["run"]["k"] for r in recs} == {2, 4}
        assert all(r["config"]["name"] == "terapart" for r in recs)

    def test_run_matrix_rundb_disabled_by_default(self, monkeypatch, tmp_path):
        from repro.core import config as C

        monkeypatch.delenv("REPRO_RUNDB", raising=False)
        run_matrix([C.terapart()], [SET_A[0]], [2], [0], runner=self._runner)
        # no env var, no explicit db: nothing persisted anywhere

    def test_run_matrix_env_default_rundb(self, monkeypatch, tmp_path):
        from repro.core import config as C

        monkeypatch.setenv("REPRO_RUNDB", str(tmp_path / "envdb.jsonl"))
        run_matrix([C.terapart()], [SET_A[0]], [2], [0], runner=self._runner)
        from repro.obs.regress.rundb import RunDB

        assert len(RunDB(tmp_path / "envdb.jsonl").load()) == 1


class TestPerformanceProfiles:
    def test_best_algorithm_fraction(self):
        cuts = {
            "a": {"g1": 10.0, "g2": 10.0},
            "b": {"g1": 20.0, "g2": 5.0},
        }
        taus, profiles = performance_profile(cuts)
        assert profiles["a"][0] == pytest.approx(0.5)
        assert profiles["b"][0] == pytest.approx(0.5)
        # at tau=2 both cover everything
        assert profiles["a"][-1] == pytest.approx(1.0)
        assert profiles["b"][-1] == pytest.approx(1.0)

    def test_missing_instances_never_covered(self):
        cuts = {"a": {"g1": 10.0, "g2": 10.0}, "b": {"g1": 10.0}}
        taus, profiles = performance_profile(cuts)
        assert profiles["b"][-1] == pytest.approx(0.5)

    def test_zero_cuts_handled(self):
        cuts = {"a": {"g1": 0.0}, "b": {"g1": 5.0}}
        taus, profiles = performance_profile(cuts)
        assert profiles["a"][0] == pytest.approx(1.0)

    def test_summary_fields(self):
        cuts = {"a": {"g1": 10.0}, "b": {"g1": 10.5}}
        taus, profiles = performance_profile(cuts)
        s = profile_summary(taus, profiles)
        assert s["a"]["best"] == 1.0
        assert s["b"]["within_1.05"] == 1.0
        assert 0 < s["b"]["auc"] <= 1.0


class TestReporting:
    def test_render_table(self):
        out = render_table(["a", "bb"], [(1, 2.5), (3, 4.0)], title="t")
        assert "t" in out and "bb" in out and "2.50" in out

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2048) == "2.00 KiB"
        assert "GiB" in fmt_bytes(3 * 1024**3)

    def test_render_series(self):
        out = render_series("s", [1, 2], [0.5, 1.5])
        assert "1: 0.50" in out

    def test_render_waterfall(self):
        out = render_waterfall([("a", 100.0), ("b", 50.0)])
        lines = out.splitlines()
        assert lines[0].count("#") > lines[1].count("#")
        assert render_waterfall([]) == "(empty)"
