"""Tests for baselines and bootstrap classification (obs/regress/compare)."""

import pytest

from repro.obs.regress.compare import (
    BASELINE_SCHEMA,
    DEFAULT_NEUTRAL_BANDS,
    Baseline,
    CompareThresholds,
    capture_baseline,
    compare,
)
from repro.obs.regress.rundb import KINDS, RUNDB_SCHEMA


def _rec(
    alg="terapart",
    inst="fem-grid",
    k=4,
    seed=0,
    cut=100.0,
    wall=1.0,
    peak=1000.0,
    balanced=True,
    imbalance=0.01,
    obs=None,
):
    return {
        "schema": RUNDB_SCHEMA,
        "kind": "partition",
        "bench": "smoke",
        "label": None,
        "recorded_unix": None,
        "env": {},
        "config": None,
        "run": {
            "algorithm": alg,
            "instance": inst,
            "k": k,
            "seed": seed,
            "cut": cut,
            "balanced": balanced,
            "imbalance": imbalance,
            "wall_seconds": wall,
            "peak_bytes": peak,
            "extra": {},
        },
        "obs": obs,
    }


def _matrix(scale_cut=1.0, scale_wall=1.0, scale_peak=1.0, **kw):
    """3 seeds x 2 instances with mild seed-to-seed spread."""
    recs = []
    for inst, base_cut in (("fem-grid", 100.0), ("web-small", 400.0)):
        for seed, jitter in ((0, 1.0), (1, 1.02), (2, 0.98)):
            recs.append(
                _rec(
                    inst=inst,
                    seed=seed,
                    cut=base_cut * jitter * scale_cut,
                    wall=1.0 * jitter * scale_wall,
                    peak=1000.0 * scale_peak,
                    **kw,
                )
            )
    return recs


THR = CompareThresholds(bootstrap_samples=300)


class TestBaseline:
    def test_capture_groups(self):
        base = capture_baseline(_matrix(), "b", timestamp=1.0)
        assert set(base.groups) == {
            "terapart|fem-grid|4",
            "terapart|web-small|4",
        }
        g = base.groups["terapart|fem-grid|4"]
        assert g["seeds"] == [0, 1, 2]
        assert g["metrics"]["cut"] == [100.0, 102.0, 98.0]
        assert g["balanced"] == [True, True, True]

    def test_save_load_roundtrip(self, tmp_path):
        base = capture_baseline(_matrix(), "b", env={"python": "3"})
        base.save(tmp_path / "b.json")
        loaded = Baseline.load(tmp_path / "b.json")
        assert loaded.name == "b"
        assert loaded.env == {"python": "3"}
        assert loaded.groups == base.groups

    def test_future_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            Baseline.from_dict({"schema": BASELINE_SCHEMA + 1})

    def test_older_schema_rejected(self):
        """Like the run-DB loader: any schema but the current one is
        refused, never reinterpreted."""
        with pytest.raises(ValueError, match="older"):
            Baseline.from_dict({"schema": BASELINE_SCHEMA - 1, "groups": {}})

    def test_non_partition_records_ignored(self):
        recs = _matrix() + [{"kind": "microbench", "run": {"x": 1}}]
        base = capture_baseline(recs, "b")
        assert len(base.groups) == 2


class TestClassification:
    def test_identical_runs_are_neutral(self):
        """Paired seeds: an unchanged tree reads exactly 1 [1, 1], however
        much the seeds differ among themselves."""
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix(), thresholds=THR)
        assert not report.regressed
        assert [v.metric for v in report.verdicts] == ["cut", "peak_bytes"]
        for v in report.verdicts:
            assert v.classification == "neutral", v
            assert (v.ratio, v.ci_low, v.ci_high) == (1.0, 1.0, 1.0)

    def test_regression_flagged(self):
        base = capture_baseline(_matrix(), "b")
        cand = _matrix(scale_peak=1.5)
        report = compare(base, cand, thresholds=THR)
        assert report.regressed_metrics == ["peak_bytes"]
        peak = report.verdict_for("peak_bytes")
        assert peak.ratio == pytest.approx(1.5)
        assert peak.ci_low > 1.02
        assert report.verdict_for("cut").classification == "neutral"

    def test_uniform_three_percent_cut_is_regressed(self):
        """The +-2% band must resolve a +3% shift: the seed-to-seed spread
        is shared by both sides and may not widen the interval."""
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix(scale_cut=1.03), thresholds=THR)
        cut = report.verdict_for("cut")
        assert cut.classification == "regressed"
        assert cut.ci_low == pytest.approx(1.03) == cut.ci_high

    def test_seconds_never_move_the_default_verdict(self):
        """Wall-clock fields ride in the rows but decide nothing."""
        base = capture_baseline(_matrix(), "b")
        same = compare(base, _matrix(), thresholds=THR)
        slow = compare(base, _matrix(scale_wall=3.0), thresholds=THR)
        assert not slow.regressed
        assert [v.to_dict() for v in slow.verdicts] == [
            v.to_dict() for v in same.verdicts
        ]

    def test_undeclared_band_is_an_error(self):
        base = capture_baseline(_matrix(), "b", metrics=("wall_seconds",))
        with pytest.raises(ValueError, match="'wall_seconds' has no declared"):
            compare(base, _matrix(), metrics=("wall_seconds",), thresholds=THR)

    def test_only_seeds_on_both_sides_are_compared(self):
        base = capture_baseline(_matrix(), "b")
        cand = [r for r in _matrix(scale_cut=1.5) if r["run"]["seed"] != 2]
        cand += [r for r in _matrix() if r["run"]["seed"] == 2]
        cand += [_rec(inst="fem-grid", seed=7, cut=10.0)]
        del cand[0]  # fem-grid seed 0 missing from the candidate
        report = compare(base, cand, metrics=("cut",), thresholds=THR)
        cut = report.verdict_for("cut")
        # fem-grid pairs seeds {1, 2}; baseline-only 0 and candidate-only 7
        assert cut.dropped_seeds == 2
        assert cut.per_key["terapart|fem-grid|4"] == pytest.approx(
            (1.5 * 102.0 + 98.0) / (102.0 + 98.0)
        )

    def test_improvement_flagged(self):
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix(scale_peak=0.5), thresholds=THR)
        assert report.verdict_for("peak_bytes").classification == "improved"
        assert not report.regressed

    def test_noise_within_band_is_neutral(self):
        base = capture_baseline(_matrix(), "b")
        # +1% cut sits inside the 2% band
        report = compare(base, _matrix(scale_cut=1.01), thresholds=THR)
        assert report.verdict_for("cut").classification == "neutral"

    def test_bootstrap_deterministic(self):
        base = capture_baseline(_matrix(), "b")
        cand = _matrix(scale_cut=1.3)
        cand[0]["run"]["cut"] *= 0.9  # make the interval non-degenerate
        a = compare(base, cand, thresholds=THR)
        b = compare(base, cand, thresholds=THR)
        assert a.verdict_for("cut").ci_low < a.verdict_for("cut").ci_high
        for va, vb in zip(a.verdicts, b.verdicts):
            assert (va.ci_low, va.ci_high) == (vb.ci_low, vb.ci_high)

    def test_missing_and_extra_keys(self):
        base = capture_baseline(_matrix(), "b")
        cand = [r for r in _matrix() if r["run"]["instance"] == "fem-grid"]
        report = compare(base, cand, thresholds=THR)
        assert report.keys_compared == ["terapart|fem-grid|4"]
        assert report.gate.uncompared == ["terapart|web-small|4"]

    def test_uncovered_baseline_group_fails_the_gate(self):
        """A gate that compared nothing, or only some of the baseline, has
        not passed: every baseline group needs candidate rows."""
        base = capture_baseline(_matrix(), "b")
        stranger = [_rec(alg="no-such-algorithm", seed=s) for s in range(3)]
        nothing = compare(base, stranger, thresholds=THR)
        assert nothing.keys_compared == [] and nothing.verdicts == []
        assert nothing.regressed and not nothing.gate.passed
        assert nothing.gate.uncompared == sorted(base.groups)
        half = [r for r in _matrix() if r["run"]["instance"] == "fem-grid"]
        partial = compare(base, half, thresholds=THR)
        assert not partial.regressed_metrics  # what was compared is neutral
        assert partial.regressed
        assert partial.gate.uncompared == ["terapart|web-small|4"]

    def test_metric_without_a_paired_seed_fails_the_gate(self):
        base = capture_baseline(_matrix(), "b")
        cand = _matrix()
        for r in cand:
            if r["run"]["instance"] == "web-small":
                del r["run"]["peak_bytes"]  # rows that lost a gated metric
                r["run"]["seed"] += 10  # and share no seed with the baseline
        report = compare(base, cand, thresholds=THR)
        assert not set(report.gate.uncompared) & set(base.groups)  # every group had rows
        assert report.regressed and not report.regressed_metrics
        assert report.gate.uncompared == [
            "cut@terapart|web-small|4",
            "peak_bytes@terapart|web-small|4",
        ]
        assert report.verdict_for("cut").n_keys == 1


class TestZeroCuts:
    def test_zero_to_zero_counts_as_ratio_one(self):
        base = capture_baseline([_rec(cut=0.0, seed=s) for s in range(3)], "b")
        cand = [_rec(cut=0.0, seed=s) for s in range(3)]
        report = compare(base, cand, metrics=("cut",), thresholds=THR)
        v = report.verdict_for("cut")
        assert v.classification == "neutral"
        assert v.per_key["terapart|fem-grid|4"] == 1.0

    def test_lost_zero_baseline_forces_regressed(self):
        """A vanished perfect cut can't hide behind the geometric mean."""
        base = capture_baseline([_rec(cut=0.0, seed=s) for s in range(3)], "b")
        cand = [_rec(cut=7.0, seed=s) for s in range(3)]
        report = compare(base, cand, metrics=("cut",), thresholds=THR)
        v = report.verdict_for("cut")
        assert v.classification == "regressed"
        assert v.infinite_pairs == 1

    def test_candidate_reaching_zero_is_counted_dropped(self):
        base = capture_baseline(_matrix(), "b")
        cand = _matrix()
        for r in cand:
            if r["run"]["instance"] == "fem-grid":
                r["run"]["cut"] = 0.0
        report = compare(base, cand, metrics=("cut",), thresholds=THR)
        v = report.verdict_for("cut")
        assert v.dropped_pairs == 1
        assert v.n_keys == 2  # the dropped pair is still surfaced per-key


class TestImbalanceHardGate:
    def test_unbalanced_candidate_fails_gate(self):
        base = capture_baseline(_matrix(), "b")
        cand = _matrix()
        cand[0]["run"]["balanced"] = False
        cand[0]["run"]["imbalance"] = 0.09
        report = compare(base, cand, thresholds=THR)
        assert not report.gate.passed
        assert report.regressed  # even though every metric is neutral
        viol = report.gate.violations[0]
        assert viol["key"] == "terapart|fem-grid|4"
        assert viol["imbalance"] == 0.09

    def test_balanced_candidate_passes_gate(self):
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix(), thresholds=THR)
        assert report.gate.passed


def _service_rec(inst="fem-grid", seed=0, warm_over_full=0.05, p99=0.1,
                 cut_overhead=0.98):
    return {
        "schema": RUNDB_SCHEMA,
        "kind": "service",
        "bench": "service-smoke",
        "label": None,
        "recorded_unix": None,
        "env": {},
        "config": None,
        "run": {
            "algorithm": "serve-terapart",
            "instance": inst,
            "k": 8,
            "seed": seed,
            "requests": 16,
            "wall_seconds": 0.5,
            "p50_seconds": 0.001,
            "p99_seconds": p99,
            "warm_over_full": warm_over_full,
            "cut_overhead": cut_overhead,
        },
        "obs": None,
    }


class TestServiceKind:
    """The kind parameter routes service records through the same
    baseline/compare machinery that gates partition runs."""

    def test_default_kinds_ignore_service_records(self):
        base = capture_baseline(_matrix() + [_service_rec()], "b")
        assert "serve-terapart|fem-grid|8" not in base.groups
        report = compare(base, _matrix() + [_service_rec()], thresholds=THR)
        assert report.keys_compared == sorted(
            {"terapart|fem-grid|4", "terapart|web-small|4"}
        )

    def test_service_baseline_capture(self):
        recs = [_service_rec(inst=i, seed=s)
                for i in ("fem-grid", "web-small") for s in range(2)]
        base = capture_baseline(
            recs, "svc", kind="service",
            metrics=("p99_seconds", "warm_over_full", "cut_overhead"),
        )
        g = base.groups["serve-terapart|fem-grid|8"]
        assert g["seeds"] == [0, 1]
        assert g["metrics"]["warm_over_full"] == [0.05, 0.05]
        # no balanced flag on service records: defaults to balanced
        assert g["balanced"] == [True, True]

    def test_service_regression_detected(self):
        kw = dict(kind="service")
        recs = [_service_rec(inst=i, seed=s)
                for i in ("fem-grid", "web-small") for s in range(2)]
        base = capture_baseline(recs, "svc", **kw)
        # warm starts lose 10% quality: the gate must catch it
        worse = [_service_rec(inst=i, seed=s, cut_overhead=0.98 * 1.1)
                 for i in ("fem-grid", "web-small") for s in range(2)]
        report = compare(base, worse, thresholds=THR, **kw)
        assert report.verdict_for("cut_overhead").classification == (
            "regressed"
        )
        # unchanged quality stays neutral, however the latencies moved
        slow = [_service_rec(inst=i, seed=s, warm_over_full=0.15, p99=0.3)
                for i in ("fem-grid", "web-small") for s in range(2)]
        ok = compare(base, slow, thresholds=THR, **kw)
        assert not ok.regressed
        assert ok.verdict_for("cut_overhead").ci_high == 1.0

    def test_missing_metric_groups_skipped(self):
        """A partition-metrics compare over service records yields no
        verdict rather than a KeyError."""
        recs = [_service_rec(seed=s) for s in range(2)]
        base = capture_baseline(recs, "svc", kind="service",
                                metrics=("p99_seconds",))
        report = compare(base, recs, kind="service", metrics=("cut",),
                         thresholds=THR)
        assert report.verdict_for("cut") is None


class TestGateCommand:
    """``repro bench compare --gate``: what decides the exit code."""

    def _gate(self, tmp_path, candidates, *extra):
        from repro.cli import main
        from repro.obs.regress.rundb import RunDB

        capture_baseline(_matrix(), "b").save(tmp_path / "base.json")
        RunDB(tmp_path / "runs.jsonl").extend(candidates)
        return main(
            [
                "bench", "compare", "--gate",
                "--baseline", str(tmp_path / "base.json"),
                "--db", str(tmp_path / "runs.jsonl"),
                "--trajectory", str(tmp_path / "traj.json"),
                *extra,
            ]
        )

    def test_tripled_wall_passes_the_gate(self, tmp_path, capsys):
        assert self._gate(tmp_path, _matrix(scale_wall=3.0)) == 0
        out = capsys.readouterr().out
        assert "perf gate: passed" in out
        assert "wall_seconds" not in out

    def test_missing_baseline_group_fails_and_is_named(self, tmp_path, capsys):
        half = [r for r in _matrix() if r["run"]["instance"] == "fem-grid"]
        assert self._gate(tmp_path, half) == 1
        out = capsys.readouterr().out
        assert "perf gate: FAILED (not compared: terapart|web-small|4)" in out
        assert "## Coverage" in out

    def test_gating_seconds_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="'wall_seconds' has no declared"):
            self._gate(tmp_path, _matrix(), "--metrics", "wall_seconds")


class TestDeclaredBands:
    """One rule: the observatory classifies deterministic metrics only."""

    def test_every_gated_metric_has_a_band_and_none_is_seconds(self):
        gated = {m for kind in KINDS.values() for m in kind.gated}
        assert gated == set(DEFAULT_NEUTRAL_BANDS)
        assert not [m for m in gated if "seconds" in m or "warm" in m]

    def test_committed_baselines_hold_declared_metrics_only(self):
        """A seconds vector cannot be recommitted: every metric vector in
        benchmarks/baselines/ is band-declared (or the imbalance record of
        the hard gate, which is never ratio-classified)."""
        from pathlib import Path

        allowed = set(DEFAULT_NEUTRAL_BANDS) | {"imbalance"}
        files = sorted(
            (Path(__file__).parent.parent / "benchmarks" / "baselines").glob(
                "*.json"
            )
        )
        assert len(files) >= 3
        for path in files:
            base = Baseline.load(path)
            assert base.groups, path
            for key, group in base.groups.items():
                assert set(group["metrics"]) <= allowed, (path.name, key)
                for vals in group["metrics"].values():
                    assert len(vals) == len(group["seeds"]), (path.name, key)
