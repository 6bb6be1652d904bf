"""Tests for baselines and the exact comparison (obs/regress/compare)."""

import pytest

from repro.obs.regress.compare import (
    BASELINE_SCHEMA,
    Baseline,
    Change,
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
    """Every baseline (group, seed, gated metric) value is reproduced
    exactly or named as a change, whichever way it moved."""

    def test_identical_runs_are_neutral(self):
        """However much the seeds differ among themselves, an unchanged
        tree reproduces every value."""
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix())
        assert report.passed and report.changes == []
        assert report.metrics == ("cut", "peak_bytes")
        assert report.pairs == 2 * 3 * 2  # groups x seeds x metrics

    def test_regression_flagged(self):
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix(scale_peak=1.5))
        assert not report.passed
        assert {c.metric for c in report.changes} == {"peak_bytes"}
        assert len(report.changes) == 6
        assert str(report.changes[0]) == (
            "terapart|fem-grid|4 seed 0 peak_bytes 1000 → 1500"
        )
        assert report.risen_metrics == ["peak_bytes"]

    def test_uniform_three_percent_cut_is_regressed(self):
        """The seed-to-seed spread both sides share hides nothing, and one
        value off by one is enough."""
        base = capture_baseline(_matrix(), "b")
        assert len(compare(base, _matrix(scale_cut=1.03)).changes) == 6
        cand = _matrix()
        cand[2]["run"]["cut"] += 1  # fem-grid seed 2: 98 -> 99
        (change,) = compare(base, cand).changes
        assert change == Change("terapart|fem-grid|4", 2, "cut", 98.0, 99.0)
        assert str(change) == "terapart|fem-grid|4 seed 2 cut 98 → 99"

    def test_seconds_never_move_the_default_verdict(self):
        """Wall-clock fields ride in the rows but decide nothing."""
        base = capture_baseline(_matrix(), "b")
        slow = compare(base, _matrix(scale_wall=3.0))
        assert slow.passed and slow.pairs == 12
        assert "wall_seconds" not in slow.metrics

    def test_only_seeds_on_both_sides_are_compared(self):
        """A candidate-only seed has nothing to equal; a baseline seed the
        candidate did not run is a hole."""
        base = capture_baseline(_matrix(), "b")
        cand = _matrix()[1:]  # fem-grid seed 0 missing from the candidate
        cand += [_rec(inst="fem-grid", seed=7, cut=10.0)]
        report = compare(base, cand)
        assert report.changes == [] and report.pairs == 10
        assert report.gate.uncompared == [
            "cut@terapart|fem-grid|4 seed 0",
            "peak_bytes@terapart|fem-grid|4 seed 0",
        ]
        assert not report.passed

    def test_improvement_flagged(self):
        """A lower value fails too: the baseline no longer reproduces."""
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix(scale_peak=0.5))
        assert not report.passed and len(report.changes) == 6
        assert report.risen_metrics == [] and report.attribution == []

    def test_missing_and_extra_keys(self):
        base = capture_baseline(_matrix(), "b")
        cand = [r for r in _matrix() if r["run"]["instance"] == "fem-grid"]
        report = compare(base, cand)
        assert report.keys_compared == ["terapart|fem-grid|4"]
        assert report.gate.uncompared == ["terapart|web-small|4"]

    def test_uncovered_baseline_group_fails_the_gate(self):
        """A gate that compared nothing, or only some of the baseline, has
        not passed: every baseline group needs candidate rows."""
        base = capture_baseline(_matrix(), "b")
        stranger = [_rec(alg="no-such-algorithm", seed=s) for s in range(3)]
        nothing = compare(base, stranger)
        assert nothing.keys_compared == [] and nothing.pairs == 0
        assert not nothing.passed and not nothing.gate.passed
        assert nothing.gate.uncompared == sorted(base.groups)
        half = [r for r in _matrix() if r["run"]["instance"] == "fem-grid"]
        partial = compare(base, half)
        assert not partial.changes  # what was compared is equal
        assert not partial.passed
        assert partial.gate.uncompared == ["terapart|web-small|4"]

    def test_metric_without_a_paired_seed_fails_the_gate(self):
        base = capture_baseline(_matrix(), "b")
        cand = _matrix()
        for r in cand:
            if r["run"]["instance"] == "web-small":
                del r["run"]["peak_bytes"]  # rows that lost a gated metric
        report = compare(base, cand)
        assert not set(report.gate.uncompared) & set(base.groups)  # every group had rows
        assert not report.passed and not report.changes
        assert report.gate.uncompared == [
            f"peak_bytes@terapart|web-small|4 seed {s}" for s in range(3)
        ]
        assert report.pairs == 9


def _configured(recs, digest):
    for rec in recs:
        rec["config"] = {"name": "terapart", "digest": digest}
    return recs


class TestConfig:
    """A baseline group keeps the digest of the config its rows ran under;
    a candidate that ran under another is named ahead of its values."""

    def test_the_digest_is_captured(self):
        base = capture_baseline(_configured(_matrix(), "a1"), "b")
        assert {g["config"] for g in base.groups.values()} == {"a1"}
        assert {g["config"] for g in capture_baseline(_matrix(), "b").groups.values()} == {None}

    def test_another_config_fails_the_gate_with_its_values(self):
        base = capture_baseline(_configured(_matrix(), "a1"), "b")
        report = compare(base, _configured(_matrix(scale_peak=0.9), "b2"))
        assert [str(c) for c in report.configs] == [
            "terapart|fem-grid|4 config a1 → b2",
            "terapart|web-small|4 config a1 → b2",
        ]
        assert len(report.changes) == 6 and not report.passed
        assert not compare(base, _configured(_matrix(), "b2")).passed

    def test_a_group_of_two_configs_is_refused(self):
        recs = _configured(_matrix(), "a1")
        recs[1]["config"]["digest"] = "b2"
        with pytest.raises(ValueError, match=r"config of terapart\|fem-grid\|4: 'a1', 'b2'"):
            capture_baseline(recs, "b")

    def test_a_baseline_without_configs_is_not_judged_by_them(self):
        base = capture_baseline(_matrix(), "b")
        for group in base.groups.values():
            del group["config"]
        assert compare(base, _configured(_matrix(), "b2")).passed


class TestZeroCuts:
    """0 is a value like any other: no ratio, so no special case."""

    def test_zero_to_zero_counts_as_ratio_one(self):
        """A perfect cut that stays perfect is equal to its baseline."""
        base = capture_baseline([_rec(cut=0.0, seed=s) for s in range(3)], "b")
        same = compare(base, [_rec(cut=0.0, seed=s) for s in range(3)])
        assert same.passed and same.pairs == 6

    def test_lost_zero_baseline_forces_regressed(self):
        """A vanished perfect cut, or a newly perfect one, is a change."""
        base = capture_baseline([_rec(cut=0.0, seed=s) for s in range(3)], "b")
        lost = compare(base, [_rec(cut=7.0, seed=s) for s in range(3)])
        assert [str(c) for c in lost.changes] == [
            f"terapart|fem-grid|4 seed {s} cut 0 → 7" for s in range(3)
        ]
        base = capture_baseline([_rec(cut=7.0, seed=0)], "b")
        (found,) = compare(base, [_rec(cut=0.0, seed=0)]).changes
        assert (found.old, found.new) == (7.0, 0.0)


class TestImbalanceHardGate:
    def test_unbalanced_candidate_fails_gate(self):
        base = capture_baseline(_matrix(), "b")
        cand = _matrix()
        cand[0]["run"]["balanced"] = False
        cand[0]["run"]["imbalance"] = 0.09
        report = compare(base, cand)
        assert not report.gate.passed
        assert not report.passed  # even though every value is equal
        assert not report.changes
        viol = report.gate.violations[0]
        assert viol["key"] == "terapart|fem-grid|4"
        assert viol["imbalance"] == 0.09

    def test_balanced_candidate_passes_gate(self):
        base = capture_baseline(_matrix(), "b")
        report = compare(base, _matrix())
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
        report = compare(base, _matrix() + [_service_rec()])
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
        report = compare(base, worse, **kw)
        assert {c.metric for c in report.changes} == {"cut_overhead"}
        assert len(report.changes) == 4
        # unchanged quality is equal, however the latencies moved
        slow = [_service_rec(inst=i, seed=s, warm_over_full=0.15, p99=0.3)
                for i in ("fem-grid", "web-small") for s in range(2)]
        ok = compare(base, slow, **kw)
        assert ok.passed and ok.pairs == 4

    def test_missing_metric_groups_skipped(self):
        """A baseline captured without a gated metric is a hole in every
        group that lacks it, not a KeyError."""
        recs = [_service_rec(seed=s) for s in range(2)]
        base = capture_baseline(recs, "svc", kind="service",
                                metrics=("p99_seconds",))
        report = compare(base, recs, kind="service")
        assert report.pairs == 0 and not report.passed
        assert report.gate.uncompared == ["cut_overhead@serve-terapart|fem-grid|8"]


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

    def test_changed_value_fails_names_the_pair_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        """The failing gate names the pair and the two commands that
        re-record the file; no file is written that was not asked for."""
        cand = _matrix()
        cand[4]["run"]["cut"] = 409.0  # web-small seed 1: 408 -> 409
        monkeypatch.chdir(tmp_path)
        assert self._gate(tmp_path, cand) == 1
        out = capsys.readouterr().out
        assert "- `terapart|web-small|4 seed 1 cut 408 → 409`" in out
        assert "perf gate: FAILED (1 value(s) differ from the baseline)" in out
        base = tmp_path / "base.json"
        assert (
            "python -m repro bench record --kind partition --suite smoke "
            "--db b-runs.jsonl\n"
        ) in out
        assert f"--name b --out {base}\n" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "base.json", "runs.jsonl"
        ]


class TestDeclaredBands:
    """One rule: the observatory gates deterministic metrics only."""

    def test_no_gated_metric_is_seconds(self):
        gated = [m for kind in KINDS.values() for m in kind.gated]
        assert gated and not [m for m in gated if "seconds" in m or "warm" in m]

    def test_committed_baselines_hold_declared_metrics_only(self):
        """A seconds vector cannot be recommitted: every metric vector in
        benchmarks/baselines/ is a gated metric of some kind (or the
        imbalance record, which the gate reads off the candidate's flag)."""
        from pathlib import Path

        allowed = {m for kind in KINDS.values() for m in kind.gated} | {"imbalance"}
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
