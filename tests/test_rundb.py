"""Tests for the regression observatory's run database (obs/regress/rundb)."""

import json

import pytest

from repro.bench.harness import RunRecord
from repro.core import config as C
from repro.core.config import config_digest
from repro.obs.regress.rundb import (
    KINDS,
    RUNDB_SCHEMA,
    Measurement,
    RunDB,
    config_stamp,
    default_rundb,
    environment_stamp,
    latest_per_key,
    make_record,
    migrate_record,
    run_key,
)


def _rr(seed=0, cut=100, wall=1.0, peak=1000, obs=None, **kw):
    extra = {"num_levels": 3}
    if obs is not None:
        extra["obs"] = obs
    defaults = dict(
        algorithm="terapart",
        instance="fem-grid",
        k=4,
        seed=seed,
        cut=cut,
        balanced=True,
        imbalance=0.01,
        wall_seconds=wall,
        modeled_seconds=wall * 0.9,
        peak_bytes=peak,
        extra=extra,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestRecordBuilders:
    def test_make_record_shape(self):
        rec = make_record(
            "partition",
            _rr(obs={"phases": []}),
            bench="smoke",
            label="base",
            config=C.terapart(),
            env={"python": "x"},
            timestamp=123.0,
        )
        assert rec["schema"] == RUNDB_SCHEMA
        assert rec["kind"] == "partition"
        assert rec["bench"] == "smoke"
        assert rec["label"] == "base"
        assert rec["recorded_unix"] == 123.0
        assert rec["run"]["cut"] == 100 and rec["run"]["seed"] == 0
        # wall is recorded; the shape-only parallel model is not
        assert rec["run"]["wall_seconds"] == 1.0
        assert "modeled_seconds" not in rec["run"]
        # obs moves out of extra into its own section
        assert rec["obs"] == {"phases": []}
        assert rec["run"]["extra"] == {"num_levels": 3}
        assert rec["config"]["name"] == "terapart"

    def test_builder_refuses_what_the_table_does_not_hold(self):
        """One builder, fed by the kinds table: no row of an unknown kind
        (the retired ``microbench`` included), none without the metrics
        its kind gates."""
        with pytest.raises(KeyError):
            make_record("microbench", _rr(), bench="decode_hotpath", env={})
        bare = Measurement("serve-terapart", "fem-grid", 8, 0, {"requests": 1})
        with pytest.raises(ValueError, match="cut_overhead"):
            make_record("service", bare, bench="service-smoke", env={})


def _service_metrics(**overrides):
    m = {
        "requests": 16,
        "wall_seconds": 0.5,
        "p50_seconds": 0.001,
        "p99_seconds": 0.12,
        "cache_hit_rate": 0.69,
        "warm_over_full": 0.05,
        "cut_overhead": 0.98,
        "full_runs": 1,
        "warm_runs": 4,
    }
    m.update(overrides)
    return m


class TestServiceRecords:
    def test_make_service_record_shape(self):
        rec = make_record(
            "service",
            Measurement(
                "serve-terapart", "fem-grid", 8, 0, _service_metrics(),
                {"counters": {"serve.requests": 16}},
            ),
            bench="service-smoke",
            label="pr7",
            config=C.terapart(),
            env={},
            timestamp=9.0,
        )
        assert rec["schema"] == RUNDB_SCHEMA
        assert rec["kind"] == "service"
        assert rec["bench"] == "service-smoke"
        # same comparable identity as a partition record...
        assert run_key(rec) == ("serve-terapart", "fem-grid", 8, 0)
        # ...with the flat service metrics in the run section
        assert rec["run"]["warm_over_full"] == 0.05
        assert rec["run"]["p99_seconds"] == 0.12
        assert rec["obs"]["counters"]["serve.requests"] == 16
        assert rec["config"]["name"] == "terapart"

    def test_gated_metrics_all_present(self):
        rec = make_record(
            "service", Measurement("a", "i", 2, 0, _service_metrics()),
            bench="s", env={},
        )
        for m in KINDS["service"].gated:
            assert m in rec["run"]

    def test_db_roundtrip_and_kind_query(self, tmp_path):
        db = RunDB(tmp_path / "runs.jsonl")
        db.append(make_record("partition", _rr(), bench="smoke", env={}))
        db.append(
            make_record(
                "service",
                Measurement(
                    "serve-terapart", "fem-grid", 8, 0, _service_metrics()
                ),
                bench="service-smoke",
                env={},
            )
        )
        loaded = db.load()
        assert [r["kind"] for r in loaded] == ["partition", "service"]
        svc = db.query(kind="service")
        assert len(svc) == 1
        assert svc[0]["run"]["cut_overhead"] == 0.98
        assert [r for r in svc if r["run"]["algorithm"] == "serve-terapart"]
        assert not [r for r in svc if r["run"]["k"] == 4]


def _dist_metrics(**overrides):
    m = {
        "cut": 278,
        "balanced": True,
        "imbalance": 0.01,
        "wall_seconds": 0.3,
        "ranks": 4,
        "max_rank_peak_bytes": 76410,
        "memory_ratio": 1.014,
        "ghost_fraction": 0.058,
        "comm_raw_bytes": 16220,
        "comm_varint_bytes": 2890,
        "comm_messages": 402,
    }
    m.update(overrides)
    return m


class TestDistRecords:
    def test_make_dist_record_shape(self):
        rec = make_record(
            "dist",
            Measurement(
                "xterapart-r4", "fem-grid", 8, 0, _dist_metrics(),
                {"schema": 1, "report": {"memory_ratio": 1.014}},
            ),
            bench="dist-smoke",
            label="pr9",
            env={},
            timestamp=9.0,
        )
        assert rec["schema"] == RUNDB_SCHEMA
        assert rec["kind"] == "dist"
        assert rec["bench"] == "dist-smoke"
        # same comparable identity as a partition record...
        assert run_key(rec) == ("xterapart-r4", "fem-grid", 8, 0)
        # ...with the flat cluster metrics in the run section
        assert rec["run"]["memory_ratio"] == 1.014
        assert rec["run"]["comm_varint_bytes"] == 2890
        assert rec["obs"]["report"]["memory_ratio"] == 1.014

    def test_gated_metrics_all_present(self):
        rec = make_record(
            "dist", Measurement("a", "i", 2, 0, _dist_metrics()),
            bench="d", env={},
        )
        for m in KINDS["dist"].gated:
            assert m in rec["run"]

    def test_db_roundtrip_and_kind_query(self, tmp_path):
        db = RunDB(tmp_path / "runs.jsonl")
        db.append(make_record("partition", _rr(), bench="smoke", env={}))
        db.append(
            make_record(
                "dist",
                Measurement(
                    "xterapart-r4", "fem-grid", 8, 0, _dist_metrics()
                ),
                bench="dist-smoke",
                env={},
            )
        )
        loaded = db.load()
        assert [r["kind"] for r in loaded] == ["partition", "dist"]
        dist = db.query(kind="dist")
        assert len(dist) == 1
        assert dist[0]["run"]["max_rank_peak_bytes"] == 76410
        assert [r for r in dist if r["run"]["algorithm"] == "xterapart-r4"]
        assert not [r for r in dist if r["run"]["k"] == 4]


class TestConfigStamp:
    def test_digest_is_seed_independent(self):
        a = C.terapart(seed=0)
        b = C.terapart(seed=99)
        assert config_digest(a) == config_digest(b)

    def test_digest_changes_with_knobs(self):
        a = C.terapart()
        b = C.terapart().with_(compress_input=False)
        c = C.terapart_fm()
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_digest_ignores_debug_and_obs(self):
        """Only result-affecting knobs are hashed: tracing and validation
        must not fork the service cache key or the run-DB group."""
        base = C.terapart_fm()
        same = [
            base.with_(obs=C.ObsConfig(enabled=True)),
            base.with_(debug=C.DebugConfig(validation_level=2)),
            base.with_(
                obs=C.ObsConfig(enabled=True, track_scratch=True),
                debug=C.DebugConfig(detect_conflicts=True, schedule_policy="random"),
            ),
        ]
        assert {config_digest(c) for c in same} == {config_digest(base)}
        different = [
            base.with_(epsilon=0.05),
            base.with_(coarsening=C.CoarseningConfig(lp_rounds=3)),
            base.with_(fm=C.FMConfig(max_rounds=1)),
        ]
        digests = {config_digest(c) for c in different}
        assert len(digests) == 3 and config_digest(base) not in digests

    def test_digest_is_computed_once_per_config(self):
        """The service keys every request by the digest: equal configs get
        the one memoized answer, a new epsilon still forks it, and what the
        run DB records is what the unmemoized hash says."""
        from repro.obs.regress.rundb import config_stamp

        base = C.terapart_fm()
        assert config_digest(base) is config_digest(C.terapart_fm())
        widened = base.with_(epsilon=0.07)
        assert config_digest(widened) != config_digest(base)
        assert config_digest(widened) == config_digest(base.with_(epsilon=0.07))
        for cfg in (base, widened, *[f() for f in C.PRESETS.values()]):
            assert config_stamp(cfg)["digest"] == config_digest.__wrapped__(cfg)

    def test_knob_surface_is_pinned(self):
        """Adding, removing or re-defaulting a hashed knob forks every
        service cache key and run-DB group: make that a deliberate diff."""
        import dataclasses

        def leaves(cls):
            return sum(
                leaves(f.default_factory)
                if dataclasses.is_dataclass(f.default_factory)
                else 1
                for f in dataclasses.fields(cls)
            )

        assert leaves(C.PartitionerConfig) == 26
        assert {n: config_digest(f()) for n, f in C.PRESETS.items()} == {
            "kaminpar": "62c73d3106edfed9",
            "kaminpar+2lp": "70349b6354d99d24",
            "kaminpar+2lp+compress": "97c4e40d37f0226b",
            "terapart": "713345b4a79787d9",
            "terapart-fm": "fe80c0f59b78cdb6",
            "terapart-fm-full": "ff528890a77f8439",
            "terapart-fm-none": "5cc63a8d0a4dbe98",
            "terapart-deep": "9c5ccc73ad8d23eb",
        }

    def test_stamp_has_name_and_digest(self):
        st = config_stamp(C.terapart())
        assert st["name"] == "terapart"
        assert len(st["digest"]) == 16


class TestEnvironmentStamp:
    def test_stamp_fields(self):
        env = environment_stamp()
        assert set(env) >= {"git_sha", "python", "numpy", "platform"}
        assert env["python"].count(".") >= 1


class TestRunDB:
    def test_append_load_roundtrip(self, tmp_path):
        db = RunDB(tmp_path / "runs.jsonl")
        db.append(make_record("partition", _rr(seed=0), bench="smoke", env={}))
        db.append(make_record("partition", _rr(seed=1), bench="smoke", env={}))
        recs = db.load()
        assert [r["run"]["seed"] for r in recs] == [0, 1]

    def test_append_only_one_line_per_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        db = RunDB(path)
        db.append(make_record("partition", _rr(), bench="smoke", env={}))
        first = path.read_text()
        db.append(make_record("partition", _rr(seed=1), bench="smoke", env={}))
        # history is never rewritten: the first line is byte-identical
        assert path.read_text().startswith(first)
        assert path.read_text().count("\n") == 2

    def test_load_missing_file(self, tmp_path):
        assert RunDB(tmp_path / "nope.jsonl").load() == []

    def test_truncated_last_line_names_file_and_line(self, tmp_path):
        """A crash mid-append leaves half a record: say where, as the
        ValueError every other loader raises on a corrupt file."""
        path = tmp_path / "runs.jsonl"
        db = RunDB(path)
        db.append(make_record("partition", _rr(), bench="smoke", env={}))
        whole = path.read_text()
        path.write_text(whole + whole[: len(whole) // 2])
        with pytest.raises(ValueError, match=r"runs\.jsonl:2"):
            db.load()

    def test_query_filters(self, tmp_path):
        db = RunDB(tmp_path / "runs.jsonl")
        db.append(
            make_record("partition", _rr(), bench="smoke", label="a", env={})
        )
        db.append(
            make_record(
                "partition", _rr(instance="web-small"), bench="smoke",
                label="b", env={},
            )
        )
        # a row of a kind nobody writes any more is still data
        db.append({"schema": RUNDB_SCHEMA, "kind": "microbench", "run": {"x": 1}})
        assert len(db.query(kind="partition")) == 2
        assert len(db.query(kind="microbench")) == 1
        assert len(db.query(label="a")) == 1
        assert len(db.query(kind="partition", label="b")) == 1
        runs = [r["run"] for r in db.load() if r["kind"] == "partition"]
        assert [r["instance"] for r in runs if r["instance"] == "web-small"]
        assert len([r for r in runs if r["algorithm"] == "terapart" and r["k"] == 4]) == 2
        assert not [r for r in runs if r["k"] == 8]

    def test_latest_per_key(self, tmp_path):
        db = RunDB(tmp_path / "runs.jsonl")
        db.append(make_record("partition", _rr(cut=100), bench="s", env={}))
        db.append(make_record("partition", _rr(cut=90), bench="s", env={}))
        latest = latest_per_key(db.load(), run_key)
        assert len(latest) == 1
        assert latest[0]["run"]["cut"] == 90


class TestMigration:
    def test_current_schema_fills_defaults(self):
        rec = migrate_record({"schema": RUNDB_SCHEMA, "run": {"cut": 5}})
        assert rec["kind"] == "partition"
        assert rec["label"] is None
        assert rec["obs"] is None

    def test_future_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            migrate_record({"schema": RUNDB_SCHEMA + 1})

    @pytest.mark.parametrize(
        "old",
        [
            {"schema": 3, "kind": "service", "run": {"cut": 2}},
            {"schema": 2, "kind": "partition", "run": {"cut": 1}},
            {"csr_ns_per_edge": 9.8},  # unversioned flat record (schema 0)
        ],
        ids=["v3", "v2", "v0"],
    )
    def test_older_schema_rejected(self, old, tmp_path):
        """The migration chain is gone: older rows are refused, on the
        record and when met in a file, never reinterpreted."""
        with pytest.raises(ValueError, match="older"):
            migrate_record(old)
        path = tmp_path / "runs.jsonl"
        current = {"schema": RUNDB_SCHEMA, "run": {"cut": 5}}
        path.write_text(json.dumps(current) + "\n" + json.dumps(old) + "\n")
        with pytest.raises(ValueError, match="older"):
            RunDB(path).load()

    def test_committed_run_db_is_current_schema(self):
        from pathlib import Path

        recs = RunDB(Path(__file__).parent.parent / "BENCH_runs.jsonl").load()
        assert len(recs) >= 18
        assert {r["kind"] for r in recs} >= {"partition", "service", "microbench"}


class TestDefaultRunDB:
    def test_unset_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNDB", raising=False)
        assert default_rundb() is None

    def test_env_points_at_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNDB", str(tmp_path / "db.jsonl"))
        db = default_rundb()
        assert db is not None and db.path == tmp_path / "db.jsonl"
