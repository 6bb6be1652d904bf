"""Tests for workload traces and the service benchmark record path."""

import numpy as np

from repro.core import config as C
from repro.core.config import ServeConfig
from repro.graph import generators as gen
from repro.serve import ServiceHandle, make_trace, replay


class TestMakeTrace:
    def test_deterministic(self):
        g = gen.weblike(200, avg_degree=8, seed=1)
        t1 = make_trace("g", g, 4, seed=7)
        t2 = make_trace("g", g, 4, seed=7)
        assert len(t1) == len(t2)
        for a, b in zip(t1, t2):
            assert a.kind == b.kind and a.concurrency == b.concurrency
            if a.delta is not None:
                assert np.array_equal(a.delta.add_edges, b.delta.add_edges)

    def test_shape(self):
        g = gen.weblike(200, avg_degree=8, seed=1)
        trace = make_trace("g", g, 4, repeat_burst=3, delta_batches=2)
        kinds = [e.kind for e in trace]
        assert kinds.count("delta") == 2
        # the cold concurrent burst leads; repeats precede the first delta
        assert kinds[0] == "request" and trace[0].concurrency > 1
        assert trace[1].kind == "request" and trace[1].concurrency == 1


class TestReplay:
    def test_report_covers_all_modes(self):
        g = gen.weblike(250, avg_degree=8, seed=2)
        trace = make_trace("g", g, 4, seed=0, repeat_burst=2,
                           delta_batches=2, concurrency=3)
        with ServiceHandle(C.terapart(), ServeConfig()) as h:
            h.register_graph("g", g)
            report = replay(h, trace)
        run = report.to_run_dict()
        assert run["requests"] == report.requests > 0
        assert run["full_runs"] == 1
        assert run["warm_runs"] == 2
        assert run["cache_hits"] >= 1
        assert run["batched"] >= 1
        assert 0.0 < run["warm_over_full"] < 1.0
        assert run["p99_seconds"] >= run["p50_seconds"] >= 0.0
        assert 0.0 < run["cache_hit_rate"] < 1.0


class TestServiceBenchRecords:
    def test_bench_one_record_fields(self, tmp_path):
        from functools import partial

        from repro.bench.harness import run_matrix
        from repro.bench.instances import Instance
        from repro.bench.service import bench_one
        from repro.obs.regress.rundb import KINDS, RunDB

        inst = Instance("tiny-grid", "grid2d", (12, 12))
        db = RunDB(tmp_path / "runs.jsonl")
        run_matrix(
            [C.terapart()], (inst,), (4,), (0,), kind="service", rundb=db,
            record_bench="service-test",
            runner=partial(
                bench_one, trace_kwargs={"repeat_burst": 2, "delta_batches": 1}
            ),
        )
        recs = db.load()
        assert len(recs) == 1
        rec = recs[0]
        assert rec["kind"] == "service" and rec["bench"] == "service-test"
        assert rec["run"]["algorithm"] == "serve-terapart"
        assert rec["config"]["name"] == "terapart"
        for m in KINDS["service"].gated:
            assert m in rec["run"]
        assert rec["run"]["cut_overhead"] > 0
        counters = rec["obs"]["counters"]
        assert counters["serve.requests"] > 0
        # the churn path's own cost reaches the record: time spent applying
        # deltas and how many vertices seeded the warm starts (of 144 each)
        assert counters["serve.delta_seconds"] > 0
        assert 0 < counters["serve.warm_seed_vertices"] < counters[
            "serve.warm_runs"
        ] * 144 // 4
        # appended to the DB and queryable by kind
        assert len(db.query(kind="service")) == 1
