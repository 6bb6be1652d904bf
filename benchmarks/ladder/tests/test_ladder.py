"""Self-test of the ladder benchmark.

    python -m pytest benchmarks/ladder/tests -q

Not part of tier-1 (``testpaths = ["tests"]``): it checks the instrument,
not the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LADDER = Path(__file__).resolve().parents[1]
ROOT = LADDER.parents[1]
sys.path[:0] = [str(LADDER), str(ROOT / "src")]

import boundaries  # noqa: E402
import check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_DB = ROOT / "BENCH_runs.jsonl"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def names(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]


def run_ladder(*argv: str) -> tuple[dict, str]:
    """Run ``run.py`` with the run-DB hook of benchmarks/conftest.py set,
    as it is whenever pytest collected that conftest."""
    env = {**os.environ, "REPRO_RUNDB": str(RUN_DB)}
    proc = subprocess.run(
        [sys.executable, str(LADDER / "run.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder") / "doc.json"
    before = hashlib.sha256(RUN_DB.read_bytes()).hexdigest()
    result, stdout = run_ladder("--quick", "--out", str(out), "--trace-out", str(out.parent))
    after = hashlib.sha256(RUN_DB.read_bytes()).hexdigest()
    return {
        "result": result,
        "stdout": stdout,
        "doc": json.loads(out.read_text()),
        "dir": out.parent,
        "rundb_untouched": before == after,
    }


# --------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------- #
def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/ladder"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(set(every)) == len(every)
    assert all(NAME.fullmatch(n) for n in every)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_declares_every_boundary_and_microbench():
    import micro

    declared = set(names("per_layer"))
    for b in boundaries.BOUNDARY_NAMES:
        assert {f"{b}.calls", f"{b}.self_s"} <= declared
    assert set(micro.MICRO_NAMES) <= declared


# --------------------------------------------------------------------- #
# a --quick run end to end
# --------------------------------------------------------------------- #
def test_quick_run_emits_exactly_the_declared_metrics(quick):
    docs = quick["doc"]["workloads"]
    assert list(docs) == names("workloads")
    for name, doc in docs.items():
        assert set(doc["end_to_end"]) == set(names("end_to_end")) | {"fail_ratio"}, name
        assert set(doc["per_layer"]["metrics"]) == set(names("per_layer")), name
        assert doc["failed"] == 0 and doc["attempted"] >= 2, name
        assert all(v["value"] > 0 for k, v in doc["end_to_end"].items() if k != "fail_ratio")
    for metric in names("end_to_end") + names("per_layer"):
        assert re.search(rf"^\S+  {re.escape(metric)} ", quick["stdout"], re.M), metric


def test_quick_run_result_line(quick):
    result = quick["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # --trace 1 (the default): every per-layer metric, as a number
    one, _ = run_ladder("--quick", "--workload", "kmer-kaminpar")
    assert list(one["metrics"]) == names("per_layer")
    assert all(isinstance(v["value"], (int, float)) for v in one["metrics"].values())
    assert one["metrics"]["graph.decode_chunk.calls"]["value"] == 0  # raw CSR input
    zero, _ = run_ladder("--quick", "--workload", "small-k64", "--trace", "0", "--seed", "7")
    assert list(zero["metrics"]) == names("end_to_end")
    assert all(v["value"] > 0 for v in zero["metrics"].values())


def test_quick_run_layers_match_their_workload(quick):
    layer = {n: d["per_layer"]["metrics"] for n, d in quick["doc"]["workloads"].items()}
    assert layer["web-terapart"]["graph.decode_chunk.calls"] > 0
    assert layer["mesh-fm"]["refinement.fm_refine.calls"] > 0
    assert layer["web-terapart"]["refinement.fm_refine.calls"] == 0
    assert layer["dist-x4"]["dist.alltoallv.calls"] > 0
    assert layer["web-terapart"]["dist.alltoallv.calls"] == 0
    assert layer["serve-churn"]["serve.cache_hits"] > 0
    assert layer["serve-churn"]["core.refine_partition.calls"] == layer["serve-churn"]["serve.warm_runs"]
    for name, m in layer.items():
        assert m["trace.coverage"] > 0.5, name
        home = [k for k in m if "_ns_per_" in k and m[k]]
        assert bool(home) == (name != "serve-churn"), name
    assert (quick["dir"] / "web-terapart.trace.json").exists()


def test_quick_run_leaves_the_run_db_alone(quick):
    assert quick["rundb_untouched"]


def test_pinned_input_mismatch_is_fatal(tmp_path):
    pins = json.loads((LADDER / "pinned_inputs.json").read_text())
    assert set(pins["workloads"]) == set(names("workloads"))
    sys.path.insert(0, str(LADDER))
    import child

    with pytest.raises(SystemExit, match="pinned input changed"):
        child.check_pins("web-terapart", True, 1, {"web": "0" * 64})


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
def test_self_time_of_nested_spans():
    outer = boundaries.Span("outer", 0.0, None, 1, end=10.0)
    mid = boundaries.Span("mid", 1.0, outer, 1, end=7.0)
    leaf_a = boundaries.Span("leaf", 2.0, mid, 1, end=3.0)
    leaf_b = boundaries.Span("leaf", 4.0, mid, 1, end=6.5)
    other_thread = boundaries.Span("leaf", 8.0, outer, 2, end=9.0)
    stats = boundaries.self_times([outer, mid, leaf_a, leaf_b, other_thread])
    assert stats["outer"] == (1, pytest.approx(10.0 - 6.0 - 1.0))
    assert stats["mid"] == (1, pytest.approx(6.0 - 1.0 - 2.5))
    assert stats["leaf"] == (3, pytest.approx(1.0 + 2.5 + 1.0))
    assert sum(s for _, s in stats.values()) == pytest.approx(outer.duration)


def test_recorder_parents_worker_spans_to_the_driver():
    import threading

    rec = boundaries.SpanRecorder()
    request = rec.begin("request")
    seen = []

    def worker():
        span = rec.begin("work")
        seen.append(span)
        rec.end(span)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.end(request)
    assert seen[0].parent is request and request.parent is None


def test_shims_install_everywhere_and_restore_by_identity():
    import repro
    import repro.core.partitioner as partitioner
    import repro.serve.service as service
    from repro.graph.compressed import CompressedGraph

    original = partitioner.partition
    method = CompressedGraph.__dict__["decode_chunk"]
    installed = boundaries.install(boundaries.SpanRecorder())
    try:
        assert installed.missing == []
        assert partitioner.partition is not original
        # re-exports and aliases hold the same object, so they are patched too
        assert repro.partition is partitioner.partition
        assert service._default_partition is partitioner.partition
        assert CompressedGraph.__dict__["decode_chunk"] is not method
    finally:
        boundaries.uninstall(installed)
    assert partitioner.partition is original and repro.partition is original
    assert service._default_partition is original
    assert CompressedGraph.__dict__["decode_chunk"] is method


def test_vanished_boundary_is_reported_not_raised():
    gone = (("graph.no_such_thing", "repro.graph.access", "no_such_thing"),
            ("nowhere.f", "repro.no_such_module", "f"))
    installed = boundaries.install(boundaries.SpanRecorder(), gone)
    boundaries.uninstall(installed)
    assert installed.missing == ["graph.no_such_thing", "nowhere.f"]


# --------------------------------------------------------------------- #
# the independent checker
# --------------------------------------------------------------------- #
def ring(n: int) -> check.RawGraph:
    """A weighted cycle: vertex i -- i+1 with weight 2."""
    nbrs = np.stack([(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], axis=1)
    return check.RawGraph(
        indptr=np.arange(0, 2 * n + 1, 2, dtype=np.int64),
        indices=nbrs.ravel().astype(np.int32),
        weights=np.full(2 * n, 2, dtype=np.int64),
    )


def test_checker_accepts_a_correct_answer_and_rejects_four_wrong_ones():
    raw = ring(12)
    good = np.repeat(np.arange(4, dtype=np.int32), 3)  # 4 arcs of 3 vertices
    assert check.check_answer(raw, 4, good, 8) == check.Verdict(True, 8)
    assert not check.check_answer(raw, 4, good[:-1], 8).ok  # wrong length
    out_of_range = good.copy()
    out_of_range[0] = 4
    assert not check.check_answer(raw, 4, out_of_range, 8).ok
    overweight = np.array([0] * 4 + [1] * 3 + [2] * 3 + [3] * 2, dtype=np.int32)
    assert "block weight" in check.check_answer(raw, 4, overweight, 8).reason
    wrong = check.check_answer(raw, 4, good, 7)
    assert not wrong.ok and wrong.cut == 8 and "reported cut" in wrong.reason
