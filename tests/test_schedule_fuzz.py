"""Schedule-fuzzed race detection and differential equivalence tests.

The acceptance bar from the verify-layer issue:

* the conflict detector reports **zero** conflicts for two-phase LP and
  one-pass contraction across 16 seeded schedules at p in {2, 4, 8};
* a deliberately injected race (cluster-weight updates with the CAS loop
  disabled) is caught under at least one fuzzed schedule;
* the paper's equivalence claims (two-phase LP == classic LP, one-pass ==
  buffered contraction, sparse == full gain table) hold under every fuzzed
  schedule, not just the default issue order.
"""

import numpy as np
import pytest

import oracles
from repro.cli import main
from repro.core.coarsening.contraction import contract_buffered
from repro.core.coarsening.lp_clustering import label_propagation_clustering
from repro.core.coarsening.one_pass_contraction import contract_one_pass
from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import (
    FullGainTable,
    NoGainTable,
    SparseGainTable,
)
from repro.graph import generators as gen
from repro.graph.io import write_binary
from repro.verify.fuzz import (
    _make_ctx,
    canonical_coarse_form,
    fuzz_clustering,
    fuzz_contraction,
    summarize,
)

DIFF_SEEDS = range(8)
DIFF_PS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def graph():
    return gen.rgg2d(350, avg_degree=8, seed=4)


@pytest.fixture(scope="module")
def web():
    return gen.weblike(300, avg_degree=6, seed=4)


def _lp(graph, *, two_phase, p, seed, policy="random"):
    ctx, det = _make_ctx(
        graph, p=p, policy=policy, seed=seed, chunk_size=32, two_phase=two_phase
    )
    res = label_propagation_clustering(
        graph, ctx, max(1, graph.total_vertex_weight // 8)
    )
    assert det.clean, det.summary()
    return res


# --------------------------------------------------------------------- #
# acceptance criteria
# --------------------------------------------------------------------- #
class TestAcceptance:
    def test_two_phase_lp_clean_across_16_schedules(self, graph):
        cases = fuzz_clustering(
            graph, policies=("random",), seeds=range(16), ps=(2, 4, 8)
        )
        assert len(cases) == 48
        assert all(c.clean for c in cases), summarize(cases)

    def test_one_pass_contraction_clean_across_16_schedules(self, graph):
        cases = fuzz_contraction(
            graph, policies=("random",), seeds=range(16), ps=(2, 4, 8)
        )
        assert len(cases) == 48
        assert all(c.clean for c in cases), summarize(cases)

    def test_adversarial_policies_also_clean(self, web):
        cases = fuzz_clustering(
            web,
            policies=("issue", "reversed", "heavy-first"),
            seeds=(0,),
            ps=(4,),
        ) + fuzz_contraction(
            web,
            policies=("issue", "reversed", "heavy-first"),
            seeds=(0,),
            ps=(4,),
        )
        assert all(c.clean for c in cases), summarize(cases)

    def test_injected_race_is_caught(self, graph):
        cases = fuzz_clustering(
            graph,
            policies=("random", "reversed"),
            seeds=range(2),
            ps=(2, 4),
            inject_race=True,
        )
        dirty = [c for c in cases if not c.clean]
        assert dirty, "CAS-disabled cluster-weight updates went undetected"
        conflicts = [c for case in dirty for c in case.conflicts]
        assert any(c.array == "cluster-weights" for c in conflicts)
        assert {c.kind for c in conflicts} <= {"write-write", "read-write"}
        # the report names the owning phase and the contended index
        sample = next(c for c in conflicts if c.array == "cluster-weights")
        assert "clustering" in sample.phase
        assert len(sample.tids) == 2 and sample.tids[0] != sample.tids[1]

    def test_clean_run_with_cas_reports_no_race(self, graph):
        # same matrix as the injection test, CAS enabled: zero conflicts
        cases = fuzz_clustering(
            graph, policies=("random", "reversed"), seeds=range(2), ps=(2, 4)
        )
        assert all(c.clean for c in cases), summarize(cases)


# --------------------------------------------------------------------- #
# differential equivalence under fuzzed schedules (satellite 2)
# --------------------------------------------------------------------- #
class TestTwoPhaseLPEquivalence:
    @pytest.mark.parametrize("p", DIFF_PS)
    def test_identical_clusters_across_seeds(self, graph, p):
        for seed in DIFF_SEEDS:
            a = _lp(graph, two_phase=True, p=p, seed=seed)
            b = _lp(graph, two_phase=False, p=p, seed=seed)
            assert np.array_equal(a.clusters, b.clusters), (
                f"two-phase and classic LP diverge at p={p}, seed={seed}"
            )
            assert np.array_equal(a.cluster_weights, b.cluster_weights)

    def test_equivalence_on_skewed_degrees(self, web):
        # weblike graphs actually exercise the bump path of two-phase LP
        for seed in DIFF_SEEDS:
            a = _lp(web, two_phase=True, p=4, seed=seed)
            b = _lp(web, two_phase=False, p=4, seed=seed)
            assert np.array_equal(a.clusters, b.clusters)


class TestContractionEquivalence:
    @pytest.mark.parametrize("p", DIFF_PS)
    def test_one_pass_isomorphic_to_buffered(self, graph, p):
        """Every random schedule gives the buffered coarse graph renumbered;
        the default (no policy) numbers it as buffered does, byte for byte."""
        base_ctx, _ = _make_ctx(graph, p=4, policy="issue", seed=0, chunk_size=32)
        base_ctx.runtime.detach_detector()
        clu = label_propagation_clustering(
            graph, base_ctx, max(1, graph.total_vertex_weight // 8)
        )
        ref_ctx, _ = _make_ctx(graph, p=4, policy="issue", seed=0, chunk_size=32)
        ref_ctx.runtime.detach_detector()
        ref = contract_buffered(graph, clu.clusters, clu.cluster_weights, ref_ctx)
        ref_form = canonical_coarse_form(graph.n, ref.coarse, ref.fine_to_coarse)
        for policy, seed in [(None, 0)] + [("random", s) for s in DIFF_SEEDS]:
            ctx, det = _make_ctx(
                graph, p=p, policy=policy, seed=seed, chunk_size=32
            )
            out = contract_one_pass(
                graph, clu.clusters, clu.cluster_weights, ctx
            )
            assert det.clean, det.summary()
            if policy is None:
                c, r = out.coarse, ref.coarse
                for got, want in [
                    (c.indptr, r.indptr), (c.adjncy, r.adjncy), (c.adjwgt, r.adjwgt),
                    (c.vwgt, r.vwgt), (out.fine_to_coarse, ref.fine_to_coarse),
                ]:  # fmt: skip
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                continue
            form = canonical_coarse_form(graph.n, out.coarse, out.fine_to_coarse)
            assert form == ref_form, (
                f"one-pass contraction not isomorphic to buffered at "
                f"p={p}, seed={seed}"
            )


class TestGainTableEquivalence:
    @pytest.mark.parametrize("p", DIFF_PS)
    def test_sparse_equals_full_after_move_traces(self, graph, p):
        k = 2 * p  # scale block count with the thread sweep
        for seed in DIFF_SEEDS:
            rng = np.random.default_rng([seed, p])
            part = rng.integers(0, k, size=graph.n).astype(np.int32)
            pg_full = PartitionedGraph(graph, k, part.copy())
            pg_sparse = PartitionedGraph(graph, k, part.copy())
            pg_ref = PartitionedGraph(graph, k, part.copy())
            full = FullGainTable(pg_full)
            sparse = SparseGainTable(pg_sparse)
            ref = NoGainTable(pg_ref)
            for _ in range(40):
                u = int(rng.integers(graph.n))
                src = int(pg_full.partition[u])
                dst = int((src + 1 + rng.integers(k - 1)) % k)
                for pg, table in (
                    (pg_full, full),
                    (pg_sparse, sparse),
                    (pg_ref, ref),
                ):
                    pg.move(u, dst)
                    oracles.apply_move(table, u, src, dst)
            probe = rng.choice(graph.n, size=min(64, graph.n), replace=False)
            for u in probe.tolist():
                bf = set(full.adjacent_blocks(u).tolist())
                bs = set(sparse.adjacent_blocks(u).tolist())
                br = set(ref.adjacent_blocks(u).tolist())
                assert bf == bs == br, f"adjacent blocks diverge at vertex {u}"
                for b in bf:
                    assert (
                        full.affinity(u, b)
                        == sparse.affinity(u, b)
                        == ref.affinity(u, b)
                    ), f"affinity diverges at vertex {u}, block {b}"


# --------------------------------------------------------------------- #
# CLI selfcheck end-to-end
# --------------------------------------------------------------------- #
class TestSelfcheckCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        g = gen.rgg2d(400, 8.0, seed=1)
        path = tmp_path / "g.bin"
        write_binary(g, path)
        return path

    def test_selfcheck_clean_run(self, graph_file, capsys):
        rc = main(["partition", str(graph_file), "-k", "4", "--selfcheck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selfcheck:" in out
        assert "0 conflicts" in out
        assert "invariant checks ok" in out

    def test_selfcheck_with_fuzzed_schedule(self, graph_file, capsys):
        rc = main(
            [
                "partition",
                str(graph_file),
                "-k",
                "4",
                "--selfcheck",
                "--schedule-policy",
                "random",
                "--schedule-seed",
                "7",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "schedule random, seed 7" in out

    def test_schedule_policy_without_selfcheck(self, graph_file, capsys):
        rc = main(
            [
                "partition",
                str(graph_file),
                "-k",
                "4",
                "--schedule-policy",
                "reversed",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "balanced: True" in out
