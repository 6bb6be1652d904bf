"""Tests for buffered and one-pass contraction (Section IV-B)."""

import dataclasses

import numpy as np
import pytest

from repro.core import config as C
from repro.core.config import kaminpar, terapart
from repro.core.context import PartitionContext
from repro.core.coarsening import one_pass_contraction
from repro.core.coarsening.contraction import contract_buffered
from repro.core.coarsening.one_pass_contraction import contract_one_pass
from repro.core.kernels import contraction_step
from repro.core.partitioner import partition
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.memory import MemoryTracker
from test_initial_workspace import GOLDEN_DEEP


def make_ctx(graph, preset=terapart, p=8, k=4, chunk_size=512):
    from repro.parallel import ParallelRuntime

    return PartitionContext(
        config=preset(seed=7, p=p),
        k=k,
        total_vertex_weight=graph.total_vertex_weight,
        tracker=MemoryTracker(),
        runtime=ParallelRuntime(p, chunk_size=chunk_size),
    )


def random_clustering(graph, n_clusters, seed=0):
    """A valid clustering: leader IDs are member vertex IDs."""
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n_clusters, size=graph.n)
    # leader of cluster c = smallest vertex assigned to c
    clusters = np.empty(graph.n, dtype=np.int64)
    for c in range(n_clusters):
        members = np.flatnonzero(assignment == c)
        if len(members):
            clusters[members] = members[0]
    # unassigned clusters never happen: every vertex got some c
    weights = np.zeros(graph.n, dtype=np.int64)
    np.add.at(weights, clusters, np.asarray(graph.vwgt))
    return clusters, weights


def aggregate_coarse_edges(graph, f2c, n_coarse):
    """``(cu, cv, w)``: every coarse edge of ``f2c``'s contraction, by one
    contraction step over the whole level."""
    members = np.argsort(f2c, kind="stable")
    groups = np.searchsorted(f2c[members], np.arange(n_coarse + 1))
    _, degrees, cv, w = contraction_step(graph, f2c, n_coarse)(members, groups)
    return np.repeat(np.arange(n_coarse), degrees), cv, w


class TestAggregateCoarseEdges:
    def test_merges_parallel_edges(self):
        # path 0-1-2-3, contract {0,1} and {2,3}
        g = gen.path(4)
        f2c = np.array([0, 0, 1, 1])
        cu, cv, w = aggregate_coarse_edges(g, f2c, 2)
        assert sorted(zip(cu.tolist(), cv.tolist(), w.tolist())) == [
            (0, 1, 1),
            (1, 0, 1),
        ]

    def test_sums_weights(self):
        g = from_edges(
            4,
            np.array([[0, 2], [0, 3], [1, 2], [1, 3]]),
            np.array([1, 2, 3, 4]),
        )
        f2c = np.array([0, 0, 1, 1])
        cu, cv, w = aggregate_coarse_edges(g, f2c, 2)
        assert sorted(zip(cu.tolist(), cv.tolist(), w.tolist())) == [
            (0, 1, 10),
            (1, 0, 10),
        ]

    def test_drops_intra_cluster_edges(self):
        g = gen.complete(4)
        f2c = np.zeros(4, dtype=np.int64)
        cu, cv, w = aggregate_coarse_edges(g, f2c, 1)
        assert len(cu) == 0


class TestBufferedContraction:
    def test_coarse_graph_valid(self, family_graph):
        clusters, weights = random_clustering(family_graph, 20, seed=1)
        ctx = make_ctx(family_graph)
        out = contract_buffered(family_graph, clusters, weights, ctx)
        out.coarse.validate()

    def test_preserves_total_vertex_weight(self, grid_graph):
        clusters, weights = random_clustering(grid_graph, 10)
        ctx = make_ctx(grid_graph)
        out = contract_buffered(grid_graph, clusters, weights, ctx)
        assert out.coarse.total_vertex_weight == grid_graph.total_vertex_weight

    def test_cut_preserved_under_projection(self, grid_graph):
        """Edge weight between two coarse vertices == total fine edge weight
        between their clusters."""
        clusters, weights = random_clustering(grid_graph, 8, seed=3)
        ctx = make_ctx(grid_graph)
        out = contract_buffered(grid_graph, clusters, weights, ctx)
        # compare against a brute-force count for a few pairs
        f2c = out.fine_to_coarse
        coarse = out.coarse
        for a in range(min(4, coarse.n)):
            nbrs, wgts = coarse.neighbors_and_weights(a)
            for b, w in zip(np.asarray(nbrs).tolist(), np.asarray(wgts).tolist()):
                brute = 0
                for u in np.flatnonzero(f2c == a).tolist():
                    nu, wu = grid_graph.neighbors_and_weights(u)
                    mask = f2c[np.asarray(nu)] == b
                    brute += int(np.asarray(wu)[mask].sum())
                assert brute == w

    def test_fine_to_coarse_consistent(self, grid_graph):
        clusters, weights = random_clustering(grid_graph, 10)
        ctx = make_ctx(grid_graph)
        out = contract_buffered(grid_graph, clusters, weights, ctx)
        # same cluster -> same coarse vertex
        assert np.array_equal(
            out.fine_to_coarse[clusters == clusters[0]],
            np.full((clusters == clusters[0]).sum(), out.fine_to_coarse[0]),
        )
        assert out.fine_to_coarse.max() == out.coarse.n - 1


class TestOnePassContraction:
    def test_coarse_graph_valid(self, family_graph):
        clusters, weights = random_clustering(family_graph, 20, seed=2)
        ctx = make_ctx(family_graph)
        out = contract_one_pass(family_graph, clusters, weights, ctx)
        out.coarse.validate()

    def test_isomorphic_to_buffered(self, family_graph):
        """The chunks run in issue order, so one-pass numbers the coarse
        vertices in leader order, as buffered does: the two return the same
        arrays byte for byte."""
        clusters, weights = random_clustering(family_graph, family_graph.n // 2, seed=4)
        out_b = contract_buffered(
            family_graph, clusters.copy(), weights.copy(), make_ctx(family_graph)
        )
        b = out_b.coarse
        for chunk_size in (8, 64, 512):
            out_o = contract_one_pass(
                family_graph, clusters.copy(), weights.copy(),
                make_ctx(family_graph, chunk_size=chunk_size),
            )  # fmt: skip
            o = out_o.coarse
            for want, got in [
                (b.indptr, o.indptr), (b.adjncy, o.adjncy), (b.adjwgt, o.adjwgt),
                (b.vwgt, o.vwgt), (out_b.fine_to_coarse, out_o.fine_to_coarse),
            ]:  # fmt: skip
                assert np.asarray(got).dtype == np.asarray(want).dtype, chunk_size
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), chunk_size

    def test_each_chunk_reaches_its_owners_thread_slice(self):
        """The walk books each chunk once, under its virtual thread: 25
        chunks of 4 coarse vertices round-robin over 2 threads."""
        graph = gen.rgg2d(200, seed=1)
        ctx = make_ctx(graph, p=2, k=2, chunk_size=4)
        clusters = np.arange(graph.n, dtype=np.int64) & ~1  # pairs (2i, 2i+1)
        weights = np.bincount(clusters, minlength=graph.n).astype(np.int64)
        out = contract_one_pass(graph, clusters, weights, ctx)
        assert out.coarse.n == 100
        slices = [
            (t["phase"], t["tid"], t["chunks"], t["items"]) for t in ctx.runtime.thread_slices()
        ]
        assert slices == [("contraction", tid, 13 - tid, 52 - 4 * tid) for tid in (0, 1)]

    def test_neighborhoods_consecutive_in_eprime(self, grid_graph):
        """P' must be non-decreasing: consecutive IDs, consecutive ranges."""
        clusters, weights = random_clustering(grid_graph, 12, seed=6)
        out = contract_one_pass(grid_graph, clusters, weights, make_ctx(grid_graph))
        assert np.all(np.diff(out.coarse.indptr) >= 0)

    def test_uses_less_peak_memory_than_buffered(self):
        # needs enough coarse vertices that the buffered scheme's per-thread
        # O(n') aggregation maps dominate the one-pass scheme's fixed-size
        # tables (the regime the paper's graphs are always in)
        g = gen.weblike(6000, avg_degree=12, seed=7)
        clusters, weights = random_clustering(g, 3000, seed=7)
        ctx_b = make_ctx(g, p=16)
        ctx_o = make_ctx(g, p=16)
        with ctx_b.tracker.phase("c"):
            contract_buffered(g, clusters.copy(), weights.copy(), ctx_b)
        with ctx_o.tracker.phase("c"):
            contract_one_pass(g, clusters.copy(), weights.copy(), ctx_o)
        assert ctx_o.tracker.phase_peak("c") < ctx_b.tracker.phase_peak("c")

    def test_identity_clustering(self, tiny_graph):
        """Contracting singletons reproduces the graph (relabeled)."""
        clusters = np.arange(tiny_graph.n, dtype=np.int64)
        weights = np.asarray(tiny_graph.vwgt).copy()
        out = contract_one_pass(tiny_graph, clusters, weights, make_ctx(tiny_graph))
        assert out.coarse.n == tiny_graph.n
        assert out.coarse.m == tiny_graph.m

    def test_single_cluster(self, tiny_graph):
        clusters = np.zeros(tiny_graph.n, dtype=np.int64)
        weights = np.zeros(tiny_graph.n, dtype=np.int64)
        weights[0] = tiny_graph.total_vertex_weight
        out = contract_one_pass(tiny_graph, clusters, weights, make_ctx(tiny_graph))
        assert out.coarse.n == 1
        assert out.coarse.m == 0
        assert out.coarse.total_vertex_weight == tiny_graph.total_vertex_weight

    def test_the_coarse_csr_is_eprime(self, web_graph, monkeypatch):
        """No remap copy: the coarse graph's ``adjncy`` / ``adjwgt`` are the
        touched prefixes of the ``E'`` the step wrote, each row ascending by
        coarse id, and the graph says its rows are sorted."""
        buffers = []
        aggregate = one_pass_contraction.aggregate_clusters

        def keep(graph, fine_to_coarse, n_coarse, out=None):
            buffers.append(out)
            return aggregate(graph, fine_to_coarse, n_coarse, out)

        monkeypatch.setattr(one_pass_contraction, "aggregate_clusters", keep)
        clusters, weights = random_clustering(web_graph, 60, seed=8)
        out = contract_one_pass(web_graph, clusters, weights, make_ctx(web_graph, chunk_size=8))
        (eprime,) = buffers
        coarse = out.coarse
        assert eprime.shape == (2, web_graph.num_directed_edges)
        assert coarse.num_directed_edges > 0 and coarse.has_edge_weights
        assert np.shares_memory(coarse.adjncy, eprime[0])
        assert np.shares_memory(coarse.adjwgt, eprime[1])
        assert coarse.sorted_neighborhoods
        rows = np.split(coarse.adjncy, coarse.indptr[1:-1])
        assert all(np.all(np.diff(row) > 0) for row in rows)


@pytest.mark.parametrize("track", [True, False], ids=["scratch-tracked", "untracked"])
def test_eprime_is_charged_once(track):
    """``E'`` is the ledger's overcommitted ``coarse-edge-array``, and the
    step writes into it rather than into a tracked buffer of its own.  With
    scratch tracking on, GOLDEN_DEEP's weblike-k16 coarsening peaks at no
    more than 1 707 502 B (1 803 286 B while both were charged); without
    it, at 1 368 670 B."""
    make, k, _, cut = GOLDEN_DEEP["weblike-k16"]
    cfg = C.terapart_deep(seed=1)
    if track:
        cfg = dataclasses.replace(cfg, obs=C.ObsConfig(track_scratch=True))
    tracker = MemoryTracker()
    result = partition(make(), k, cfg, tracker=tracker)
    assert int(result.cut) == cut
    peak = tracker.phases()["partition/coarsening"].peak_bytes
    if track:
        assert peak <= 1_707_502
    else:
        assert peak == 1_368_670
