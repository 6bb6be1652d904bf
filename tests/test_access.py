"""Tests for bulk adjacency access helpers (repro.graph.access)."""

import numpy as np

from repro.graph import access
from repro.graph.access import (
    chunk_adjacency,
    full_adjacency,
    segment_reduce_ratings,
    traversal_cost,
)
from repro.graph.compressed import compress_graph


class TestChunkAdjacency:
    def test_matches_per_vertex_access(self, family_graph):
        g = family_graph
        chunk = np.arange(0, g.n, 3, dtype=np.int64)
        owner, nbrs, wgts = chunk_adjacency(g, chunk)
        pos = 0
        for i, u in enumerate(chunk.tolist()):
            nu, wu = g.neighbors_and_weights(u)
            d = len(nu)
            assert np.all(owner[pos : pos + d] == i)
            assert np.array_equal(nbrs[pos : pos + d], np.asarray(nu))
            assert np.array_equal(wgts[pos : pos + d], np.asarray(wu))
            pos += d
        assert pos == len(owner)

    def test_compressed_matches_csr(self, web_graph):
        cg = compress_graph(web_graph)
        chunk = np.arange(0, web_graph.n, 7, dtype=np.int64)
        oc, nc, wc = chunk_adjacency(cg, chunk)
        ou, nu, wu = chunk_adjacency(web_graph, chunk)
        assert np.array_equal(oc, ou)
        assert np.array_equal(nc, nu)
        assert np.array_equal(wc, wu)

    def test_empty_chunk(self, grid_graph):
        owner, nbrs, wgts = chunk_adjacency(grid_graph, np.empty(0, dtype=np.int64))
        assert len(owner) == len(nbrs) == len(wgts) == 0

    def test_chunk_with_isolated_vertices(self):
        from repro.graph.builder import from_edges

        g = from_edges(5, np.array([[0, 1]]))
        owner, nbrs, _ = chunk_adjacency(g, np.array([2, 0, 3]))
        assert owner.tolist() == [1]
        assert nbrs.tolist() == [1]

    def test_full_adjacency(self, tiny_graph):
        src, dst, w = full_adjacency(tiny_graph)
        assert len(src) == tiny_graph.num_directed_edges
        # symmetric edge multiset
        fwd = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in fwd for a, b in fwd)


class TestSegmentReduce:
    def test_aggregates_weights_per_pair(self):
        owner = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        clusters = np.array([5, 5, 7, 5, 5], dtype=np.int64)
        weights = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        po, pc, pr = segment_reduce_ratings(owner, clusters, weights, 10)
        got = dict(zip(zip(po.tolist(), pc.tolist()), pr.tolist()))
        assert got == {(0, 5): 3, (0, 7): 3, (1, 5): 9}

    def test_output_sorted_by_owner(self):
        rng = np.random.default_rng(0)
        owner = rng.integers(0, 8, size=100)
        clusters = rng.integers(0, 20, size=100)
        weights = rng.integers(1, 5, size=100)
        po, pc, _ = segment_reduce_ratings(owner, clusters, weights, 20)
        assert np.all(np.diff(po) >= 0)
        # within an owner, clusters are sorted and unique
        for o in np.unique(po):
            cs = pc[po == o]
            assert np.all(np.diff(cs) > 0)

    def test_empty_input(self):
        e = np.empty(0, dtype=np.int64)
        po, pc, pr = segment_reduce_ratings(e, e, e, 10)
        assert len(po) == 0

    def test_total_weight_preserved(self):
        rng = np.random.default_rng(1)
        owner = rng.integers(0, 5, size=200)
        clusters = rng.integers(0, 30, size=200)
        weights = rng.integers(1, 9, size=200)
        _, _, pr = segment_reduce_ratings(owner, clusters, weights, 30)
        assert pr.sum() == weights.sum()

    @staticmethod
    def _edges(seed, m=400):
        rng = np.random.default_rng(seed)
        owner = np.sort(rng.integers(0, 9, size=m))
        return owner, rng.integers(0, 25, size=m), rng

    @staticmethod
    def _reference(owner, clusters, weights):
        """One rating map per owner, filled edge by edge."""
        maps: dict[tuple[int, int], int] = {}
        for o, c, w in zip(owner.tolist(), clusters.tolist(), weights.tolist()):
            maps[(o, c)] = maps.get((o, c), 0) + w
        keys = sorted(maps)
        return [k[0] for k in keys], [k[1] for k in keys], [maps[k] for k in keys]

    def test_constant_weight_views_match_materialised_weights(self):
        """The sort-only route (a stride-0 view: run lengths times the
        constant) and the general route return identical triples."""
        for seed in range(10):
            owner, clusters, rng = self._edges(seed)
            m = len(owner)
            unit = np.broadcast_to(np.ones(1, dtype=np.int64), m)
            seven = np.broadcast_to(np.full(1, 7, dtype=np.int64), m)
            real = rng.integers(1, 9, size=m)
            assert unit.strides == seven.strides == (0,)
            for weights in (unit, np.ones(m, dtype=np.int64), seven, real):
                got = segment_reduce_ratings(owner, clusters, weights, 25)
                assert all(a.dtype == np.int64 for a in got)
                ref = self._reference(owner, clusters, weights)
                assert [a.tolist() for a in got] == list(ref), seed

    def test_invariant_under_input_permutation(self):
        """Only sorted keys and per-key integer sums are returned, so the
        result cannot depend on the order equal keys are sorted in -- what
        makes an unstable (CPU-dispatched) sort safe."""
        for seed in range(10):
            owner, clusters, rng = self._edges(seed)
            weights = rng.integers(1, 9, size=len(owner))
            ref = segment_reduce_ratings(owner, clusters, weights, 25)
            perm = rng.permutation(len(owner))
            got = segment_reduce_ratings(
                owner[perm], clusters[perm], weights[perm], 25
            )
            for a, b in zip(got, ref):
                assert np.array_equal(a, b), seed

    def test_csr_chunk_hands_the_unit_view_through(self, web_graph):
        """An unweighted CSR graph's edge weights stay an 8-byte view."""
        chunk = np.arange(0, web_graph.n, 5, dtype=np.int64)
        owner, _, wgts = chunk_adjacency(web_graph, chunk)
        assert wgts.strides == (0,) and len(wgts) == len(owner)
        assert np.all(wgts == 1)


class TestTraversalCost:
    def test_csr_cost(self, grid_graph):
        b, f = traversal_cost(grid_graph)
        assert b == 16.0 and f == 1.0

    def test_compressed_costs_fewer_bytes_more_work(self, web_graph):
        cg = compress_graph(web_graph)
        b, f = traversal_cost(cg)
        assert b < 16.0
        assert f > 1.0

    def test_modeled_seconds_reads_no_clock(self, web_graph, monkeypatch):
        """A compressed scan is priced with a constant factor: with every
        clock but the partitioner's own wall timers raising, two compressed
        runs of one (graph, config, seed) model the same seconds."""
        import time
        from types import SimpleNamespace

        import repro
        from repro.core import config as C
        from repro.core import partitioner
        from repro.core.coarsening import one_pass_contraction

        def no_clock():
            raise AssertionError("the cost model read the clock")

        monkeypatch.setattr(time, "perf_counter", no_clock)
        frozen = SimpleNamespace(perf_counter=lambda: 0.0)
        monkeypatch.setattr(partitioner, "time", frozen)
        monkeypatch.setattr(one_pass_contraction, "time", frozen)
        cfg = C.terapart(seed=1)
        assert cfg.compress_input
        first, second = (
            repro.partition(web_graph, 4, cfg).modeled_seconds for _ in range(2)
        )
        assert first == second > 0
        assert traversal_cost(compress_graph(web_graph))[1] == access._DECODE_WORK_FACTOR
