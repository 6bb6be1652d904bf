"""Tests for label propagation clustering (classic + two-phase)."""

import numpy as np
import pytest

from repro.core.config import CoarseningConfig, terapart, kaminpar
from repro.core.context import PartitionContext
from repro.core.coarsening.lp_clustering import (
    cluster_sizes,
    label_propagation_clustering,
)
from repro.graph import generators as gen
from repro.graph.compressed import compress_graph
from repro.memory import MemoryTracker


def make_ctx(preset, k=8, total=None, graph=None, p=8, **overrides):
    cfg = preset(seed=5, p=p, **overrides)
    return PartitionContext(
        config=cfg,
        k=k,
        total_vertex_weight=graph.total_vertex_weight if graph else total,
        tracker=MemoryTracker(),
    )


class TestClusteringBasics:
    def test_clusters_are_valid_ids(self, grid_graph):
        ctx = make_ctx(terapart, graph=grid_graph)
        res = label_propagation_clustering(grid_graph, ctx, 10)
        assert res.clusters.min() >= 0
        assert res.clusters.max() < grid_graph.n

    def test_respects_max_cluster_weight(self, family_graph):
        cap = 7
        ctx = make_ctx(terapart, graph=family_graph)
        res = label_propagation_clustering(family_graph, ctx, cap)
        sizes = np.zeros(family_graph.n, dtype=np.int64)
        np.add.at(sizes, res.clusters, np.asarray(family_graph.vwgt))
        assert sizes.max() <= cap

    def test_weights_consistent(self, grid_graph):
        ctx = make_ctx(terapart, graph=grid_graph)
        res = label_propagation_clustering(grid_graph, ctx, 12)
        expected = np.zeros(grid_graph.n, dtype=np.int64)
        np.add.at(expected, res.clusters, np.asarray(grid_graph.vwgt))
        assert np.array_equal(expected, res.cluster_weights)

    def test_shrinks_mesh_graph(self, grid_graph):
        ctx = make_ctx(terapart, graph=grid_graph)
        res = label_propagation_clustering(grid_graph, ctx, 10)
        assert res.num_clusters < grid_graph.n / 2

    def test_clusters_connected_vertices_together(self):
        """Two far-apart cliques must never share a cluster."""
        from repro.graph.builder import from_edges

        edges = []
        for block in range(2):
            off = block * 5
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append([off + i, off + j])
        g = from_edges(10, np.array(edges))
        ctx = make_ctx(terapart, graph=g)
        res = label_propagation_clustering(g, ctx, 5)
        left = set(res.clusters[:5].tolist())
        right = set(res.clusters[5:].tolist())
        assert not left & right

    def test_singleton_cap_forces_no_merging(self, grid_graph):
        ctx = make_ctx(terapart, graph=grid_graph)
        res = label_propagation_clustering(grid_graph, ctx, 1)
        assert res.num_clusters == grid_graph.n


class TestVariantEquivalence:
    def test_two_phase_same_decisions_as_classic(self, family_graph):
        """The paper: two-phase LP does not change solution quality; with a
        fixed seed our kernel makes literally identical decisions."""
        ctx_c = make_ctx(kaminpar, graph=family_graph)
        ctx_t = make_ctx(
            terapart, graph=family_graph, compress_input=False
        )
        res_c = label_propagation_clustering(family_graph, ctx_c, 9)
        res_t = label_propagation_clustering(family_graph, ctx_t, 9)
        assert np.array_equal(res_c.clusters, res_t.clusters)

    def test_compressed_graph_same_clusters(self, web_graph):
        cg = compress_graph(web_graph)
        ctx_a = make_ctx(terapart, graph=web_graph)
        ctx_b = make_ctx(terapart, graph=web_graph)
        res_a = label_propagation_clustering(web_graph, ctx_a, 9)
        res_b = label_propagation_clustering(cg, ctx_b, 9)
        assert np.array_equal(res_a.clusters, res_b.clusters)


class TestMemoryAccounting:
    def test_classic_charges_per_thread_maps(self, grid_graph):
        """O(n*p): doubling p doubles the clustering working set."""
        peaks = {}
        for p in (8, 16):
            ctx = make_ctx(kaminpar, graph=grid_graph, p=p)
            with ctx.tracker.phase("clustering"):
                label_propagation_clustering(grid_graph, ctx, 9)
            peaks[p] = ctx.tracker.phase_peak("clustering")
        assert peaks[16] > 1.7 * peaks[8]

    def test_two_phase_nearly_independent_of_p(self):
        """O(n + p*T_bump): doubling p barely moves the working set."""
        g = gen.grid2d(50, 50)
        peaks = {}
        for p in (8, 16):
            ctx = make_ctx(terapart, graph=g, p=p)
            with ctx.tracker.phase("clustering"):
                label_propagation_clustering(g, ctx, 9)
            peaks[p] = ctx.tracker.phase_peak("clustering")
        assert peaks[16] < 1.5 * peaks[8]

    def test_two_phase_uses_less_memory(self, web_graph):
        ctx_c = make_ctx(kaminpar, graph=web_graph, p=32)
        ctx_t = make_ctx(terapart, graph=web_graph, p=32)
        with ctx_c.tracker.phase("c"):
            label_propagation_clustering(web_graph, ctx_c, 9)
        with ctx_t.tracker.phase("c"):
            label_propagation_clustering(web_graph, ctx_t, 9)
        assert ctx_t.tracker.phase_peak("c") < ctx_c.tracker.phase_peak("c") / 2

    def test_no_leaks(self, grid_graph):
        ctx = make_ctx(terapart, graph=grid_graph)
        label_propagation_clustering(grid_graph, ctx, 9)
        ctx.tracker.assert_empty()


class TestBumping:
    def test_high_degree_vertex_bumped(self):
        g = gen.star(2000)
        ctx = make_ctx(terapart, graph=g, p=2)
        # force a small T_bump so the hub exceeds it in round 1
        ctx.config = ctx.config.with_(
            coarsening=CoarseningConfig(t_bump=64)
        )
        res = label_propagation_clustering(g, ctx, g.n)
        assert sum(res.bumped_per_round) >= 1

    def test_low_degree_graphs_never_bump(self, grid_graph):
        ctx = make_ctx(terapart, graph=grid_graph)
        res = label_propagation_clustering(grid_graph, ctx, 9)
        assert sum(res.bumped_per_round) == 0


class TestClusterSizes:
    def test_counts_members(self):
        clusters = np.array([0, 0, 2, 2, 2], dtype=np.int64)
        sizes = cluster_sizes(clusters)
        assert sizes[0] == 2 and sizes[2] == 3 and sizes[1] == 0
