"""Tests for initial partitioning: GGG, 2-way FM, recursive bisection."""

import numpy as np
import pytest

from repro.core.initial.bipartition import (
    bfs_bipartition,
    greedy_graph_growing_bipartition,
    random_bipartition,
)
from oracles import extract_subgraphs
from repro.core.initial.fm2way import fm2way_refine
from repro.core.initial.recursive import initial_partition
from repro.core.kernels import two_way_cut
from repro.graph import generators as gen
from repro.graph.builder import from_edges


def extract_subgraph(graph, mask):
    (sub, ids), = extract_subgraphs(graph, [mask])
    return sub, ids


class TestGreedyGraphGrowing:
    def test_reaches_target_weight(self, grid_graph):
        rng = np.random.default_rng(0)
        total = grid_graph.total_vertex_weight
        part = greedy_graph_growing_bipartition(
            grid_graph, total // 2, int(total * 0.55), rng
        )
        w0 = int(np.asarray(grid_graph.vwgt)[part == 0].sum())
        assert total // 2 <= w0 <= int(total * 0.55)

    def test_grown_block_is_compactish(self, grid_graph):
        """GGG on a grid should produce far fewer cut edges than random."""
        rng = np.random.default_rng(1)
        total = grid_graph.total_vertex_weight
        ggg = greedy_graph_growing_bipartition(
            grid_graph, total // 2, int(total * 0.55), rng
        )
        rnd = random_bipartition(grid_graph, total // 2, rng)
        assert two_way_cut(grid_graph, ggg) < two_way_cut(grid_graph, rnd) / 2

    def test_handles_disconnected_graph(self):
        g = from_edges(6, np.array([[0, 1], [2, 3], [4, 5]]))
        rng = np.random.default_rng(2)
        part = greedy_graph_growing_bipartition(g, 3, 4, rng)
        assert (part == 0).sum() >= 3

    def test_terminates_with_heavy_vertices(self):
        """Regression: oversized vertices must not loop forever."""
        g = from_edges(
            4, np.array([[0, 1], [1, 2], [2, 3]]), vwgt=np.array([1, 9, 9, 1])
        )
        rng = np.random.default_rng(3)
        part = greedy_graph_growing_bipartition(g, 2, 2, rng)
        w0 = int(np.asarray(g.vwgt)[part == 0].sum())
        assert w0 <= 2

    def test_empty_graph(self):
        g = from_edges(0, np.zeros((0, 2), dtype=np.int64))
        part = greedy_graph_growing_bipartition(g, 0, 0, np.random.default_rng(0))
        assert len(part) == 0


class TestFM2Way:
    def test_never_worsens_cut(self, family_graph):
        rng = np.random.default_rng(4)
        total = family_graph.total_vertex_weight
        part = random_bipartition(family_graph, total // 2, rng)
        before = two_way_cut(family_graph, part.copy())
        lim = int(total * 0.6)
        refined = fm2way_refine(family_graph, part, (lim, lim))
        assert two_way_cut(family_graph, refined) <= before

    def test_respects_balance(self, grid_graph):
        rng = np.random.default_rng(5)
        total = grid_graph.total_vertex_weight
        part = random_bipartition(grid_graph, total // 2, rng)
        lim = int(total * 0.55)
        refined = fm2way_refine(grid_graph, part, (lim, lim))
        w0 = int(np.asarray(grid_graph.vwgt)[refined == 0].sum())
        assert w0 <= lim and total - w0 <= lim

    def test_finds_obvious_improvement(self):
        """Two cliques with one crossing edge; a bad split must be fixed."""
        edges = []
        for block in range(2):
            off = block * 4
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append([off + i, off + j])
        edges.append([3, 4])
        g = from_edges(8, np.array(edges))
        # misassign one vertex per side
        part = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=np.int32)
        refined = fm2way_refine(g, part, (5, 5))
        assert two_way_cut(g, refined) == 1

    def test_cut2way_matches_manual(self, tiny_graph):
        part = np.array([0, 0, 0, 1, 1, 1], dtype=np.int32)
        assert two_way_cut(tiny_graph, part) == 1


class TestExtractSubgraph:
    def test_induced_edges_only(self, tiny_graph):
        mask = np.array([True, True, True, False, False, False])
        sub, ids = extract_subgraph(tiny_graph, mask)
        assert sub.n == 3
        assert sub.m == 3  # the triangle
        assert ids.tolist() == [0, 1, 2]

    def test_preserves_weights(self, weighted_graph):
        mask = np.array([True, True, True, False])
        sub, ids = extract_subgraph(weighted_graph, mask)
        sub.validate()
        # edge (0,1) has weight 5, (1,2) weight 1, (0,2) weight 10
        w01 = sub.edge_weights(0)[sub.neighbors(0).tolist().index(1)]
        assert int(w01) == 5

    def test_empty_mask(self, tiny_graph):
        sub, ids = extract_subgraph(tiny_graph, np.zeros(6, dtype=bool))
        assert sub.n == 0 and len(ids) == 0

    def test_compressed_graph_supported(self, web_graph):
        from repro.graph.compressed import compress_graph

        cg = compress_graph(web_graph)
        mask = np.zeros(web_graph.n, dtype=bool)
        mask[: web_graph.n // 2] = True
        sub_c, _ = extract_subgraph(cg, mask)
        sub_u, _ = extract_subgraph(web_graph, mask)
        assert sub_c.n == sub_u.n and sub_c.m == sub_u.m


class TestInitialPartition:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 16])
    def test_produces_k_blocks(self, grid_graph, k):
        part = initial_partition(grid_graph, k, 0.05, np.random.default_rng(6))
        assert part.min() >= 0 and part.max() <= k - 1
        if k <= grid_graph.n:
            assert len(np.unique(part)) == k

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_balance_roughly_met(self, grid_graph, k):
        """Initial partitioning targets the constraint but integer rounding
        across bisection levels can overshoot by a couple of vertices; the
        driver's rebalancer enforces the hard constraint afterwards (see
        test_partitioner.py)."""
        eps = 0.05
        part = initial_partition(grid_graph, k, eps, np.random.default_rng(7))
        weights = np.bincount(part, minlength=k)
        lmax = (1 + eps) * -(-grid_graph.n // k)
        assert weights.max() <= lmax + 2

    def test_k1_trivial(self, tiny_graph):
        part = initial_partition(tiny_graph, 1, 0.03, np.random.default_rng(8))
        assert np.all(part == 0)

    def test_quality_beats_random_on_grid(self, grid_graph):
        from repro.core.partition import PartitionedGraph

        rng = np.random.default_rng(9)
        part = initial_partition(grid_graph, 4, 0.05, rng)
        pg = PartitionedGraph(grid_graph, 4, part)
        rand = PartitionedGraph(
            grid_graph, 4, rng.integers(0, 4, size=grid_graph.n).astype(np.int32)
        )
        assert pg.cut_weight() < rand.cut_weight() / 2
