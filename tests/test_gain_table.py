"""Tests for the three gain-table strategies (Section V)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import (
    FullGainTable,
    NoGainTable,
    SparseGainTable,
    entry_width_bits,
    make_gain_table,
)
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.memory import MemoryTracker


def make_pgraph(graph, k, seed=0):
    rng = np.random.default_rng(seed)
    part = rng.integers(0, k, size=graph.n).astype(np.int32)
    return PartitionedGraph(graph, k, part)


def brute_affinity(pgraph, u, block):
    g = pgraph.graph
    nbrs, wgts = g.neighbors_and_weights(u)
    mask = pgraph.partition[np.asarray(nbrs)] == block
    return int(np.asarray(wgts)[mask].sum())


KINDS = ["none", "full", "sparse"]


class TestEntryWidth:
    @pytest.mark.parametrize(
        "weight,bits",
        [(0, 8), (255, 8), (256, 16), (65535, 16), (65536, 32), (2**32, 64)],
    )
    def test_width_selection(self, weight, bits):
        assert entry_width_bits(weight) == bits


class TestCorrectness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_affinity_matches_bruteforce(self, family_graph, kind):
        pg = make_pgraph(family_graph, 5)
        table = make_gain_table(kind, pg)
        for u in range(0, family_graph.n, max(1, family_graph.n // 40)):
            for b in range(5):
                assert table.affinity(u, b) == brute_affinity(pg, u, b), (
                    kind,
                    u,
                    b,
                )

    @pytest.mark.parametrize("kind", KINDS)
    def test_adjacent_blocks(self, grid_graph, kind):
        pg = make_pgraph(grid_graph, 4)
        table = make_gain_table(kind, pg)
        for u in range(0, grid_graph.n, 13):
            nbrs = grid_graph.neighbors(u)
            expected = set(np.unique(pg.partition[nbrs]).tolist())
            got = set(np.asarray(table.adjacent_blocks(u)).tolist())
            assert got == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_gains_definition(self, grid_graph, kind):
        """gain(u -> b) = w(u, b) - w(u, current block)."""
        pg = make_pgraph(grid_graph, 4)
        table = make_gain_table(kind, pg)
        for u in range(0, grid_graph.n, 17):
            cur = int(pg.partition[u])
            blocks, gains = oracles.gains(table, u)
            for b, g in zip(np.asarray(blocks).tolist(), np.asarray(gains).tolist()):
                assert g == brute_affinity(pg, u, b) - brute_affinity(pg, u, cur)

    @pytest.mark.parametrize("kind", ["full", "sparse"])
    def test_stays_correct_after_moves(self, family_graph, kind):
        pg = make_pgraph(family_graph, 6, seed=1)
        table = make_gain_table(kind, pg)
        rng = np.random.default_rng(2)
        for _ in range(60):
            u = int(rng.integers(0, family_graph.n))
            dst = int(rng.integers(0, 6))
            src = int(pg.partition[u])
            if src == dst:
                continue
            pg.move(u, dst)
            oracles.apply_move(table, u, src, dst)
        for u in range(0, family_graph.n, max(1, family_graph.n // 30)):
            for b in range(6):
                assert table.affinity(u, b) == brute_affinity(pg, u, b)

    def test_weighted_graph(self, text_graph):
        pg = make_pgraph(text_graph, 3, seed=3)
        sparse = SparseGainTable(pg)
        full = FullGainTable(pg)
        for u in range(0, text_graph.n, 11):
            for b in range(3):
                assert sparse.affinity(u, b) == full.affinity(u, b)


class TestSparseInternals:
    def test_high_degree_vertices_get_dense_rows(self):
        g = gen.star(200)
        pg = make_pgraph(g, 8, seed=4)
        table = SparseGainTable(pg)
        assert table._dense[0]  # hub: degree 199 >= k=8
        assert not table._dense[1]  # leaf: degree 1 < k

    def test_deletion_closes_probe_gaps(self):
        """After an affinity drops to zero, other keys stay findable."""
        g = gen.complete(6)
        pg = PartitionedGraph(
            g, 6, np.arange(6, dtype=np.int32)
        )  # every vertex its own block
        table = SparseGainTable(pg)
        # move vertex 1 into block 0: vertex 2's affinity to block 1 -> 0
        pg.move(1, 0)
        oracles.apply_move(table, 1, 1, 0)
        for u in range(2, 6):
            assert table.affinity(u, 1) == 0
            assert table.affinity(u, 0) == 2  # vertices 0 and 1 both there
            got = set(np.asarray(table.adjacent_blocks(u)).tolist())
            expected = set(np.unique(pg.partition[g.neighbors(u)]).tolist())
            assert got == expected

    def test_memory_o_m_vs_o_nk(self):
        """The headline: sparse ~ O(m), full = O(nk) (5.8x on big graphs)."""
        g = gen.rgg2d(2000, avg_degree=8, seed=5)
        k = 128
        pg = make_pgraph(g, k, seed=5)
        sparse = SparseGainTable(pg)
        full = FullGainTable(pg)
        assert sparse.nbytes < full.nbytes / 5

    def test_variable_width_reduces_footprint(self):
        g = gen.grid2d(30, 30)  # unit weights: U < 256 -> 8-bit entries
        pg = make_pgraph(g, 4, seed=6)
        table = SparseGainTable(pg)
        # all widths should be 8 bits
        assert int(table._width_bits.max()) == 8

    def test_tracker_charging(self, grid_graph):
        tracker = MemoryTracker()
        pg = make_pgraph(grid_graph, 4)
        table = SparseGainTable(pg, tracker)
        assert tracker.current_bytes == table.nbytes
        table.free(tracker)
        assert tracker.current_bytes == 0

    def test_negative_affinity_rejected(self):
        g = gen.path(4)
        pg = PartitionedGraph(g, 2, np.array([0, 0, 1, 1], dtype=np.int32))
        table = SparseGainTable(pg)
        with pytest.raises(AssertionError):
            oracles.insert_add(table, 0, 0, -100)


class TestNoGainTable:
    def test_counts_recompute_work(self, grid_graph):
        pg = make_pgraph(grid_graph, 4)
        table = NoGainTable(pg)
        oracles.gains(table, 10)
        table.affinity(10, 0)
        assert table.recompute_edges > 0

    def test_zero_memory(self, grid_graph):
        pg = make_pgraph(grid_graph, 4)
        assert NoGainTable(pg).nbytes == 0


class TestFactory:
    def test_factory_dispatch(self, grid_graph):
        pg = make_pgraph(grid_graph, 2)
        from repro.core.config import GainTableKind

        assert isinstance(make_gain_table(GainTableKind.NONE, pg), NoGainTable)
        assert isinstance(make_gain_table(GainTableKind.FULL, pg), FullGainTable)
        assert isinstance(make_gain_table(GainTableKind.SPARSE, pg), SparseGainTable)

    def test_unknown_kind(self, grid_graph):
        pg = make_pgraph(grid_graph, 2)
        with pytest.raises(KeyError):
            make_gain_table("magic", pg)


class TestPropertyEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 12),
        moves=st.integers(0, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_sparse_equals_full_under_random_moves(self, seed, k, moves):
        rng = np.random.default_rng(seed)
        g = gen.er(60, 6.0, seed=seed % 100)
        pg_s = make_pgraph(g, k, seed=seed)
        pg_f = PartitionedGraph(g, k, pg_s.partition.copy())
        sparse = SparseGainTable(pg_s)
        full = FullGainTable(pg_f)
        for _ in range(moves):
            u = int(rng.integers(0, g.n))
            dst = int(rng.integers(0, k))
            src = int(pg_s.partition[u])
            if src == dst:
                continue
            pg_s.move(u, dst)
            oracles.apply_move(sparse, u, src, dst)
            pg_f.move(u, dst)
            oracles.apply_move(full, u, src, dst)
        for u in range(g.n):
            for b in range(k):
                assert sparse.affinity(u, b) == full.affinity(u, b)
