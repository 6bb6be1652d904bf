"""Tests for the distributed graph (shards, ghosts, compression)."""

import numpy as np
import pytest

from repro.dist.comm import SimComm
from repro.dist.dgraph import distribute_graph, _split_ranges
from repro.graph import generators as gen
from repro.graph.access import chunk_adjacency
from repro.graph.builder import from_edges
from repro.graph.compressed import CompressionConfig, CompressionStats, compress_graph

from oracles import encode_neighborhood

#: default split, an explicit uneven split, and one with two empty ranks
RANGES = {
    "default": None,
    "explicit": [0, 100, 130, 450, 600],
    "empty-ranks": [0, 0, 300, 300, 600],
}


def rows(shard):
    """``(owner, neighbors, weights)`` of a shard's rows: ``owner`` is the
    local id, neighbours are global ids."""
    return chunk_adjacency(shard.graph, np.arange(shard.lo, shard.hi))


class TestSplitRanges:
    def test_covers_everything(self):
        r = _split_ranges(10, 3)
        assert r.tolist() == [0, 4, 7, 10]

    def test_exact_division(self):
        assert _split_ranges(9, 3).tolist() == [0, 3, 6, 9]

    def test_more_ranks_than_vertices(self):
        r = _split_ranges(2, 4)
        assert r[-1] == 2 and len(r) == 5


class TestDistributeGraph:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_shards_cover_adjacency(self, compressed):
        g = gen.weblike(600, avg_degree=10, seed=3)
        for ranges in RANGES.values():
            dg = distribute_graph(
                g, SimComm(4), compressed=compressed, ranges=ranges
            )
            assert [s.lo for s in dg.shards] + [g.n] == dg.ranges.tolist()
            self._check_accessor(g, dg)

    @staticmethod
    def _check_accessor(g, dg):
        for shard in dg.shards:
            owner, nbrs, wgts = rows(shard)
            assert len(owner) == len(nbrs) == len(wgts)
            for lu in range(shard.n_local):
                ne, we = g.neighbors_and_weights(shard.lo + lu)
                mine = owner == lu
                assert np.array_equal(np.sort(nbrs[mine]), np.sort(ne))
                assert int(wgts[mine].sum()) == int(np.asarray(we).sum())

    @pytest.mark.parametrize("ranges", list(RANGES))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_compressed_shard_is_slice_of_compress_graph(self, ranges, weighted):
        """Rank ``r`` stores ``data[offsets[lo]:offsets[hi]]`` of the one
        shared encoder run -- byte for byte what a per-rank, per-vertex
        ``encode_neighborhood`` loop over its rows would produce (global
        source id for the first gap, global first-edge-id header)."""
        g = gen.weblike(600, avg_degree=10, seed=3)
        if weighted:
            src = np.repeat(np.arange(g.n), g.degrees)
            up = src < g.adjncy
            edges = np.stack([src[up], g.adjncy[up]], axis=1)
            w = np.random.default_rng(4).integers(1, 500, size=len(edges))
            g = from_edges(g.n, edges, w)
        cg = compress_graph(g)
        comm = SimComm(4)
        dg = distribute_graph(g, comm, compressed=True, ranges=RANGES[ranges])
        for rank, shard in enumerate(dg.shards):
            lo, hi = shard.lo, shard.hi
            assert bytes(shard.graph.data) == bytes(cg.data)
            assert np.array_equal(shard.graph.offsets, cg.offsets)
            assert np.array_equal(shard.graph.degrees, g.degrees)
            out = bytearray()
            stats = CompressionStats()
            for u in range(lo, hi):
                assert len(out) == cg.offsets[u] - cg.offsets[lo]
                nbrs, wgts = g.neighbors_and_weights(u)
                encode_neighborhood(
                    u,
                    nbrs,
                    np.asarray(wgts) if weighted else None,
                    int(g.indptr[u]),
                    out,
                    CompressionConfig(),
                    stats,
                )
            assert bytes(out) == bytes(cg.data[cg.offsets[lo] : cg.offsets[hi]])
            # ledger: encoded bytes + offsets + degrees + vertex weights,
            # plus 16 bytes per ghost
            n_local = hi - lo
            want = len(out) + 8 * (n_local + 1) + 8 * n_local + 8 * n_local
            assert shard.storage_bytes == want
            assert (
                comm.trackers[rank].current_bytes
                == want + 16 * len(shard.ghosts)
            )

    @pytest.mark.parametrize("ranges", list(RANGES))
    def test_csr_shard_ledger_charge(self, ranges):
        g = gen.weblike(600, avg_degree=10, seed=3)
        comm = SimComm(4)
        dg = distribute_graph(g, comm, ranges=RANGES[ranges])
        for rank, shard in enumerate(dg.shards):
            n_local = shard.n_local
            edges = int(g.indptr[shard.hi] - g.indptr[shard.lo])
            # indptr + neighbor IDs + edge weights + vertex weights
            want = 8 * (n_local + 1) + 8 * edges + 8 * edges + 8 * n_local
            assert shard.storage_bytes == want
            assert (
                comm.trackers[rank].current_bytes
                == want + 16 * len(shard.ghosts)
            )

    def test_ghosts_are_nonlocal_neighbors(self):
        g = gen.grid2d(12, 12)
        comm = SimComm(3)
        dg = distribute_graph(g, comm)
        for shard in dg.shards:
            assert np.all((shard.ghosts < shard.lo) | (shard.ghosts >= shard.hi))
            # every ghost really appears in some local adjacency
            all_nbrs = rows(shard)[1]
            for ghost in shard.ghosts.tolist():
                assert ghost in all_nbrs

    def test_compression_reduces_shard_bytes(self):
        g = gen.weblike(800, avg_degree=16, seed=4)
        raw = distribute_graph(g, SimComm(4), compressed=False)
        comp = distribute_graph(g, SimComm(4), compressed=True)
        for s_raw, s_comp in zip(raw.shards, comp.shards):
            assert s_comp.storage_bytes < s_raw.storage_bytes

    def test_per_rank_ledger_charged(self):
        g = gen.grid2d(10, 10)
        comm = SimComm(2)
        dg = distribute_graph(g, comm)
        for rank, shard in enumerate(dg.shards):
            assert (
                comm.trackers[rank].current_bytes
                == shard.storage_bytes + shard.ghost_bytes
            )
        dg.free()
        assert all(t.current_bytes == 0 for t in comm.trackers)

    def test_owner_of(self):
        g = gen.grid2d(10, 10)
        dg = distribute_graph(g, SimComm(4))
        for v in (0, 25, 50, 99):
            r = int(dg.owner_of(v))
            assert dg.ranges[r] <= v < dg.ranges[r + 1]

    def test_totals_preserved(self):
        g = gen.textlike(300, seed=5)
        dg = distribute_graph(g, SimComm(3), compressed=True)
        assert dg.n == g.n
        assert dg.m == g.m
        assert dg.total_vertex_weight == g.total_vertex_weight
