"""Edge-case and property tests for the bulk numpy kernels.

Each kernel in :mod:`repro.core.kernels` (plus the bulk varint encoder
and the bulk graph compressor it enables) is checked against its scalar
reference (``tests/scalar_reference.py`` plus the per-item primitives
``oracles.insert_add`` / ``oracles.best_move`` /
``oracles.encode_neighborhood``),
with emphasis on the cases the issue calls out: empty chunks, isolated
vertices, single-cluster graphs, max-degree vertices whose neighborhoods
cross chunk boundaries, and integer-width overflow guards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
from repro.core.config import preset
from repro.core.kernels import (
    aggregate_coarse_edges,
    batch_hash_insert,
    batch_hash_probe,
    bulk_size_constrained_commit,
    entry_width_bits_bulk,
    gather_cluster_members,
    move_gains,
    segment_best_last,
    two_way_cut,
    two_way_gains,
)
from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import (
    SparseGainTable,
    entry_width_bits,
    make_gain_table,
)
from repro.graph import compressed
from repro.graph import generators as gen
from repro.graph.access import full_adjacency, segment_reduce_ratings
from repro.graph.builder import from_edges
from repro.graph.compressed import (
    CompressionConfig,
    CompressionStats,
    compress_graph,
)
from repro.graph.compression import compress_graph_parallel
from repro.graph.csr import CSRGraph
from repro.graph.io import stream_compressed, write_binary
from repro.graph.varint import encode_stream_bulk, varint_lengths, zigzag_encode
from repro.parallel import ParallelRuntime
from scalar_reference import (
    brute_best,
    scalar_commit,
    scalar_hash_insert,
    scalar_hash_probe,
    scalar_move_gains,
    scalar_references,
    scalar_two_way_cut,
    scalar_two_way_gains,
)


def make_pgraph(graph, k, seed=0):
    rng = np.random.default_rng(seed)
    part = rng.integers(0, k, size=graph.n).astype(np.int32)
    return PartitionedGraph(graph, k, part)


# --------------------------------------------------------------------- #
# segment_best_last
# --------------------------------------------------------------------- #
class TestSegmentBestLast:
    def test_empty(self):
        assert len(segment_best_last(np.empty(0, np.int64), np.empty(0))) == 0

    def test_single_segment_tie_keeps_latest(self):
        owner = np.zeros(5, dtype=np.int64)
        rank = np.array([3, 7, 7, 2, 7])
        assert segment_best_last(owner, rank).tolist() == [4]

    def test_tiebreak_beats_position(self):
        owner = np.zeros(3, dtype=np.int64)
        rank = np.array([5, 5, 5])
        tb = np.array([1, 9, 0])
        assert segment_best_last(owner, rank, tiebreak=tb).tolist() == [1]

    @pytest.mark.parametrize("with_tb", [False, True])
    def test_random_vs_bruteforce(self, with_tb):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 60))
            owner = np.sort(rng.integers(0, 8, size=m))
            rank = rng.integers(-5, 5, size=m)
            tb = rng.integers(-3, 3, size=m) if with_tb else None
            got = segment_best_last(owner, rank, tiebreak=tb)
            assert np.array_equal(got, brute_best(owner, rank, tb)), seed

    # The packed route ((rank << bits) + position, one maximum.reduceat) and
    # the general candidate route must be the same function: ranks inside
    # +-2^(62 - bits) take the first, anything wider (2^61 edge weights) or a
    # tiebreak takes the second.
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 1 << 20),  # LP ranks: packed
            (-(1 << 40), 0),  # balancer affinities below zero: packed
            (-(1 << 61), 1 << 61),  # too wide for the spare bits: general
        ],
        ids=["packed", "packed-negative", "overflow-general"],
    )
    @pytest.mark.parametrize("with_tb", [False, True])
    def test_routes_agree_with_bruteforce(self, lo, hi, with_tb):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 200))
            owner = np.sort(rng.integers(0, 12, size=m))
            # few distinct values, so ties (latest position wins) are common
            rank = rng.choice(rng.integers(lo, hi, size=4, endpoint=True), size=m)
            tb = rng.integers(-3, 3, size=m) if with_tb else None
            got = segment_best_last(owner, rank, tiebreak=tb)
            assert np.array_equal(got, brute_best(owner, rank, tb)), seed

    def test_packed_boundary_is_exact(self):
        """Ranks at the last value that fits and the first that does not."""
        owner = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        bits = len(owner).bit_length()
        limit = 1 << (62 - bits)
        for top in (limit - 1, limit, -limit, -limit - 1):
            rank = np.array([top, 0, top, 0, top, top], dtype=np.int64)
            assert np.array_equal(
                segment_best_last(owner, rank), brute_best(owner, rank)
            ), top
        extreme = np.array([2**61, -(2**61), 2**61, -(2**61), 0, 0])
        assert segment_best_last(owner, extreme).tolist() == [2, 5]

    def test_unsorted_owner_rejected(self):
        with pytest.raises(AssertionError):
            segment_best_last(np.array([5, 0]), np.array([1, 2]))


# --------------------------------------------------------------------- #
# bulk_size_constrained_commit
# --------------------------------------------------------------------- #
class TestBulkCommit:
    def test_empty(self):
        caps = np.array([3, 4], dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        acc = bulk_size_constrained_commit(e, e, e, caps, 10)
        assert len(acc) == 0 and caps.tolist() == [3, 4]

    def test_oversubscribed_bucket_replays_in_order(self):
        # bucket 0 can take exactly one more unit: only the first candidate
        # lands, exactly like the sequential scan
        targets = np.array([0, 0, 0], dtype=np.int64)
        prevs = np.array([1, 1, 1], dtype=np.int64)
        weights = np.array([1, 1, 1], dtype=np.int64)
        caps = np.array([9, 3], dtype=np.int64)
        acc = bulk_size_constrained_commit(targets, prevs, weights, caps, 10)
        assert acc.tolist() == [True, False, False]
        assert caps.tolist() == [10, 2]

    @pytest.mark.parametrize("per_bucket", [False, True])
    def test_random_vs_scalar(self, per_bucket):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            nb = int(rng.integers(2, 10))
            m = int(rng.integers(0, 40))
            # movers unique: each vertex moves at most once per commit
            targets = rng.integers(0, nb, size=m)
            prevs = rng.integers(0, nb, size=m)
            weights = rng.integers(1, 6, size=m)
            caps = rng.integers(0, 20, size=nb)
            if per_bucket:
                limits = rng.integers(5, 30, size=nb)
            else:
                limits = int(rng.integers(5, 30))
            caps_a, caps_b = caps.copy(), caps.copy()
            got = bulk_size_constrained_commit(
                targets, prevs, weights, caps_a, limits
            )
            want = scalar_commit(targets, prevs, weights, caps_b, limits)
            assert np.array_equal(got, want), seed
            assert np.array_equal(caps_a, caps_b), seed


# --------------------------------------------------------------------- #
# contraction kernels
# --------------------------------------------------------------------- #
class TestContractionKernels:
    def test_gather_empty_chunk(self):
        e = np.empty(0, dtype=np.int64)
        members, owner = gather_cluster_members(e, e, e, e)
        assert len(members) == 0 and len(owner) == 0

    def test_gather_flattens_member_lists(self):
        # member_order grouped by cluster: cluster A = {4, 2}, B = {7}
        member_order = np.array([4, 2, 7], dtype=np.int64)
        starts = np.array([0, 2], dtype=np.int64)
        ends = np.array([2, 3], dtype=np.int64)
        members, owner = gather_cluster_members(
            member_order, starts, ends, np.array([1, 0], dtype=np.int64)
        )
        assert members.tolist() == [7, 4, 2]
        assert owner.tolist() == [0, 1, 1]

    def test_aggregate_empty_chunk(self):
        e = np.empty(0, dtype=np.int64)
        po, pc, pw, off = aggregate_coarse_edges(e, e, e, e, 10, 3)
        assert len(po) == 0 and off.tolist() == [0, 0, 0]

    def test_aggregate_single_cluster_drops_everything(self):
        # every neighbor resolves to the owner's own leader -> no coarse edges
        owner = np.zeros(4, dtype=np.int64)
        targets = np.full(4, 5, dtype=np.int64)
        weights = np.ones(4, dtype=np.int64)
        leaders = np.array([5], dtype=np.int64)
        po, pc, pw, off = aggregate_coarse_edges(
            owner, targets, weights, leaders, 6, 1
        )
        assert len(po) == 0 and off.tolist() == [0]

    def test_aggregate_merges_parallel_edges(self):
        owner = np.array([0, 0, 0, 1], dtype=np.int64)
        targets = np.array([3, 3, 2, 2], dtype=np.int64)
        weights = np.array([1, 4, 2, 7], dtype=np.int64)
        leaders = np.array([2, 3], dtype=np.int64)
        po, pc, pw, off = aggregate_coarse_edges(
            owner, targets, weights, leaders, 4, 2
        )
        # owner 0 keeps 3 (5 merged) and drops own leader 2's... no: owner 0's
        # leader is 2, so the (0 -> 2) edge drops; owner 1's leader is 3.
        assert po.tolist() == [0, 1]
        assert pc.tolist() == [3, 2]
        assert pw.tolist() == [5, 7]
        assert off.tolist() == [0, 1]


# --------------------------------------------------------------------- #
# two-way FM kernels
# --------------------------------------------------------------------- #
class TestTwoWayKernels:
    @pytest.fixture(scope="class")
    def graph(self):
        return gen.weblike(200, avg_degree=6, seed=3)

    def test_gains_and_cut_match_scalar_csr(self, graph):
        rng = np.random.default_rng(0)
        part = rng.integers(0, 2, size=graph.n).astype(np.int32)
        assert np.array_equal(two_way_gains(graph, part), scalar_two_way_gains(graph, part))
        assert two_way_cut(graph, part) == scalar_two_way_cut(graph, part)

    def test_gains_and_cut_match_scalar_compressed(self, graph):
        cg = compress_graph(graph)
        rng = np.random.default_rng(1)
        part = rng.integers(0, 2, size=graph.n).astype(np.int32)
        assert np.array_equal(two_way_gains(cg, part), scalar_two_way_gains(graph, part))
        assert two_way_cut(cg, part) == scalar_two_way_cut(graph, part)

    def test_isolated_vertices_gain_zero(self):
        g = from_edges(5, np.array([[0, 1]]))  # vertices 2..4 isolated
        part = np.array([0, 1, 0, 1, 0], dtype=np.int32)
        gains = two_way_gains(g, part)
        assert gains.tolist() == [1, 1, 0, 0, 0]
        assert two_way_cut(g, part) == 1

    def test_edgeless_graph(self):
        g = from_edges(3, np.empty((0, 2), dtype=np.int64))
        part = np.zeros(3, dtype=np.int32)
        assert two_way_gains(g, part).tolist() == [0, 0, 0]
        assert two_way_cut(g, part) == 0


# --------------------------------------------------------------------- #
# gain-table kernels
# --------------------------------------------------------------------- #
class TestGainTableKernels:
    @pytest.fixture(scope="class")
    def pg(self):
        return make_pgraph(gen.weblike(250, avg_degree=7, seed=5), 6)

    def test_entry_width_bulk_matches_scalar(self):
        vals = np.array([0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**40])
        got = entry_width_bits_bulk(vals)
        want = [entry_width_bits(int(v)) for v in vals]
        assert got.tolist() == want

    def test_sparse_build_bit_identical(self, pg):
        bulk = SparseGainTable(pg)
        # reference: the same empty slot arrays filled by one `_insert_add`
        # per aggregated (vertex, block) pair
        ref = SparseGainTable(pg)
        ref._keys[:] = ref.EMPTY
        ref._vals[:] = 0
        ref.lock_acquisitions = 0
        src, dst, wgt = full_adjacency(pg.graph)
        po, pb, pa = segment_reduce_ratings(
            src, pg.partition[dst].astype(np.int64), np.asarray(wgt), pg.k
        )
        for u, b, a in zip(po.tolist(), pb.tolist(), pa.tolist()):
            oracles.insert_add(ref, u, b, a)
        assert np.array_equal(bulk._keys, ref._keys)
        assert np.array_equal(bulk._vals, ref._vals)
        assert np.array_equal(bulk._offsets, ref._offsets)
        assert bulk.lock_acquisitions == ref.lock_acquisitions
        assert bulk._width_bits.tolist() == [
            entry_width_bits(pg.graph.incident_weight(u))
            for u in range(pg.graph.n)
        ]

    def test_sparse_gains_match_affinity_probes(self, pg):
        # the row read of `gains` against one hash probe per adjacent block
        table = SparseGainTable(pg)
        assert table._dense.any() and not table._dense.all()
        for u in range(pg.graph.n):
            blocks, gains = oracles.gains(table, u)
            assert np.array_equal(blocks, table.adjacent_blocks(u)), u
            cur_aff = table.affinity(u, int(pg.partition[u]))
            want = [table.affinity(u, int(b)) - cur_aff for b in blocks]
            assert gains.tolist() == want, u

    def test_hash_kernels_match_scalar(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = int(rng.integers(1, 12))
            caps = 2 ** rng.integers(1, 5, size=rows)
            offsets = np.concatenate([[0], np.cumsum(caps)])
            fill = [int(rng.integers(0, c // 2 + 1)) for c in caps]
            row_of = np.repeat(np.arange(rows), fill)
            blocks = np.concatenate(
                [rng.choice(64, size=f, replace=False) for f in fill]
            ).astype(np.int64)
            deltas = rng.integers(1, 100, size=len(blocks))
            tables = []
            for insert in (batch_hash_insert, scalar_hash_insert):
                keys = np.full(int(offsets[-1]), -1, dtype=np.int32)
                vals = np.zeros(int(offsets[-1]), dtype=np.int64)
                insert(keys, vals, offsets[row_of], caps[row_of], blocks, deltas)
                tables.append((keys, vals))
            assert np.array_equal(tables[0][0], tables[1][0]), seed
            assert np.array_equal(tables[0][1], tables[1][1]), seed
            q_rows = rng.integers(0, rows, size=40)
            q_blocks = rng.integers(0, 64, size=40)
            args = (tables[0][0], offsets[q_rows], caps[q_rows], q_blocks)
            assert np.array_equal(
                batch_hash_probe(*args), scalar_hash_probe(*args)
            ), seed

    def test_move_gains_matches_scalar(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            owners, k = int(rng.integers(1, 10)), 5
            pairs = np.flatnonzero(rng.random(owners * k) < 0.5)
            po, pb = pairs // k, pairs % k
            pr = rng.integers(1, 50, size=len(pairs))
            cur = rng.integers(0, k, size=owners)
            got = move_gains(po, pb, pr, cur, owners)
            want = scalar_move_gains(po, pb, pr, cur, owners)
            assert np.array_equal(got[0], want[0]), seed
            assert np.array_equal(got[1], want[1]), seed

    @pytest.mark.parametrize("kind", ["none", "full", "sparse"])
    def test_fm_seeding_matches_per_seed_best_move(self, pg, kind, monkeypatch):
        # the batched seed scoring of the Python pass must push exactly what
        # one `best_move` per seed would, in seed order; max_fruitless_moves=0
        # stops the pass right after seeding
        pushed = []

        class RecordingHeap:
            @staticmethod
            def heappush(heap, item):
                pushed.append(item)

        monkeypatch.setattr(oracles, "heapq", RecordingHeap)
        lmax = int(pg.block_weights.max()) + 2
        table = make_gain_table(kind, pg)
        seeds, locked = pg.boundary_vertices(), np.zeros(pg.graph.n, dtype=bool)
        assert oracles.fm_pass(pg, table, seeds, locked, lmax, 0, 10) == (0, 0, 0)
        want = []
        for u in pg.boundary_vertices().tolist():
            mv = oracles.best_move(table, pg, u, lmax)
            if mv is not None:
                want.append((-mv[0], len(want), u, mv[1]))
        assert pushed == want and len(want) > 10

    @pytest.mark.parametrize("kind", ["none", "full", "sparse"])
    def test_gains_many_matches_per_vertex(self, pg, kind):
        table = make_gain_table(kind, pg)
        us = np.arange(0, pg.graph.n, 3, dtype=np.int64)
        o, b, g = oracles.gains_many(table, us)
        for i, u in enumerate(us.tolist()):
            sel = o == i
            blocks, gains = oracles.gains(table, int(u))
            assert np.array_equal(b[sel], blocks), (kind, u)
            assert np.array_equal(g[sel], gains), (kind, u)

    def test_gains_many_empty_chunk(self, pg):
        table = SparseGainTable(pg)
        o, b, g = oracles.gains_many(table, np.empty(0, dtype=np.int64))
        assert len(o) == 0 and len(b) == 0 and len(g) == 0

    def test_hash_insert_block_overflow_guard(self):
        # block IDs are stored int32; wider IDs must trip the guard
        keys = np.full(8, -1, dtype=np.int32)
        vals = np.zeros(8, dtype=np.int64)
        with pytest.raises(AssertionError):
            batch_hash_insert(
                keys,
                vals,
                np.array([0], dtype=np.int64),
                np.array([8], dtype=np.int64),
                np.array([2**40], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )


# --------------------------------------------------------------------- #
# bulk varint encoding
# --------------------------------------------------------------------- #
class TestVarintBulk:
    def test_lengths_match_scalar_at_boundaries(self):
        vals = []
        for k in range(1, 9):
            vals += [(1 << (7 * k)) - 1, 1 << (7 * k)]
        vals.append(2**63 - 1)
        arr = np.array(vals, dtype=np.int64)
        assert varint_lengths(arr).tolist() == [oracles.varint_len(int(v)) for v in vals]

    def test_lengths_reject_negative(self):
        with pytest.raises(ValueError):
            varint_lengths(np.array([3, -1]))

    def test_zigzag_matches_signed_encoder(self):
        vals = np.array([0, 1, -1, 63, -64, 2**40, -(2**40)])
        for v, zz in zip(vals.tolist(), zigzag_encode(vals).tolist()):
            ref = bytearray()
            oracles.encode_signed_varint(int(v), ref)
            out = bytearray()
            out_len = oracles.encode_stream(np.array([zz]), out)
            assert bytes(out) == bytes(ref), v
            assert out_len == len(ref)

    def test_stream_bulk_matches_scalar(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            vals = rng.integers(0, 2**60, size=int(rng.integers(0, 50)))
            ref = bytearray()
            oracles.encode_stream(vals, ref)
            assert encode_stream_bulk(vals).tobytes() == bytes(ref), seed

    def test_stream_bulk_empty(self):
        assert encode_stream_bulk(np.empty(0, dtype=np.int64)).tobytes() == b""


# --------------------------------------------------------------------- #
# bulk graph compression
# --------------------------------------------------------------------- #
def _hub(n, hub, weights=None):
    """Star plus a path: ``hub`` sees everyone, neighbours come in runs."""
    others = np.delete(np.arange(n), hub)
    spokes = np.stack([np.full(n - 1, hub), others], axis=1)
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return from_edges(n, np.concatenate([spokes, path]), weights)


def _graph_cases():
    rng = np.random.default_rng(9)
    e = 400
    edges = rng.integers(0, 120, size=(e, 2))
    weighted = from_edges(120, edges, rng.integers(1, 1000, size=e))
    chunked = {"high_degree_threshold": 100, "chunk_length": 64}
    # neighbourhoods shuffled in place: what an unsorted file holds
    web = gen.weblike(150, avg_degree=8, seed=3)
    adjncy = web.adjncy.copy()
    for u in range(web.n):
        rng.shuffle(adjncy[web.indptr[u] : web.indptr[u + 1]])
    unsorted = CSRGraph(web.indptr.copy(), adjncy)
    return [
        ("grid", gen.grid2d(15, 15), {}),
        ("web", gen.weblike(300, avg_degree=8, seed=1), {}),
        ("weighted", weighted, {}),
        ("no-intervals", gen.grid2d(12, 12), {"enable_intervals": False}),
        ("star-chunked", gen.star(500), chunked),
        ("edgeless", from_edges(6, np.empty((0, 2), dtype=np.int64)), {}),
        ("isolated", from_edges(8, np.array([[0, 1], [1, 2]])), {}),
        # a chunked vertex in the middle of / last in its packet
        ("hub-middle-chunked", _hub(300, 150), chunked),
        ("hub-last-chunked", _hub(300, 299), chunked),
        # one neighbourhood larger than every packet_edges tried below
        ("hub-low-degree", _hub(300, 150), {}),
        # isolated vertices on both sides of every packet cut
        (
            "isolated-at-cuts",
            from_edges(14, np.array([[1, 2], [2, 3], [6, 7], [10, 12]])),
            {},
        ),
        (
            "weighted-intervals",
            _hub(200, 7, rng.integers(1, 10**6, size=2 * 199)),
            chunked,
        ),
        ("weighted-no-intervals", weighted, {"enable_intervals": False}),
        ("empty", from_edges(0, np.empty((0, 2), dtype=np.int64)), {}),
        ("unsorted", unsorted, {}),
    ]


def _per_vertex_reference(graph, kw):
    """One `encode_neighborhood` call per vertex: the oracle."""
    cfg = CompressionConfig(**kw)
    stats = CompressionStats(uncompressed_bytes=graph.nbytes)
    out = bytearray()
    offsets = np.empty(graph.n + 1, dtype=np.int64)
    for u in range(graph.n):
        offsets[u] = len(out)
        nbrs, wgts = graph.neighbors_and_weights(u)
        oracles.encode_neighborhood(
            u,
            nbrs,
            np.asarray(wgts) if graph.has_edge_weights else None,
            int(graph.indptr[u]),
            out,
            cfg,
            stats,
        )
    offsets[graph.n] = len(out)
    stats.compressed_bytes = len(out) + offsets.nbytes
    return bytes(out), offsets, stats


class TestBulkCompression:
    @pytest.mark.parametrize(
        "name,graph,kw", _graph_cases(), ids=[c[0] for c in _graph_cases()]
    )
    def test_byte_identical_to_scalar(self, name, graph, kw, tmp_path, monkeypatch):
        """Every door -- memory, virtual threads, file -- at several packet
        sizes gives the bytes, offsets and stats of the per-vertex loop."""
        data, offsets, stats = _per_vertex_reference(
            graph.with_sorted_neighborhoods(), kw
        )
        path = tmp_path / "g.bin"
        write_binary(graph, path)
        images = {"memory": compress_graph(graph, **kw)}
        monkeypatch.setattr(compressed, "PACKET_EDGES", 64)
        images["memory/64"] = compress_graph(graph, **kw)
        for packet_edges in (1, 7, 256):
            images[f"file/{packet_edges}"] = stream_compressed(
                path, packet_edges=packet_edges, **kw
            )
        for p in (1, 3):
            images[f"threads/{p}"], _ = compress_graph_parallel(
                graph, ParallelRuntime(p, chunk_size=5), **kw
            )
        for door, cg in images.items():
            assert bytes(cg.data) == data, (name, door)
            assert np.array_equal(cg.offsets, offsets), (name, door)
            assert cg.stats == stats, (name, door)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_packet_cuts_do_not_change_a_byte(self, data):
        """The private loop concatenates: any cut of 0..n into consecutive
        packets yields the same image (chunked hub, weights, intervals)."""
        graph = _hub(60, 20, np.arange(1, 2 * 59 + 1))
        kw = {"high_degree_threshold": 16, "chunk_length": 8}
        inner = data.draw(st.sets(st.integers(1, graph.n - 1)))
        cuts = np.array([0, *sorted(inner), graph.n])
        cg = compressed._compress_packets(
            compressed._csr_packets(graph, cuts),
            graph.n,
            graph.num_directed_edges,
            True,
            None,
            **kw,
        )
        ref = compress_graph(graph, **kw)
        assert cg.data == ref.data
        assert np.array_equal(cg.offsets, ref.offsets)
        assert cg.stats == ref.stats


# --------------------------------------------------------------------- #
# chunked metric fallbacks + pipeline edge graphs
# --------------------------------------------------------------------- #
class TestMetricFallbacks:
    def test_compressed_metrics_match_csr(self):
        # star forces the chunked high-degree representation, so the
        # max-degree neighborhood spans many decode chunks
        for graph in (gen.star(5000), gen.weblike(300, avg_degree=8, seed=2)):
            cg = compress_graph(
                graph, high_degree_threshold=100, chunk_length=64
            )
            rng = np.random.default_rng(4)
            part = rng.integers(0, 3, size=graph.n).astype(np.int32)
            a = PartitionedGraph(graph, 3, part.copy())
            b = PartitionedGraph(cg, 3, part.copy())
            assert a.cut_weight() == b.cut_weight()
            assert np.array_equal(
                np.sort(a.boundary_vertices()), np.sort(b.boundary_vertices())
            )


class TestPipelineEdgeGraphs:
    @pytest.mark.parametrize(
        "graph",
        [
            gen.complete(24),  # LP collapses toward a single cluster
            from_edges(40, np.array([[0, 1], [1, 2], [2, 3]])),  # mostly isolated
            gen.star(120),  # one max-degree hub
        ],
        ids=["complete", "isolated", "star"],
    )
    def test_bulk_matches_scalar_end_to_end(self, graph):
        for seed in range(2):
            cfg = preset("terapart", seed=seed, p=4)
            a = repro.partition(graph, 2, cfg)
            with scalar_references() as calls:
                b = repro.partition(graph, 2, cfg)
            assert calls["encode_stream_bulk"]
            assert np.array_equal(a.partition, b.partition)
            assert a.cut == b.cut
            a.pgraph.validate()
