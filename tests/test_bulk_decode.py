"""Equivalence tests for the vectorized bulk decode layer (ISSUE 1).

The byte-parallel VarInt decoder and the chunk decoder must be *bit-exact*
equivalents of the scalar reference decoders on every graph family --
including interval-encoded, chunked high-degree, weighted, and empty
neighborhoods -- for every chunk shape LP's scheduler can produce.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.access import chunk_adjacency, full_adjacency
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph, decompress_graph
from repro.graph.varint import (
    decode_region_bulk,
    decode_signed_varint,
    decode_stream,
    decode_stream_bulk,
    encode_signed_varint,
    encode_stream,
    encode_varint,
    zigzag_decode,
)

from conftest import graphs_equal

values_strategy = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**63 - 1),
    ),
    max_size=200,
)


class TestStreamBulk:
    @given(values=values_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_decoder(self, values):
        buf = bytearray()
        encode_stream(np.array(values, dtype=np.int64), buf)
        ref, ref_pos = decode_stream(bytes(buf), 0, len(values))
        got, got_pos = decode_stream_bulk(bytes(buf), 0, len(values))
        assert got_pos == ref_pos
        assert np.array_equal(got, ref)

    @given(values=values_strategy, prefix=st.integers(min_value=0, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_mid_buffer_offset(self, values, prefix):
        buf = bytearray(b"\xff" * prefix)  # garbage continuation bytes before
        encode_stream(np.array(values, dtype=np.int64), buf)
        buf.extend(b"\x01\x01")  # trailing values that must not be consumed
        ref, ref_pos = decode_stream(bytes(buf), prefix, len(values))
        got, got_pos = decode_stream_bulk(bytes(buf), prefix, len(values))
        assert got_pos == ref_pos
        assert np.array_equal(got, ref)

    def test_empty_count(self):
        vals, pos = decode_stream_bulk(b"\x05", 0, 0)
        assert len(vals) == 0 and pos == 0

    def test_truncated_stream_raises(self):
        buf = bytearray()
        encode_varint(5, buf)
        with pytest.raises(ValueError, match="truncated"):
            decode_stream_bulk(bytes(buf), 0, 2)
        # a buffer ending mid-value (continuation bit set) is also truncated
        with pytest.raises(ValueError):
            decode_stream_bulk(b"\x85\x80", 0, 1)

    def test_region_decodes_every_value(self):
        values = np.array([0, 1, 127, 128, 300, 2**40, 2**63 - 1], dtype=object)
        buf = bytearray()
        for v in values:
            encode_varint(int(v), buf)
        got, starts = decode_region_bulk(np.frombuffer(bytes(buf), dtype=np.uint8))
        assert got.tolist() == [int(v) for v in values]
        assert starts[0] == 0 and len(starts) == len(values)

    def test_region_rejects_dangling_continuation(self):
        with pytest.raises(ValueError, match="boundary"):
            decode_region_bulk(np.frombuffer(b"\x01\x85", dtype=np.uint8))

    # +/-(2^62 - 1): the widest magnitude whose zigzag fold (2|v|+1) still
    # fits the decoder's int64 lanes, same domain as scalar decode_stream
    @given(
        st.lists(
            st.integers(min_value=-(2**62) + 1, max_value=2**62 - 1), max_size=60
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_zigzag_matches_signed_varint(self, values):
        buf = bytearray()
        for v in values:
            encode_signed_varint(v, buf)
        zz, _ = decode_stream_bulk(bytes(buf), 0, len(values))
        got = zigzag_decode(zz)
        pos = 0
        for i, v in enumerate(values):
            ref, pos = decode_signed_varint(bytes(buf), pos)
            assert ref == v == got[i]


def _assert_chunk_matches_scalar(cg, chunk):
    owner, nbrs, wgts = cg.decode_chunk(chunk)
    degs = np.array(
        [len(cg._decode_scalar(int(u))[0]) for u in chunk], dtype=np.int64
    )
    assert np.array_equal(owner, np.repeat(np.arange(len(chunk)), degs))
    lo = 0
    for i, u in enumerate(chunk.tolist()):
        ref_n, ref_w = cg._decode_scalar(u)
        hi = lo + len(ref_n)
        assert np.array_equal(nbrs[lo:hi], ref_n), f"vertex {u}"
        if ref_w is None:
            assert np.all(wgts[lo:hi] == 1)
        else:
            assert np.array_equal(wgts[lo:hi], ref_w), f"vertex {u}"
        lo = hi
    assert lo == len(nbrs) == len(wgts)


def _chunk_shapes(n, rng):
    yield np.arange(n, dtype=np.int64)  # full scan
    yield np.arange(0, n, 3, dtype=np.int64)  # strided subset
    yield rng.permutation(n).astype(np.int64)  # LP's permuted order
    yield rng.permutation(n)[: max(1, n // 4)].astype(np.int64)
    yield np.empty(0, dtype=np.int64)  # empty chunk


class TestDecodeChunk:
    def test_families_match_scalar(self, family_graph):
        cg = compress_graph(family_graph)
        rng = np.random.default_rng(0)
        for chunk in _chunk_shapes(cg.n, rng):
            _assert_chunk_matches_scalar(cg, chunk)

    def test_rhg_matches_scalar(self, rhg_graph):
        cg = compress_graph(rhg_graph)
        _assert_chunk_matches_scalar(cg, np.arange(cg.n, dtype=np.int64))

    def test_no_intervals_matches_scalar(self, web_graph):
        cg = compress_graph(web_graph, enable_intervals=False)
        rng = np.random.default_rng(1)
        for chunk in _chunk_shapes(cg.n, rng):
            _assert_chunk_matches_scalar(cg, chunk)

    def test_weighted_matches_scalar(self, text_graph):
        assert text_graph.has_edge_weights
        cg = compress_graph(text_graph)
        rng = np.random.default_rng(2)
        for chunk in _chunk_shapes(cg.n, rng):
            _assert_chunk_matches_scalar(cg, chunk)

    def test_empty_neighborhoods(self):
        g = from_edges(10, np.array([[0, 1], [5, 6]], dtype=np.int64))
        cg = compress_graph(g)
        _assert_chunk_matches_scalar(cg, np.arange(10, dtype=np.int64))
        # a chunk of only isolated vertices
        owner, nbrs, wgts = cg.decode_chunk(np.array([2, 3, 4], dtype=np.int64))
        assert len(owner) == len(nbrs) == len(wgts) == 0

    def test_chunked_high_degree(self):
        # star + ring so one vertex far exceeds the threshold
        edges = [[0, v] for v in range(1, 301)]
        edges += [[v, v + 1] for v in range(1, 300)]
        g = from_edges(301, np.array(edges, dtype=np.int64))
        cg = compress_graph(g, high_degree_threshold=64, chunk_length=16)
        rng = np.random.default_rng(3)
        for chunk in _chunk_shapes(cg.n, rng):
            _assert_chunk_matches_scalar(cg, chunk)

    def test_chunked_high_degree_weighted(self):
        edges = np.array([[0, v] for v in range(1, 201)], dtype=np.int64)
        weights = np.arange(1, 201, dtype=np.int64) * 7
        g = from_edges(201, edges, weights)
        cg = compress_graph(g, high_degree_threshold=32, chunk_length=8)
        _assert_chunk_matches_scalar(cg, np.arange(cg.n, dtype=np.int64))

    def test_degrees_cache_matches_protocol(self, family_graph):
        cg = compress_graph(family_graph)
        degs = cg.degrees
        assert np.array_equal(degs, cg.degrees)  # cached object is stable
        for u in range(cg.n):
            assert degs[u] == len(cg._decode_scalar(u)[0])

    def test_full_adjacency_matches_csr(self, family_graph):
        cg = compress_graph(family_graph)
        src_c, dst_c, w_c = full_adjacency(family_graph)
        src_z, dst_z, w_z = full_adjacency(cg)
        assert np.array_equal(src_c, src_z)
        # neighborhoods agree as sets per vertex (CSR order is sorted too)
        assert np.array_equal(np.sort(dst_c), np.sort(dst_z))
        for u in (0, cg.n // 2, cg.n - 1):
            sel_c = src_c == u
            sel_z = src_z == u
            oc = np.argsort(dst_c[sel_c], kind="stable")
            oz = np.argsort(dst_z[sel_z], kind="stable")
            assert np.array_equal(dst_c[sel_c][oc], dst_z[sel_z][oz])
            assert np.array_equal(
                np.asarray(w_c)[sel_c][oc], np.asarray(w_z)[sel_z][oz]
            )

    def test_access_chunk_adjacency_dispatches_to_bulk(self, web_graph):
        cg = compress_graph(web_graph)
        chunk = np.arange(cg.n, dtype=np.int64)
        o1, n1, w1 = chunk_adjacency(cg, chunk)
        o2, n2, w2 = cg.decode_chunk(chunk)
        assert np.array_equal(o1, o2)
        assert np.array_equal(n1, n2)
        assert np.array_equal(w1, w2)

    def test_decompress_roundtrip_uses_bulk(self, family_graph):
        cg = compress_graph(family_graph)
        assert graphs_equal(decompress_graph(cg), family_graph)


def _upper_edges(g):
    """The ``(u, v)`` rows with ``u < v`` of a CSR graph."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    keep = src < g.adjncy
    return np.stack([src[keep], g.adjncy[keep]], axis=1)


@functools.cache
def _stream_cases():
    """One graph per shape of the per-vertex value stream."""
    web = _upper_edges(gen.weblike(600, 8.0, seed=3))
    ring = np.arange(200, dtype=np.int64)
    spread = np.concatenate(  # u ~ u+-2, u+-5: no run of three anywhere
        [np.stack([ring, (ring + d) % 200], axis=1) for d in (2, 5)]
    )
    bicliques = np.array(  # K(4,6) blocks: every neighborhood is one interval
        [
            (base + i, base + 4 + j)
            for base in range(0, 200, 10)
            for i in range(4)
            for j in range(6)
        ],
        dtype=np.int64,
    )
    gapped = web + 10 * (web // 50)  # ten isolated vertices after every fifty
    hub = np.concatenate(
        [web, np.stack([np.zeros(300, np.int64), np.arange(1, 600, 2)], axis=1)]
    )
    weights = np.random.default_rng(9).integers(1, 1000, size=len(web))
    return {
        "no-intervals": (from_edges(200, spread), {}),
        "only-intervals": (from_edges(200, bicliques), {}),
        "mixed": (from_edges(600, web), {}),
        "weighted": (from_edges(600, web, weights), {}),
        "degree-0": (from_edges(720, gapped), {}),
        "intervals-off": (from_edges(600, web), {"enable_intervals": False}),
        "hub-spliced": (
            from_edges(600, hub),
            {"high_degree_threshold": 64, "chunk_length": 16},
        ),
    }


class TestDecodeChunkStreamShapes:
    """``decode_chunk`` == ``_decode_scalar`` vertex by vertex, on every
    shape of value stream times every shape of chunk."""

    @pytest.mark.parametrize("case", list(_stream_cases()))
    def test_matches_scalar(self, case):
        graph, kw = _stream_cases()[case]
        cg = compress_graph(graph, **kw)
        stats = cg.stats
        if case == "no-intervals":
            assert stats.num_intervals == 0
        elif case == "only-intervals":
            assert stats.num_interval_edges == cg.num_directed_edges
        elif case == "mixed":
            assert 0 < stats.num_interval_edges < cg.num_directed_edges
        elif case == "degree-0":
            assert stats.num_intervals and np.count_nonzero(cg.degrees == 0) >= 100
        elif case == "hub-spliced":
            assert stats.num_chunked_vertices >= 1
        rng = np.random.default_rng(0)
        n = cg.n
        chunks = [
            rng.permutation(n)[: n // 2].astype(np.int64),  # permuted
            np.arange(n // 4, 3 * n // 4, dtype=np.int64),  # contiguous
            np.array([int(np.argmax(cg.degrees))], dtype=np.int64),  # single
            np.array([n - 1], dtype=np.int64),
            np.empty(0, dtype=np.int64),  # empty
        ]
        for chunk in chunks:
            _assert_chunk_matches_scalar(cg, chunk)


def _flip_one_bit(cg, rng):
    data = bytearray(cg.data)
    data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
    return type(cg)(
        cg.n,
        cg.num_directed_edges,
        cg.offsets,
        bytes(data),
        None,
        has_edge_weights=cg.has_edge_weights,
        config=cg.config,
        stats=cg.stats,
    )


class TestCorruptStream:
    """A damaged byte stream is refused with ``ValueError`` or decodes to
    arrays of the right length; it never escapes as an ``IndexError`` from a
    gather (ROADMAP 5(a))."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_single_byte_mutations(self, weighted):
        g = gen.weblike(2000, 8.0, seed=1)
        if weighted:
            edges = _upper_edges(g)
            w = np.random.default_rng(5).integers(1, 50, size=len(edges))
            g = from_edges(g.n, edges, w)
        cg = compress_graph(g)
        rng = np.random.default_rng(1)
        permuted = np.random.default_rng(0).permutation(g.n)[:512].astype(np.int64)
        outcomes = {"refused": 0, "decoded": 0}
        for _ in range(300):
            bad = _flip_one_bit(cg, rng)
            for chunk in (permuted, np.arange(g.n, dtype=np.int64)):
                try:
                    owner, nbrs, wgts = bad.decode_chunk(chunk)
                except ValueError:
                    outcomes["refused"] += 1
                    continue
                total = int(bad.degrees[chunk].sum())
                assert len(owner) == len(nbrs) == len(wgts) == total
                outcomes["decoded"] += 1
        assert outcomes["refused"] > 20 and outcomes["decoded"] > 20


class TestDecodeCache:
    def test_cached_results_equal_uncached(self, web_graph):
        cg = compress_graph(web_graph)
        rng = np.random.default_rng(4)
        chunks = [rng.permutation(cg.n).astype(np.int64) for _ in range(3)]
        ref = [cg.decode_chunk(c) for c in chunks]
        cg.enable_decode_cache(64 << 20)
        try:
            for c, (ro, rn, rw) in zip(chunks, ref):
                o, n, w = cg.decode_chunk(c)
                assert np.array_equal(o, ro)
                assert np.array_equal(n, rn)
                assert np.array_equal(w, rw)
            stats = cg.decode_cache_stats
            assert stats["misses"] > 0 and stats["hits"] > 0
        finally:
            cg.disable_decode_cache()
        assert cg.decode_cache_stats is None

    def test_lru_bound_is_respected(self, web_graph):
        cg = compress_graph(web_graph)
        cg.enable_decode_cache(4096, page_size=64)
        try:
            cg.decode_chunk(np.arange(cg.n, dtype=np.int64))
            stats = cg.decode_cache_stats
            assert stats["evictions"] > 0
            # at most one page over the bound at any time; after eviction
            # the resident set fits (modulo the single newest page)
            assert stats["pages"] <= 2 or stats["bytes"] <= 4096 * 2
        finally:
            cg.disable_decode_cache()

    def test_tracker_registration(self, web_graph):
        from repro.memory.tracker import MemoryTracker

        cg = compress_graph(web_graph)
        tracker = MemoryTracker()
        base = tracker.current_bytes
        cg.enable_decode_cache(64 << 20, tracker=tracker)
        cg.decode_chunk(np.arange(cg.n, dtype=np.int64))
        assert tracker.current_bytes > base
        assert tracker.current_bytes - base == cg.decode_cache_stats["bytes"]
        cg.disable_decode_cache()
        assert tracker.current_bytes == base
