"""Equivalence tests for the vectorized bulk decode layer (ISSUE 1).

The byte-parallel VarInt decoder and the chunk decoder must be *bit-exact*
equivalents of the scalar reference decoders on every graph family --
including interval-encoded, chunked high-degree, weighted, and empty
neighborhoods -- for every chunk shape LP's scheduler can produce.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    decode_signed_varint,
    decode_stream,
    decode_stream_bulk,
    encode_signed_varint,
    encode_stream,
    encode_varint,
    zigzag_decode,
)
from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.access import chunk_adjacency, full_adjacency
from repro.graph.builder import from_edges
from repro.graph.compressed import (
    CompressedGraph,
    CompressionConfig,
    CompressionStats,
    compress_graph,
    decompress_graph,
)
from repro.graph.varint import decode_region_bulk, decode_varint
from repro.memory import scratch
from repro.memory.tracker import MemoryTracker

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


def _decoder(which):
    """A context pinning ``decode_chunk`` to the compiled kernel or to the
    numpy oracle of ``tests/oracles.py``."""
    return oracles.installed("decode") if which == "oracle" else contextlib.nullcontext()


class _OnEachDecoder:
    """A suite written once and collected twice: the class itself runs on the
    numpy oracle, its ``...Native`` subclass on the compiled kernel."""

    decoder = "oracle"

    @pytest.fixture(autouse=True)
    def _pin_decoder(self):
        with _decoder(self.decoder):
            yield


def _assert_chunk_matches_scalar(cg, chunk):
    owner, nbrs, wgts = cg.decode_chunk(chunk)
    degs = np.array(
        [len(oracles.neighborhood(cg, int(u))[0]) for u in chunk], dtype=np.int64
    )
    assert np.array_equal(owner, np.repeat(np.arange(len(chunk)), degs))
    lo = 0
    for i, u in enumerate(chunk.tolist()):
        ref_n, ref_w = oracles.neighborhood(cg, u)
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
            assert degs[u] == len(oracles.neighborhood(cg, u)[0])

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


class TestDecodeChunkStreamShapes(_OnEachDecoder):
    """``decode_chunk`` == ``oracles.neighborhood`` vertex by vertex, on every
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


class TestDecodeChunkStreamShapesNative(TestDecodeChunkStreamShapes):
    decoder = "native"


def _clone(cg, *, data=None, offsets=None):
    return CompressedGraph(
        cg.n,
        cg.num_directed_edges,
        cg.offsets if offsets is None else offsets,
        cg.data if data is None else bytes(data),
        None,
        has_edge_weights=cg.has_edge_weights,
        config=cg.config,
        stats=cg.stats,
    )


def _flip_one_bit(cg, rng):
    data = bytearray(cg.data)
    data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
    return _clone(cg, data=data)


def _weighted_weblike(n, seed):
    g = gen.weblike(n, 8.0, seed=seed)
    edges = _upper_edges(g)
    w = np.random.default_rng(5).integers(1, 50, size=len(edges))
    return from_edges(g.n, edges, w)


class TestCorruptStream(_OnEachDecoder):
    """A damaged byte stream is refused with ``ValueError`` or decodes to
    arrays of the right length; it never escapes as an ``IndexError`` from a
    gather (ROADMAP 5(a))."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_single_byte_mutations(self, weighted):
        g = _weighted_weblike(2000, 1) if weighted else gen.weblike(2000, 8.0, seed=1)
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

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("hub_threshold", [10_000, 64], ids=["no-hubs", "hubs"])
    def test_header_byte_mutations(self, weighted, hub_threshold):
        """A header that lies about its neighbour's degree -- one random byte,
        a set continuation bit, a run of continuation bytes (a first edge id
        of up to 2**56) -- while the vertex it belongs to is not asked for, so
        no negative degree gives it away.  The neighbour may now look like a
        hub and take the per-vertex splice, or claim 10**13 output slots:
        ``ValueError`` naming a vertex, never ``IndexError`` / ``MemoryError``
        (ROADMAP 5(a); at the parent 229 of 1 200 decodes asked numpy for
        169 TiB)."""
        g = _weighted_weblike(2000, 1) if weighted else gen.weblike(2000, 8.0, seed=1)
        cg = compress_graph(g, high_degree_threshold=hub_threshold, chunk_length=16)
        assert (cg.max_degree > hub_threshold) == (hub_threshold == 64)
        rng = np.random.default_rng(2)
        outcomes = {"refused": 0, "decoded": 0, "hub": 0}
        for trial in range(300):
            data = bytearray(cg.data)
            # every third mutant sits near the end of the stream, where a
            # decoder that runs on finds no bytes at all
            v = int(rng.integers(g.n - 40, g.n) if trial % 3 == 0 else rng.integers(1, g.n))
            pos = int(cg.offsets[v])
            _, end = decode_varint(cg.data, pos)
            at = int(rng.integers(pos, end))
            if trial % 4 == 0:
                data[at] = int(rng.integers(256))
            elif trial % 4 == 1:
                data[at] |= 0x80
            else:
                run = int(rng.integers(1, 9))
                data[pos : pos + run] = bytes(0x80 | int(b) for b in rng.integers(128, size=run))
            bad = _clone(cg, data=data)
            permuted = np.random.default_rng(trial).permutation(g.n)[:512]
            for chunk in (np.arange(g.n), permuted):
                chunk = chunk[chunk != v].astype(np.int64)
                try:
                    owner, nbrs, wgts = bad.decode_chunk(chunk)
                except ValueError as exc:
                    outcomes["refused"] += 1
                    if "chunked neighborhood" in str(exc):  # the splice names its vertex
                        bad_vertex = int(str(exc).split("vertex ")[1].split()[0])
                        assert bad.degrees[bad_vertex] > hub_threshold
                        outcomes["hub"] += 1
                    continue
                total = int(bad.degrees[chunk].sum())
                assert len(owner) == len(nbrs) == len(wgts) == total
                outcomes["decoded"] += 1
        assert outcomes["refused"] > 20 and outcomes["decoded"] > 20, outcomes
        assert (outcomes["hub"] > 0) == (hub_threshold == 64), outcomes


    def test_an_empty_stream_names_the_first_vertex(self):
        """Three vertices and no bytes: the first header has none to read."""
        empty = CompressedGraph(
            3, 0, np.zeros(4, dtype=np.int64), b"", None,
            has_edge_weights=False, config=CompressionConfig(), stats=CompressionStats(),
        )  # fmt: skip
        for read in (lambda: empty.degrees, lambda: empty.decode_chunk(np.arange(3))):
            with pytest.raises(ValueError, match="header of vertex 0 runs past its bytes"):
                read()

    def test_an_empty_byte_range_does_not_borrow_the_next_header(self):
        """Vertex 5's range emptied (vertex 4's now holds its bytes): its
        header is not read from vertex 6's first byte."""
        cg = compress_graph(gen.weblike(300, 6.0, seed=2))
        offsets = cg.offsets.copy()
        offsets[5] = offsets[6]
        bad = _clone(cg, offsets=offsets)
        for read in (lambda: bad.degrees, lambda: bad.decode_chunk(np.arange(cg.n))):
            with pytest.raises(ValueError, match="header of vertex 5 runs past its bytes"):
                read()


class TestCorruptStreamNative(TestCorruptStream):
    decoder = "native"


def _hand_built(n, u, deg, body, weighted=False):
    """A stream in which only vertex ``u`` has neighbors: ``body`` follows
    its header, and the next header makes its degree ``deg``.  Unit weights,
    or ``weighted``: ``body`` then ends in the row's weight gaps."""
    data = bytearray()
    offsets = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        offsets[v] = len(data)
        encode_varint(0 if v <= u else deg, data)  # header: first edge id
        if v == u:
            data += body
    offsets[n] = len(data)
    return CompressedGraph(
        n, deg, offsets, bytes(data), None,
        has_edge_weights=weighted, config=CompressionConfig(), stats=CompressionStats(),
    )  # fmt: skip


def _body(u, *, intervals=(), residuals=()):
    """``(degree, bytes)`` of one neighborhood laid out as ``oracles.encode_block``
    does, without its checks, so ids outside the graph can be written."""
    out = bytearray()
    encode_varint(len(intervals), out)
    prev_end = None
    for left, length in intervals:
        if prev_end is None:
            encode_signed_varint(left - u, out)
        else:
            encode_varint(left - prev_end, out)
        encode_varint(length - 3, out)
        prev_end = left + length
    prev = None
    for v in residuals:
        if prev is None:
            encode_signed_varint(v - u, out)
        else:
            encode_varint(v - prev - 1, out)
        prev = v
    return sum(l for _, l in intervals) + len(residuals), out


class TestNeighborRange(_OnEachDecoder):
    """A decoded id outside ``[0, n)`` is refused, not returned (ROADMAP 5(a))."""

    N, U = 20, 2

    @pytest.mark.parametrize(
        "shape",
        [
            dict(residuals=(N + 5,)),  # first residual past the last vertex
            dict(residuals=(-3,)),  # signed first gap lands below zero
            dict(residuals=(4, N)),  # a later gap walks off the end
            dict(intervals=((-3, 4),)),
            dict(intervals=((N - 2, 3),)),
            dict(intervals=((3, 3), (N - 1, 3)), residuals=(1,)),
        ],
        ids=["res-n+5", "res--3", "res-last", "iv-left", "iv-right", "iv-second"],
    )
    def test_out_of_range_id_refused(self, shape):
        cg = _hand_built(self.N, self.U, *_body(self.U, **shape))
        with pytest.raises(ValueError, match="out of range"):
            cg.decode_chunk(np.arange(self.N, dtype=np.int64))

    def test_in_range_twin_decodes(self):
        body = _body(self.U, intervals=((3, 3), (self.N - 3, 3)), residuals=(0, 9))
        cg = _hand_built(self.N, self.U, *body)
        owner, nbrs, wgts = cg.decode_chunk(np.arange(self.N, dtype=np.int64))
        assert nbrs.tolist() == [0, 3, 4, 5, 9, 17, 18, 19]
        assert owner.tolist() == [self.U] * 8 and wgts.tolist() == [1] * 8

    def test_residual_inside_interval_refused(self):
        body = _body(self.U, intervals=((5, 3),), residuals=(6,))
        cg = _hand_built(self.N, self.U, *body)
        with pytest.raises(ValueError, match="contains a residual"):
            cg.decode_chunk(np.arange(self.N, dtype=np.int64))

    def test_varint_wider_than_63_bits_refused(self):
        wide = bytes([0x00]) + bytes([0xFF] * 9) + bytes([0x01])  # nI=0, 2**63 + ...
        cg = _hand_built(self.N, self.U, 1, wide)
        with pytest.raises(ValueError, match="too long"):
            cg.decode_chunk(np.arange(self.N, dtype=np.int64))


class TestNeighborRangeNative(TestNeighborRange):
    decoder = "native"


class TestTwoFaultsInARow(_OnEachDecoder):
    """A row with two faults gets the code ``graph/neighborhood.h`` names
    first: residuals in stream order, then the weights, then the byte count.
    A weight fault is held until every residual was read, so a bad residual
    wins over it wherever the two sit, and it wins over a byte count that is
    off.  Both decoders are held to that code."""

    N, U = 20, 2
    TOO_LONG = bytes([0xFF] * 9 + [0x01])  # a weight gap wider than 63 bits
    CUT = bytes([0x80])  # a weight gap whose VarInt runs past the row

    def decode(self, residuals, weights, tail=b""):
        deg, body = _body(self.U, residuals=residuals)
        body += b"".join(weights) + tail
        cg = _hand_built(self.N, self.U, deg, body, weighted=True)
        return cg.decode_chunk(np.arange(self.N, dtype=np.int64))

    def test_the_twin_decodes(self):
        gaps = [bytearray(), bytearray()]
        encode_signed_varint(7, gaps[0])
        encode_signed_varint(-2, gaps[1])
        owner, nbrs, wgts = self.decode((3, 9), gaps)
        assert nbrs.tolist() == [3, 9] and wgts.tolist() == [7, 5]

    def test_a_weight_fault_then_a_bad_residual(self):
        with pytest.raises(ValueError, match="out of range"):
            self.decode((3, self.N + 5), [self.TOO_LONG, bytes([0])])

    def test_a_bad_residual_then_a_weight_fault(self):
        with pytest.raises(ValueError, match="out of range"):
            self.decode((self.N + 5, self.N + 6), [bytes([0]), self.CUT])

    def test_a_weight_fault_before_a_byte_count_fault_is_the_weight(self):
        with pytest.raises(ValueError, match="too long"):
            self.decode((3, 9), [self.TOO_LONG, bytes([0])], tail=bytes([0]))


class TestTwoFaultsInARowNative(TestTwoFaultsInARow):
    decoder = "native"


class TestHostileMetadata(_OnEachDecoder):
    """Metadata the decoder must not follow: ``ValueError``, never a crash."""

    @pytest.fixture()
    def cg(self):
        return compress_graph(gen.weblike(300, 6.0, seed=2))

    def test_flipped_header_gives_negative_degree(self, cg):
        # first edge id of vertex 1 is deg(0) < 64: one byte, bit 6 clear
        at = int(cg.offsets[1])
        assert cg.data[at] < 64 and cg.degrees[0] + cg.degrees[1] < 64
        data = bytearray(cg.data)
        data[at] ^= 0x40
        bad = _clone(cg, data=data)
        assert bad.degrees[1] < 0
        with pytest.raises(ValueError, match="negative degree"):
            bad.decode_chunk(np.arange(cg.n, dtype=np.int64))

    def test_non_monotone_offsets(self, cg):
        offsets = cg.offsets.copy()
        offsets[[10, 11]] = offsets[[11, 10]]
        with pytest.raises(ValueError, match="offsets"):
            _clone(cg, offsets=offsets).decode_chunk(np.arange(cg.n, dtype=np.int64))

    def test_offsets_past_the_data(self, cg):
        bad = _clone(cg, data=cg.data[: len(cg.data) // 2])
        with pytest.raises(ValueError):
            bad.decode_chunk(np.arange(cg.n, dtype=np.int64))


class TestHostileMetadataNative(TestHostileMetadata):
    decoder = "native"


def _outcome(cg, chunk, which):
    with _decoder(which):
        try:
            return cg.decode_chunk(chunk)
        except ValueError:
            return None


def _message(cg, chunk, which):
    """What decoding ``chunk`` raises on one decoder (``None``: it decodes)."""
    with _decoder(which):
        try:
            cg.decode_chunk(chunk)
        except ValueError as err:
            return str(err)
    return None


class TestDecodersAgree:
    """Differential fuzz: on a damaged stream the compiled kernel and the
    numpy oracle reach the same outcome -- the same three arrays, or both
    refuse with ``ValueError``."""

    FLIPS = 1100  # per weighting; two chunks each

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_single_bit_flips(self, weighted):
        g = _weighted_weblike(400, 7) if weighted else gen.weblike(400, 8.0, seed=7)
        cg = compress_graph(g)
        rng = np.random.default_rng(11)
        chunks = (
            np.random.default_rng(0).permutation(g.n)[:128].astype(np.int64),
            np.arange(100, 300, dtype=np.int64),
        )
        refused = decoded = 0
        for flip in range(self.FLIPS):
            bad = _flip_one_bit(cg, rng)
            try:
                bad.degrees
            except ValueError:  # a header neither decoder gets to see
                continue
            for chunk in chunks:
                got = _outcome(bad, chunk, "native")
                ref = _outcome(bad, chunk, "oracle")
                assert (got is None) == (ref is None), (flip, got, ref)
                if ref is None:
                    refused += 1
                    continue
                decoded += 1
                for a, b in zip(got, ref):
                    assert np.array_equal(a, b), flip
        assert refused > 100 and decoded > 100, (refused, decoded)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_byte_flips_get_the_compiled_message(self, weighted):
        """A row is refused value by value, as ``graph/neighborhood.h`` reads
        it, and a chunk by its first faulty row: on every damaged chunk both
        decoders raise the same message, or neither raises."""
        g = _weighted_weblike(300, 7) if weighted else gen.weblike(300, 8.0, seed=7)
        cg = compress_graph(g)
        rng = np.random.default_rng(13)
        chunks = (
            np.arange(g.n, dtype=np.int64),
            np.random.default_rng(1).permutation(g.n).astype(np.int64),
        )
        refused = 0
        for flip in range(1500):
            data = bytearray(cg.data)
            data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
            bad = _clone(cg, data=data)
            chunk = chunks[flip % 2]
            got = _message(bad, chunk, "native")
            assert _message(bad, chunk, "oracle") == got, flip
            refused += got is not None
        assert refused > 500, refused


def _raw_kernel_call(
    cg, chunk, degs, *, data=None, offsets=None, n=None, short=0, chunk_length=None
):
    """Call the kernel the way ``_decode_chunk_native`` does, minus the
    Python-side checks, with canaries around every output buffer."""
    kernel = _native.decode_kernel()
    data = cg._data_u8 if data is None else data
    offsets = cg.offsets if offsets is None else offsets
    total = int(np.maximum(degs, 0).sum()) - short
    pad = 64
    bufs = [np.full(total + 2 * pad, -7, dtype=np.int64) for _ in range(3)]
    pairs = np.full(2 * (int(max(degs.max(), 0)) // 3) + 2 * pad, -7, dtype=np.int64)
    bad = np.zeros(1, dtype=np.int64)
    rc = kernel(
        data.ctypes.data, len(data), offsets.ctypes.data,
        cg.n if n is None else n,
        chunk.ctypes.data, degs.ctypes.data, len(chunk),
        cg.config.high_degree_threshold,
        cg.config.chunk_length if chunk_length is None else chunk_length,
        cg.config.enable_intervals,
        bufs[0][pad:].ctypes.data, bufs[1][pad:].ctypes.data,
        bufs[2][pad:].ctypes.data if cg.has_edge_weights else None,
        total, pairs[pad:].ctypes.data, len(pairs) - 2 * pad, bad.ctypes.data,
    )  # fmt: skip
    for b in (*bufs, pairs):
        assert np.all(b[:pad] == -7) and np.all(b[len(b) - pad :] == -7), "canary"
    return rc


class TestKernelContract:
    """``decode_kernel.c`` defends itself: called without the wrapper's
    checks it returns an error code and writes nothing outside the slots it
    was given."""

    @pytest.fixture(scope="class")
    def cg(self):
        return compress_graph(_weighted_weblike(400, 3))

    def test_clean_call_fills_exactly_the_slots(self, cg):
        chunk = np.arange(cg.n, dtype=np.int64)
        assert _raw_kernel_call(cg, chunk, cg.degrees.copy()) == 0

    def test_hostile_arguments_return_metadata_error(self, cg):
        chunk = np.arange(50, dtype=np.int64)
        degs = cg.degrees[chunk]
        swapped = cg.offsets.copy()
        swapped[[10, 11]] = swapped[[11, 10]]
        negative = degs.copy()
        negative[7] = -5
        # a vertex whose byte range borrows its neighbor's: read, and refused
        assert _raw_kernel_call(cg, chunk, degs, offsets=swapped) < 0
        for kw, c, d in (
            (dict(offsets=cg.offsets + len(cg.data)), chunk, degs),
            (dict(offsets=cg.offsets - 10**9), chunk, degs),
            (dict(data=cg._data_u8[: len(cg.data) // 8]), chunk + 300, cg.degrees[chunk + 300]),
            ({}, chunk, negative),
            (dict(short=1), chunk, degs),  # fewer slots handed over than asked for
            (dict(short=-1), chunk, degs),
            ({}, np.array([cg.n], dtype=np.int64), np.array([3], dtype=np.int64)),
            ({}, np.array([-1], dtype=np.int64), np.array([3], dtype=np.int64)),
        ):
            assert _raw_kernel_call(cg, c, d, **kw) == -7

    def test_wrong_degrees_never_write_outside_their_slots(self, cg):
        """Degrees that disagree with the stream (what a flipped header
        produces) plus flipped bytes: any return code, canaries intact."""
        rng = np.random.default_rng(4)
        chunk = rng.permutation(cg.n)[:200].astype(np.int64)
        codes = set()
        for _ in range(300):
            data = np.frombuffer(cg.data, dtype=np.uint8).copy()
            data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
            degs = cg.degrees[chunk] + rng.integers(-1, 3, size=len(chunk)) * (
                rng.random(len(chunk)) < 0.02
            )
            codes.add(_raw_kernel_call(cg, chunk, np.maximum(degs, 0), data=data))
        assert codes <= set(_native.ERRORS) | {0} and len(codes) >= 4, codes


class TestKernelContractChunked:
    """The same contract on chunk-encoded rows (threshold 32, chunks of 8)."""

    @pytest.fixture(scope="class")
    def cg(self):
        cg = compress_graph(_weighted_weblike(400, 3), high_degree_threshold=32, chunk_length=8)
        assert cg.stats.num_chunked_vertices > 0
        return cg

    def test_clean_call_fills_exactly_the_slots(self, cg):
        chunk = np.arange(cg.n, dtype=np.int64)
        assert _raw_kernel_call(cg, chunk, cg.degrees.copy()) == 0

    def test_a_chunk_length_past_the_row_is_refused(self):
        star = compress_graph(gen.star(41), high_degree_threshold=32, chunk_length=8)
        data = np.frombuffer(star.data, dtype=np.uint8).copy()
        _, at = decode_varint(star.data, int(star.offsets[0]))  # the first chunk's length
        assert int(star.offsets[1]) - at < 0x7F
        data[at] = 0x7F
        chunk, degs = np.array([0], dtype=np.int64), star.degrees[:1].copy()
        assert _raw_kernel_call(star, chunk, degs, data=data) == -12
        assert _raw_kernel_call(star, chunk, degs, chunk_length=0) == -7

    def test_wrong_degrees_never_write_outside_their_slots(self, cg):
        rng = np.random.default_rng(5)
        hubs = np.flatnonzero(cg.degrees > cg.config.high_degree_threshold)
        chunk = np.concatenate([hubs, rng.permutation(cg.n)[:100]]).astype(np.int64)
        codes = set()
        for _ in range(300):
            data = np.frombuffer(cg.data, dtype=np.uint8).copy()
            at = int(cg.offsets[int(rng.choice(hubs))])
            data[int(rng.integers(at, at + 40))] ^= 1 << int(rng.integers(8))
            degs = cg.degrees[chunk] + rng.integers(-1, 3, size=len(chunk)) * (
                rng.random(len(chunk)) < 0.02
            )
            codes.add(_raw_kernel_call(cg, chunk, np.maximum(degs, 0), data=data))
        assert codes <= set(_native.ERRORS) | {0} and len(codes) >= 4, codes


def test_native_scratch_charge_is_at_most_the_oracles():
    """With ``obs.track_scratch`` on, the ledger sees what the compiled path
    allocates per chunk: owner + neighbors + one interval buffer of at most
    max-degree slots -- no more than the oracle's tracked temporaries."""
    cg = compress_graph(gen.weblike(10_000, 10, seed=42))
    cg.degrees  # the per-graph cache is not per-chunk scratch
    order = np.random.default_rng(0).permutation(cg.n).astype(np.int64)

    def charged(chunk, which):
        tracker = MemoryTracker()
        scratch.install_ledger(tracker)
        try:
            with _decoder(which):
                out = cg.decode_chunk(chunk)
        finally:
            scratch.uninstall_ledger()
        assert tracker.breakdown().keys() <= {"scratch"}
        return tracker.peak_bytes, len(out[1])

    for chunk in np.array_split(order, 16):
        native, total = charged(chunk, "native")
        oracle, _ = charged(chunk, "oracle")
        max_deg = int(cg.degrees[chunk].max())
        assert native == 8 * (2 * total + 2 * (max_deg // 3))
        assert native <= oracle, (native, oracle)


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
