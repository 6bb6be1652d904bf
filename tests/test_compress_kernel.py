"""The compiled run encoder, ``repro_encode_run`` in ``decode_kernel.c``,
against its oracles: the numpy ``oracles.encode_low_degree_oracle`` and,
for a row above the chunking threshold, the per-vertex
``oracles.encode_neighborhood``.

Both must produce the same bytes, offsets and :class:`CompressionStats` on
every input the compressors hand them. They must give the same named
refusals. Called raw, without the wrapper's checks, the kernel must write
nothing outside the buffers it was given. Every image also round-trips
through the decoder.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.graph import _native, compressed
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import (
    CompressionConfig,
    CompressionStats,
    compress_graph,
    decompress_graph,
)
from repro.graph.csr import CSRGraph

ERR_METADATA, ERR_RANGE = -7, -6
ERR_DESCENT, ERR_DUPLICATE, ERR_WEIGHT, ERR_CAPACITY = -8, -9, -10, -11
LIMIT = 1 << 62


def _image(graph, cut=None, **codec):
    """``graph`` compressed by :func:`compress_graph`, or with packets cut
    every ``cut`` vertices."""
    if cut is None:
        return compress_graph(graph, **codec)
    cuts = np.unique(np.append(np.arange(0, graph.n, cut), graph.n))
    return compressed._compress_packets(
        compressed._csr_packets(graph, cuts),
        graph.n,
        graph.num_directed_edges,
        graph.has_edge_weights,
        None,
        **codec,
    )


def _on_oracle(fn, *args, **kwargs):
    with oracles.installed("encode"):
        return fn(*args, **kwargs)


def _assert_kernel_is_oracle(graph, cut=None, **codec):
    """Same image on both paths, and it decodes back to the sorted input."""
    native = _image(graph, cut, **codec)
    oracle = _on_oracle(_image, graph, cut, **codec)
    assert native.data == oracle.data
    assert np.array_equal(native.offsets, oracle.offsets)
    assert native.stats == oracle.stats  # every field
    back, ref = decompress_graph(native), graph.with_sorted_neighborhoods()
    assert np.array_equal(back.indptr, ref.indptr)
    assert np.array_equal(back.adjncy, ref.adjncy)
    if graph.has_edge_weights:
        assert np.array_equal(back.adjwgt, np.asarray(ref.adjwgt))
    return native


def _reweighted(graph, weights):
    return CSRGraph(graph.indptr.copy(), graph.adjncy.copy(), weights, sorted_neighborhoods=True)


def _shuffled_rows(graph, seed=0):
    """The same graph with every row in random order (as an unsorted file holds it)."""
    rng = np.random.default_rng(seed)
    order = np.arange(graph.num_directed_edges)
    for u in range(graph.n):
        rng.shuffle(order[graph.indptr[u] : graph.indptr[u + 1]])
    weights = np.asarray(graph.adjwgt)[order] if graph.has_edge_weights else None
    return CSRGraph(graph.indptr.copy(), graph.adjncy[order], weights)


FAMILIES = {
    "weblike": lambda: gen.weblike(600, avg_degree=10, seed=1),
    "rgg2d": lambda: gen.rgg2d(500, 8.0, seed=2),
    "rhg": lambda: gen.rhg(500, 8.0, seed=3),
    "kmer": lambda: gen.kmer(700, 4, seed=4),
}


def _weights(graph, kind):
    rng = np.random.default_rng(7)
    m2 = graph.num_directed_edges
    if kind == "random":
        return rng.integers(1, 10**9, size=m2)
    return rng.integers(0, 3, size=m2)  # a third of them zero


class TestKernelIsOracle:
    @pytest.mark.parametrize("intervals", [True, False])
    @pytest.mark.parametrize("weights", ["unit", "random", "zeros"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family, weights, intervals):
        graph = FAMILIES[family]()
        if weights != "unit":
            graph = _reweighted(graph, _weights(graph, weights))
        cg = _assert_kernel_is_oracle(graph, enable_intervals=intervals)
        assert cg.stats.num_neighborhoods == graph.n

    @pytest.mark.parametrize("weighted", [False, True])
    def test_lowered_hub_threshold(self, weighted):
        graph = gen.star(500)
        if weighted:
            graph = _reweighted(graph, _weights(graph, "random"))
        cg = _assert_kernel_is_oracle(graph, high_degree_threshold=100, chunk_length=64)
        assert cg.stats.num_chunked_vertices == 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_unsorted_rows(self, family):
        graph = FAMILIES[family]()
        graph = _reweighted(graph, _weights(graph, "random"))
        _assert_kernel_is_oracle(_shuffled_rows(graph))
        _assert_kernel_is_oracle(
            _shuffled_rows(gen.star(300)), high_degree_threshold=100, chunk_length=64
        )

    @pytest.mark.parametrize("cut", [1, 7, 64])
    def test_packet_cuts(self, cut):
        graph = gen.weblike(400, avg_degree=8, seed=5)
        whole = _assert_kernel_is_oracle(graph)
        assert _assert_kernel_is_oracle(graph, cut).data == whole.data
        star = _reweighted(gen.star(200), _weights(gen.star(200), "zeros"))
        _assert_kernel_is_oracle(star, cut, high_degree_threshold=64, chunk_length=16)

    def test_empty_and_isolated(self):
        empty = from_edges(0, np.empty((0, 2), dtype=np.int64))
        isolated = from_edges(9, np.empty((0, 2), dtype=np.int64))
        for graph in (empty, isolated):
            for cut in (None, 1, 7):
                cg = _assert_kernel_is_oracle(graph, cut)
                assert cg.stats.num_neighborhoods == graph.n
        assert len(_image(isolated).data) == isolated.n  # one header byte each

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_graphs(self, data):
        n = data.draw(st.integers(1, 60))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        graph = from_edges(n, edges)
        weight = data.draw(st.sampled_from(["unit", "small", "wide"]))
        if weight != "unit":
            hi = 5 if weight == "small" else LIMIT // 4
            w = data.draw(
                st.lists(st.integers(-hi, hi), min_size=graph.num_directed_edges,
                         max_size=graph.num_directed_edges)
            )  # fmt: skip
            graph = _reweighted(graph, np.array(w, dtype=np.int64))
        if data.draw(st.booleans()):
            graph = _shuffled_rows(graph, data.draw(st.integers(0, 9)))
        chunk = data.draw(st.integers(1, 8))
        codec = {
            "enable_intervals": data.draw(st.booleans()),
            "high_degree_threshold": data.draw(st.integers(chunk, 12)),
            "chunk_length": chunk,
        }
        cut = data.draw(st.sampled_from([None, 1, 3, 7]))
        _assert_kernel_is_oracle(graph, cut, **codec)


# --------------------------------------------------------------------- #
# refusals: named, the same on both paths, before a byte is appended
# --------------------------------------------------------------------- #
@pytest.fixture(params=["native", "oracle"])
def path(request):
    if request.param == "oracle":
        with oracles.installed("encode"):
            yield request.param
    else:
        yield request.param


REFUSED = {
    # the issue's two cases: a repeated neighbour, a weight gap of 2^62 + 4
    "repeat": (CSRGraph([0, 3, 4, 5], [1, 1, 2, 0, 0]), {}, 0, "same neighbor twice"),
    "wide-gap": (
        CSRGraph([0, 2, 3, 4], [1, 2, 0, 0], np.array([1, 2**62 + 5, 1, 1])),
        {},
        0,
        "63 bits",
    ),
    # a repeat the interval split alone would have let through ([1, 2, 3] + 3)
    "repeat-after-interval": (
        CSRGraph([0, 1, 2, 3, 4, 5, 10], [5, 5, 5, 5, 5, 0, 1, 2, 3, 3]),
        {},
        5,
        "same neighbor twice",
    ),
    # a repeat hidden by a descent: sorted first, then refused
    "repeat-unsorted": (CSRGraph([0, 0, 3, 5], [2, 0, 2, 1, 1]), {}, 1, "same neighbor twice"),
    "negative-gap": (
        CSRGraph([0, 2, 3, 4], [1, 2, 0, 0], np.array([5, 5 - 2**62, 1, 1])),
        {},
        0,
        "63 bits",
    ),
    "first-weight": (CSRGraph([0, 1, 2], [1, 0], np.array([2**62, 1])), {}, 0, "63 bits"),
    # a chunk-encoded row is checked whole: refused the same way
    "hub-repeat": (
        CSRGraph([0, 4, 5, 6, 7], [1, 2, 2, 3, 0, 0, 0]),
        {"high_degree_threshold": 3, "chunk_length": 2},
        0,
        "same neighbor twice",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refusals_name_the_vertex_and_the_cause(case, path):
    graph, codec, vertex, cause = REFUSED[case]
    with pytest.raises(ValueError, match=f"vertex {vertex}: .*{cause}"):
        compress_graph(graph, **codec)


@pytest.mark.parametrize("case", ["repeat", "wide-gap", "repeat-unsorted"])
def test_refusal_comes_before_the_run_is_appended(case, path):
    graph, codec, _vertex, _cause = REFUSED[case]
    out, stats = bytearray(b"head"), CompressionStats()
    weights = np.asarray(graph.adjwgt) if graph.has_edge_weights else None
    with pytest.raises(ValueError):
        compressed._encode_packet(
            0, graph.indptr, graph.adjncy, weights, out, CompressionConfig(**codec), stats
        )
    assert out == b"head" and stats == CompressionStats()


def test_weight_gaps_at_the_fold_limit_round_trip(path):
    """``+-(2^62 - 1)`` fold into 63 bits: kept, and decoded back."""
    weights = np.array([LIMIT - 1, 0, -(LIMIT - 1), 0])
    graph = CSRGraph([0, 2, 3, 4], [1, 2, 0, 0], weights)
    back = decompress_graph(compress_graph(graph))
    assert np.array_equal(back.adjwgt, weights)


def test_scalar_encoder_refuses_the_same_rows():
    cfg, stats = CompressionConfig(), CompressionStats()
    with pytest.raises(ValueError, match="vertex 4: .*same neighbor twice"):
        oracles.encode_neighborhood(4, np.array([1, 2, 2]), None, 0, bytearray(), cfg, stats)
    with pytest.raises(ValueError, match="vertex 4: .*63 bits"):
        w = np.array([1, LIMIT + 1])
        oracles.encode_neighborhood(4, np.array([1, 2]), w, 0, bytearray(), cfg, stats)


# --------------------------------------------------------------------- #
# the raw-call contract (decode_kernel.c's header, writer's half)
# --------------------------------------------------------------------- #
PAD = 64
CANARY = 0xA5


def _raw(
    first_edge, nbrs, wgts=None, *, lo=0, intervals=True, cap=None, edges=None, hub=1 << 40,
    chunk=1,
):
    """Size pass, then write pass into ``cap`` bytes (default: the size, or
    room to spare for a refused run), every buffer the kernel writes fenced
    by canaries.  Returns ``(size, rc, bad, bytes)``."""
    kernel = _native.encode_kernel()
    fe = np.ascontiguousarray(first_edge, dtype=np.int64)
    nb = np.ascontiguousarray(nbrs, dtype=np.int64)
    w = None if wgts is None else np.ascontiguousarray(wgts, dtype=np.int64)
    count = len(fe) - 1
    edges = len(nb) if edges is None else edges
    bad = np.full(1, -1, dtype=np.int64)
    args = (lo, fe.ctypes.data, count, nb.ctypes.data, edges, None if w is None else w.ctypes.data,
            intervals, hub, chunk)  # fmt: skip
    size = kernel(*args, None, 0, None, None, bad.ctypes.data)
    if cap is None:
        cap = size if size >= 0 else 256
    out = np.full(cap + 2 * PAD, CANARY, dtype=np.uint8)
    starts = np.full(max(count, 0) + 2 * PAD, -7, dtype=np.int64)
    stats = np.full(5 + 2 * PAD, -7, dtype=np.int64)
    stats[PAD : PAD + 5] = 0
    rc = kernel(*args, out[PAD:].ctypes.data, cap, starts[PAD:].ctypes.data,
                stats[PAD:].ctypes.data, bad.ctypes.data)  # fmt: skip
    for buf, fill in ((out, CANARY), (starts, -7), (stats, -7)):
        assert np.all(buf[:PAD] == fill) and np.all(buf[len(buf) - PAD :] == fill), "canary"
    return size, rc, int(bad[0]), out[PAD : PAD + cap].tobytes()


class TestRawContract:
    FE = [10, 13, 13, 17, 18]  # a run starting at edge 10, one isolated vertex
    NB = [0, 1, 2, 0, 4, 5, 7, 3]
    W = [4, -4, 0, 1, 2, 3, 4, 9]

    def _oracle_bytes(self, weighted):
        stats = CompressionStats()
        blob, _ = oracles.encode_low_degree_oracle(
            2, np.array(self.FE), np.array(self.NB), np.array(self.W) if weighted else None,
            CompressionConfig(), stats,
        )  # fmt: skip
        return blob.tobytes(), stats

    @pytest.mark.parametrize("weighted", [False, True])
    def test_clean_call_writes_the_oracles_bytes(self, weighted):
        size, rc, _bad, data = _raw(self.FE, self.NB, self.W if weighted else None, lo=2)
        ref, stats = self._oracle_bytes(weighted)
        assert size == rc == len(ref) and data == ref
        assert stats.header_bytes == 4 and stats.num_neighborhoods == 4

    @pytest.mark.parametrize("short", [1, 2, 1000])
    def test_short_capacity_is_refused_inside_the_buffer(self, short):
        size, _rc, _bad, _data = _raw(self.FE, self.NB, self.W)
        _size, rc, bad, _data = _raw(self.FE, self.NB, self.W, cap=max(size - short, 0))
        assert rc == ERR_CAPACITY and 0 <= bad < 4

    def test_descending_row(self):
        size, rc, bad, _data = _raw([0, 2, 5], [1, 3, 2, 0, 1])
        assert size == rc == ERR_DESCENT and bad == 1

    def test_duplicate_neighbor(self):
        size, rc, bad, _data = _raw([0, 2, 5], [1, 3, 0, 2, 2])
        assert size == rc == ERR_DUPLICATE and bad == 1

    @pytest.mark.parametrize(
        "weights,code",
        [
            ([1, LIMIT], 0),  # gap 2^62 - 1
            ([1, LIMIT + 1], ERR_WEIGHT),  # gap 2^62
            ([-1, -LIMIT], 0),  # gap -(2^62 - 1)
            ([-1, -LIMIT - 1], ERR_WEIGHT),  # gap -2^62
            ([LIMIT, 0], ERR_WEIGHT),  # the first gap is taken against 0
        ],
    )
    def test_weight_gap_at_the_fold_limit(self, weights, code):
        size, rc, bad, _data = _raw([0, 2], [0, 1], weights, lo=5)
        if code:
            assert size == rc == code and bad == 0
        else:
            assert size > 0 and rc == size

    @pytest.mark.parametrize(
        "first_edge,nbrs,kw",
        [
            ([-1, 2], [0, 1], {}),  # negative first edge id
            ([0, 3, 2], [0, 1, 2], {}),  # first edge ids descend
            ([0, 2], [0, 1, 2], {}),  # more edges than the ids cover
            ([0, 3], [0, 1, 2], {"edges": 2}),  # a row past the edges handed over
            ([0, 1], [0], {"lo": -1}),
            ([0, 1], [0], {"lo": LIMIT}),
        ],
    )
    def test_hostile_metadata(self, first_edge, nbrs, kw):
        size, rc, _bad, _data = _raw(first_edge, nbrs, **kw)
        assert size == rc == ERR_METADATA

    @pytest.mark.parametrize("weighted", [False, True])
    def test_chunked_rows_write_the_oracles_bytes(self, weighted):
        """Above a threshold of 2 the rows of 3 and 4 neighbours go by chunks
        of 2: the bytes and stats of ``oracles.encode_run``."""
        w = self.W if weighted else None
        size, rc, _bad, data = _raw(self.FE, self.NB, w, lo=2, hub=2, chunk=2)
        stats, cfg = CompressionStats(), CompressionConfig(high_degree_threshold=2, chunk_length=2)
        ref, _ = oracles.encode_run(
            2, np.array(self.FE), np.array(self.NB), None if w is None else np.array(w), cfg, stats
        )
        assert size == rc == len(ref) and data == ref.tobytes()
        assert stats.num_chunked_vertices == 2

    @pytest.mark.parametrize("short", [1, 2, 1000])
    def test_short_capacity_inside_a_chunked_row(self, short):
        size, _rc, _bad, _data = _raw(self.FE, self.NB, self.W, hub=2, chunk=2)
        _size, rc, bad, _data = _raw(
            self.FE, self.NB, self.W, cap=max(size - short, 0), hub=2, chunk=2
        )
        assert rc == ERR_CAPACITY and 0 <= bad < 4

    @pytest.mark.parametrize(
        "nbrs,weights,code",
        [
            ([1, 3, 2, 4], None, ERR_DESCENT),  # across the chunk boundary
            ([1, 2, 2, 3], None, ERR_DUPLICATE),
            ([0, 1, 2, 3], [1, 2, LIMIT, LIMIT + 1], ERR_WEIGHT),  # chunk 1 starts from 0
            ([0, 1, 2, 2], [LIMIT, 0, 0, 0], ERR_DUPLICATE),  # the ids first, whole
            ([0, 1, 2, LIMIT], None, ERR_RANGE),
        ],
    )
    def test_a_chunked_row_is_checked_whole(self, nbrs, weights, code):
        size, rc, bad, _data = _raw([0, 4], nbrs, weights, hub=3, chunk=2)
        assert size == rc == code and bad == 0

    def test_chunk_weights_within_the_fold_range_unchunked(self):
        size, rc, _bad, _data = _raw([0, 4], [0, 1, 2, 3], [1, 2, LIMIT, LIMIT + 1])
        assert size > 0 and rc == size

    @pytest.mark.parametrize("hub,chunk", [(3, 0), (-1, 1), (3, -5)])
    def test_hostile_chunking(self, hub, chunk):
        size, rc, _bad, _data = _raw([0, 4], [0, 1, 2, 3], hub=hub, chunk=chunk)
        assert size == rc == ERR_METADATA

    @pytest.mark.parametrize("nbrs", [[-1, 2], [0, LIMIT]])
    def test_neighbor_ids_outside_the_fold_range(self, nbrs):
        size, rc, bad, _data = _raw([0, 2], nbrs)
        assert size == rc == ERR_RANGE and bad == 0
