"""Contraction on the rating map (``lp_kernel.c``'s ``repro_contract_chunk``
and ``repro_group_by_label``) against the numpy pipelines it replaces.

Every coarse graph is aggregated by ``kernels.contraction_step``, the kernel;
its numpy oracle is ``oracles.contraction_step`` (member gather, the
members' adjacency, the sort of ``kernels.aggregate_coarse_edges``).  Buffered
and one-pass contraction are one call per level and must build the same
coarse CSR byte for byte either way; a rank of distributed contraction is
one call over its own rows.  All are held to that over CSR
and compressed input (intervals on and off, hubs mixed in), weighted edges,
identity / single / random clusterings and the empty graph.
Called without the wrapper's checks on corrupted arrays, the kernel returns
an error code, writes nothing outside the buffers it was given and leaves its
rating map zeroed; through the two contractions that is a ``ValueError``.
The leader scan refuses a label that is not a vertex id on every path.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.core.coarsening import contraction
from repro.core.coarsening.contraction import contract_buffered, dense_remap
from repro.core.coarsening.one_pass_contraction import contract_one_pass
from repro.core.config import kaminpar, terapart
from repro.core.context import PartitionContext
from repro.core.kernels import cluster_leaders, contraction_step, group_by_label
from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.compressed import CompressedGraph, compress_graph
from repro.graph.csr import CSRGraph
from repro.memory import MemoryTracker
from repro.parallel import ParallelRuntime
from test_bulk_decode import _clone
from test_initial_kernel import Guarded
from test_lp_kernel import DecodeCalls, both_ways, csr, weighted

def context(graph, preset=terapart, chunk_size=64) -> PartitionContext:
    return PartitionContext(
        config=preset(seed=7, p=4),
        k=4,
        total_vertex_weight=graph.total_vertex_weight,
        tracker=MemoryTracker(),
        runtime=ParallelRuntime(4, chunk_size=chunk_size),
    )


def on_oracle(fn, *args, **kwargs):
    """``fn(...)`` with the contraction oracles in the kernel's place."""
    with oracles.installed("contraction"):
        return fn(*args, **kwargs)


def clustering(graph, kind: str, seed: int = 0):
    """``(clusters, weights)``: leaders are member ids, as LP leaves them."""
    n = graph.n
    if kind == "identity":
        clusters = np.arange(n, dtype=np.int64)
    elif kind == "single":
        clusters = np.zeros(n, dtype=np.int64)
    else:  # about four members a cluster, scattered over the id range
        rng = np.random.default_rng(seed)
        group = rng.integers(0, max(1, n // 4), size=n)
        first = np.full(max(1, n // 4), n, dtype=np.int64)
        np.minimum.at(first, group, np.arange(n))
        clusters = first[group]
    weights = np.zeros(n, dtype=np.int64)
    np.add.at(weights, clusters, np.asarray(graph.vwgt))
    return clusters, weights


def assert_same_contraction(graph, clusters, weights, contract, ctx_of):
    got = contract(graph, clusters.copy(), weights.copy(), ctx_of(graph))
    want = on_oracle(contract, graph, clusters.copy(), weights.copy(), ctx_of(graph))
    for name in ("indptr", "adjncy", "vwgt"):
        a, b = getattr(got.coarse, name), getattr(want.coarse, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.coarse.has_edge_weights == want.coarse.has_edge_weights
    assert np.array_equal(got.coarse.adjwgt, want.coarse.adjwgt)
    assert np.array_equal(got.fine_to_coarse, want.fine_to_coarse)
    assert got.bumped_clusters == want.bumped_clusters
    return got


FAMILIES = {
    "mesh": lambda: gen.rgg2d(400, 8.0, seed=3),
    "web": lambda: gen.weblike(400, 7.0, seed=3),
    "kmer": lambda: gen.kmer(400, 4, seed=3),
    "sparse": lambda: gen.er(400, 1.5, seed=3),  # a third of it has no edge
}
INPUTS = ("csr", "compressed", "compressed-no-intervals", "hubs")
MATRIX = list(
    itertools.product(FAMILIES, ("unit", "random", "zeros"), INPUTS, ("random", "identity", "single"))
)
MATRIX_IDS = ["-".join(case) for case in MATRIX]


def graph_of(family: str, edge_weights: str, kind: str):
    base = weighted(FAMILIES[family](), edge_weights, "random")
    if kind == "csr":
        return base
    if kind == "hubs":  # a lowered chunking threshold: hub and stream chunks mix
        return compress_graph(base, high_degree_threshold=12, chunk_length=4)
    return compress_graph(base, enable_intervals=kind == "compressed")


# --------------------------------------------------------------------- #
# kernel == oracle, level by level and chunk by chunk
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("case", MATRIX, ids=MATRIX_IDS)
def test_buffered_is_byte_identical(case):
    family, edge_weights, kind, clusters_kind = case
    graph = graph_of(family, edge_weights, kind)
    clusters, weights = clustering(graph, clusters_kind)
    out = assert_same_contraction(
        graph, clusters, weights, contract_buffered, lambda g: context(g, kaminpar)
    )
    if edge_weights != "zeros":  # validate() wants positive weights
        out.coarse.validate()


@pytest.mark.parametrize("case", MATRIX, ids=MATRIX_IDS)
def test_one_pass_is_byte_identical(case):
    family, edge_weights, kind, clusters_kind = case
    graph = graph_of(family, edge_weights, kind)
    clusters, weights = clustering(graph, clusters_kind)
    out = assert_same_contraction(
        graph, clusters, weights, contract_one_pass, lambda g: context(g, chunk_size=16)
    )
    if edge_weights != "zeros":
        out.coarse.validate()


@pytest.mark.parametrize("on", ["kernel", "oracle"])
@pytest.mark.parametrize("kind", ["csr", "compressed", "hubs"])
def test_one_pass_is_one_step_call_a_level(kind, on):
    """The coarse vertices are numbered in run order before the walk, so a
    level of many chunks is one contraction step (bound where
    ``aggregate_clusters`` calls it): one compiled call with the kernel, one
    oracle step and no compiled call under the oracle."""
    graph = graph_of("web", "random", kind)
    clusters, weights = clustering(graph, "random")
    n_coarse = len(cluster_leaders(clusters))
    assert n_coarse > 16  # more than one chunk of 16
    steps, compiled = [], []
    kernel, group = _native.contraction_kernels()
    phase = oracles.installed("contraction") if on == "oracle" else contextlib.nullcontext()
    with phase, pytest.MonkeyPatch.context() as m:
        bind = contraction.contraction_step  # the kernel's or the oracle's

        def counted(*args):
            step = bind(*args)
            return lambda *call: steps.append(len(call[1]) - 1) or step(*call)

        m.setattr(contraction, "contraction_step", counted)
        m.setattr(
            _native, "contraction_kernels", lambda: (lambda *a: compiled.append(a) or kernel(*a), group)
        )
        contract_one_pass(graph, clusters, weights, context(graph, chunk_size=16))
    assert steps == [n_coarse]
    assert len(compiled) == (1 if on == "kernel" else 0)


def assert_same_step(kernel, oracle, *call):
    got, want = kernel(*call), oracle(*call)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


@pytest.mark.parametrize("kind", INPUTS)
def test_one_pass_chunks_agree(kind):
    """A whole level's step -- member edges read, per coarse vertex its
    degree, and the ``(coarse id, weight)`` pairs ``E'`` receives, rows
    ascending -- is the oracle's, with the coarse vertices numbered in
    leader order (buffered contraction) or in a shuffled run order
    (one-pass contraction), written into a caller's ``E'`` or not."""
    graph = graph_of("web", "random", kind)
    clusters, _ = clustering(graph, "random", seed=4)
    leaders = cluster_leaders(clusters)
    n_coarse = len(leaders)
    hubs = DecodeCalls(graph) if kind == "hubs" else None
    for numbering in (leaders, np.random.default_rng(4).permutation(leaders)):
        fine_to_coarse = dense_remap(clusters, numbering)
        kernel = contraction_step(graph, fine_to_coarse, n_coarse)
        oracle = oracles.contraction_step(graph, fine_to_coarse, n_coarse)
        members, groups = group_by_label(fine_to_coarse, n_coarse)
        want = assert_same_step(kernel, oracle, members, groups)
        rows = np.split(want[2], np.cumsum(want[1])[:-1])
        assert all(np.all(np.diff(row) > 0) for row in rows)
        eprime = np.full((2, graph.num_directed_edges + 5), -1, dtype=np.int64)
        got = kernel(members, groups, eprime)
        assert got[0] == want[0] and all(map(np.array_equal, got[1:], want[1:]))
        assert np.shares_memory(got[2], eprime) and np.shares_memory(got[3], eprime)
    if hubs is not None:  # the oracle decodes the level's hubs, the kernel none
        assert hubs.calls == 2


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("ranks", [2, 3, 8])
def test_a_ranks_rows_agree(kind, ranks):
    """Distributed contraction's pre-merge: one call over a rank's rows, a
    group per coarse id, most of them empty on the rank -- is the oracle's,
    for every rank of a split whose last rank owns no vertex."""
    graph = graph_of("mesh", "random", kind)
    clusters, _ = clustering(graph, "random", seed=5)
    leaders = cluster_leaders(clusters)
    fine_to_coarse = dense_remap(clusters, leaders)
    n_coarse = len(leaders)
    coarse_ids = np.arange(n_coarse, dtype=np.int64)
    kernel = contraction_step(graph, fine_to_coarse, n_coarse)
    oracle = oracles.contraction_step(graph, fine_to_coarse, n_coarse)
    bounds = [*np.linspace(0, graph.n, ranks, dtype=np.int64).tolist(), graph.n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        order, groups = group_by_label(fine_to_coarse[lo:hi], n_coarse)
        edges, degrees, cv, _ = assert_same_step(kernel, oracle, lo + order, groups)
        assert len(degrees) == n_coarse
        if lo == hi:  # a rank that owns no vertex reads nothing and sends nothing
            assert edges == 0 and not degrees.any() and len(cv) == 0


@pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
def test_every_way_of_ordering_a_neighbourhood(compressed):
    """A coarse vertex's labels come out in order by insertion sort (up to
    16), by a bitmap over their id range (many labels in a narrow range),
    or by the C library's sort (labels spread thin over a wide range): five
    hubs of 17 to 600 neighbours strewn over 20 000 ids take all three."""
    n, rng = 20_000, np.random.default_rng(8)
    rows = []
    for hub, degree in enumerate((17, 20, 40, 100, 600)):
        for v in rng.choice(np.arange(5, n), size=degree, replace=False).tolist():
            rows.append((hub, v, int(rng.integers(1, 9))))
    graph = csr(n, both_ways(rows))
    if compressed:
        graph = compress_graph(graph)
    for kind in ("identity", "random"):
        clusters, weights = clustering(graph, kind, seed=1)
        assert_same_contraction(
            graph, clusters, weights, contract_buffered, lambda g: context(g, kaminpar)
        )
        assert_same_contraction(graph, clusters, weights, contract_one_pass, context)


def test_the_empty_graph():
    graph = CSRGraph(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
    none = np.empty(0, dtype=np.int64)
    for contract in (contract_buffered, contract_one_pass):
        out = assert_same_contraction(graph, none, none, contract, context)
        assert out.coarse.n == 0 and out.coarse.num_directed_edges == 0


@st.composite
def small_clustered_graphs(draw):
    """A graph of at most 12 vertices, weights that may be zero, and any
    clustering of it whose labels are vertex ids."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(0, 3), min_size=len(chosen), max_size=len(chosen)))
    vwgt = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    graph = csr(n, both_ways([(u, v, w) for (u, v), w in zip(chosen, weights)]), vwgt)
    clusters = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    cluster_weights = np.zeros(n, dtype=np.int64)
    np.add.at(cluster_weights, clusters, vwgt)
    return graph, clusters, cluster_weights, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(small_clustered_graphs())
def test_kernel_equals_oracle_on_arbitrary_small_graphs(case):
    graph, clusters, weights, compressed = case
    if compressed:
        graph = compress_graph(graph)
    for contract in (contract_buffered, contract_one_pass):
        ctx_of = lambda g: context(g, chunk_size=3)  # noqa: E731
        assert_same_contraction(graph, clusters, weights, contract, ctx_of)


# --------------------------------------------------------------------- #
# the leader scan and the member lists
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 40).flatmap(
        lambda n: st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
    )
)
def test_leaders_and_members_equal_unique_and_stable_argsort(labels):
    labels = np.array(labels, dtype=np.int64)
    leaders = cluster_leaders(labels)
    assert np.array_equal(leaders, np.unique(labels)) and leaders.dtype == np.int64
    want = np.argsort(labels, kind="stable")
    coarse = dense_remap(labels, leaders)
    for paths in (group_by_label, lambda *a: on_oracle(group_by_label, *a)):
        order, offsets = paths(coarse, len(leaders))
        assert np.array_equal(order, want)
        assert np.array_equal(offsets, np.searchsorted(labels[want], [*leaders, len(labels)]))


@pytest.mark.parametrize("bad", [-1, 16, 1 << 40, -(1 << 62)])
@pytest.mark.parametrize("contract", [contract_buffered, contract_one_pass])
@pytest.mark.parametrize("path", ["kernel", "oracle"])
def test_a_label_that_is_no_vertex_id_is_refused(bad, contract, path):
    """Unchecked, a negative label indexes from the end: either contraction
    returns a 9-vertex coarse graph (vertex 3 as coarse vertex 0, its weight
    charged to cluster 15; one-pass's is asymmetric), and a label past the
    end is an ``IndexError``.  The leader scan names the vertex instead."""
    graph = gen.path(16)
    clusters = np.repeat(np.arange(0, 16, 2, dtype=np.int64), 2)
    weights = np.bincount(clusters, minlength=16).astype(np.int64)
    clusters[3] = bad
    run = contract if path == "kernel" else lambda *a: on_oracle(contract, *a)
    with pytest.raises(ValueError, match=f"vertex 3 has cluster label {bad}, not a vertex id"):
        run(graph, clusters, weights, context(graph))


# --------------------------------------------------------------------- #
# the contract in the C header
# --------------------------------------------------------------------- #
FILL = 0x5A  # what Guarded fills every int64 entry with


class Raw:
    """``repro_contract_chunk`` called the way ``lp_chunk`` calls it for a
    whole level (dense coarse ids as labels, groups in leader order), minus
    its checks, on arrays a test may corrupt, with every output and the
    rating map guarded.  ``out_short`` / ``map_short`` take that many entries
    off the capacities handed over."""

    def __init__(self, graph, clusters) -> None:
        self.n = graph.n
        leaders = cluster_leaders(clusters)
        self.label_count = len(leaders)
        self.labels = dense_remap(clusters, leaders)
        self.members, self.groups = group_by_label(self.labels, self.label_count)
        self.info = np.zeros(2, dtype=np.int64)
        self._adjacency(graph)

    def _adjacency(self, graph):
        self.adj = graph.adjncy.copy()
        self.wgt = np.ascontiguousarray(graph.adjwgt).copy()
        self.starts = graph.indptr[self.members]
        self.degs = graph.indptr[self.members + 1] - self.starts

    def _segments(self):
        return (
            self.n, self.members.ctypes.data, self.starts.ctypes.data, self.degs.ctypes.data,
            len(self.members), self.adj.ctypes.data, self.wgt.ctypes.data, 0, len(self.adj),
        )  # fmt: skip

    def _stream(self, out):
        return None

    def __call__(self, out_short=0, map_short=0):
        out = self.out = Guarded()
        cap = self.label_count - map_short
        maps = [out.ptr(size, np.int64) for size in (self.label_count, cap, cap)]
        out.inside(0)[:] = 0
        room = int(self.degs.sum()) - out_short
        pairs = [out.ptr(room, np.int64) for _ in range(2)]
        rc = _native.contraction_kernels()[0](
            *self._segments(), self.label_count, self.labels.ctypes.data, *maps, cap,
            self.groups.ctypes.data, self.label_count, *pairs, room,
            out.ptr(self.label_count, np.int64), self.info.ctypes.data, self._stream(out),
        )  # fmt: skip
        out.check()
        assert not out.inside(0).any(), "rating map left dirty"
        return rc

    def written(self) -> int:
        """Entries of the pair outputs that no longer hold the fill."""
        return int(sum((self.out.inside(i) != FILL).sum() for i in (3, 4)))


class RawStream(Raw):
    """The same call with the compressed source: no row scratch, a degree cap
    of the largest degree and one block's interval pairs."""

    def _adjacency(self, graph):
        data, offsets = graph.stream()
        self.data, self.offsets = data.copy(), offsets.copy()
        self.degs = graph.degrees[self.members].copy()
        self.weighted = graph.has_edge_weights
        self.intervals = graph.config.enable_intervals
        self.chunking = graph.config.high_degree_threshold, graph.config.chunk_length

    def _segments(self):
        return (
            self.n, self.members.ctypes.data, None, self.degs.ctypes.data, len(self.members),
            None, None, 1, 0,
        )  # fmt: skip

    def _stream(self, out):
        cap = int(self.degs.max())
        pairs = 2 * (cap // 3)
        self.block = _native.Stream(
            self.data.ctypes.data, len(self.data), self.offsets.ctypes.data, self.intervals,
            None, None, cap, out.ptr(pairs, np.int64), pairs, *self.chunking, self.weighted,
        )  # fmt: skip
        return ctypes.addressof(self.block)


@pytest.fixture(scope="module")
def mesh():
    graph = weighted(gen.rgg2d(300, 8.0, seed=1), "random", "random")
    return graph, clustering(graph, "random", seed=2)[0]


def refused(raw, code, at=None):
    assert raw() == code
    if at is not None:
        assert raw.info[1] == at


class TestKernelContract:
    """``repro_contract_chunk`` defends itself: an id it cannot index, group
    offsets that leave the chunk or an output one entry short come back as an
    error code naming the chunk vertex, nothing is written outside the
    capacities passed in and the rating map is zero again."""

    def test_a_clean_call_is_the_oracle(self, mesh):
        graph, clusters = mesh
        raw = Raw(graph, clusters)
        oracle = oracles.contraction_step(graph, raw.labels.copy(), raw.label_count)
        _, degrees, cv, w = oracle(raw.members, raw.groups)
        assert raw() == len(cv)
        assert np.array_equal(raw.out.inside(3)[: len(cv)], cv)
        assert np.array_equal(raw.out.inside(4)[: len(cv)], w)
        assert np.array_equal(raw.out.inside(5), degrees)

    @pytest.mark.parametrize("bad", [300, 1 << 40, -1, -(1 << 62)])
    def test_chunk_id_out_of_range_is_refused(self, mesh, bad):
        raw = Raw(*mesh)
        raw.members[40] = bad
        refused(raw, -1, at=40)

    @pytest.mark.parametrize("bad", [300, 1 << 40, -1, -(1 << 62)])
    def test_neighbour_id_out_of_range_is_refused(self, mesh, bad):
        raw = Raw(*mesh)
        at = int(np.flatnonzero(raw.degs > 1)[5])
        raw.adj[raw.starts[at] + 1] = bad
        refused(raw, -3, at=at)

    @pytest.mark.parametrize("bad", [-1, 1 << 33, -(1 << 62)])
    def test_label_out_of_range_is_refused(self, mesh, bad):
        raw = Raw(*mesh)
        at = int(np.flatnonzero(raw.degs > 1)[5])
        v = raw.adj[raw.starts[at] + 1]
        first = min(  # the first member, in chunk order, that rates v
            i for i in range(len(raw.members))
            if v in raw.adj[raw.starts[i] : raw.starts[i] + raw.degs[i]]
        )  # fmt: skip
        raw.labels[v] = bad
        refused(raw, -4, at=first)

    def test_segment_past_the_adjacency_is_refused(self, mesh):
        for corrupt in (
            lambda raw: raw.degs.__setitem__(9, len(raw.adj) - int(raw.starts[9]) + 1),
            lambda raw: raw.starts.__setitem__(9, -1),
            lambda raw: raw.starts.__setitem__(9, (1 << 63) - 1),
        ):
            raw = Raw(*mesh)
            corrupt(raw)
            refused(raw, -2, at=9)
        raw = Raw(*mesh)  # a negative degree: refused before anything is written
        raw.degs[9] = -1
        refused(raw, -2, at=9)
        assert raw.written() == 0

    @pytest.mark.parametrize("after", [1, 4, 8, 16])
    def test_a_fault_read_ahead_is_reported_where_it_sits(self, mesh, after):
        """Members are read ahead 4, 8 and 16 positions before they are
        rated (``read_ahead`` in ``lp_kernel.c``, on CSR): a fault that far
        on is still reported by its own member, with its own code."""
        n = mesh[0].n
        for corrupt, code in (
            (lambda raw: raw.members.__setitem__(after, n), -1),
            (lambda raw: raw.starts.__setitem__(after, len(raw.adj) + 1), -2),
            (lambda raw: raw.adj.__setitem__(raw.starts[after], n), -3),
            (lambda raw: raw.adj.__setitem__(raw.starts[after], -(1 << 62)), -3),
        ):
            raw = Raw(*mesh)
            assert raw.degs[after] > 0
            corrupt(raw)
            refused(raw, code, at=after)

    def test_group_offsets_outside_the_chunk_are_refused(self, mesh):
        for corrupt in (
            lambda raw: raw.groups.__setitem__(4, raw.groups[3] - 1),  # runs down
            lambda raw: raw.groups.__setitem__(-1, raw.groups[-1] + 1),  # past the chunk
            lambda raw: raw.groups.__setitem__(0, -(1 << 62)),  # a difference overflows
            lambda raw: raw.groups.__setitem__(slice(1, None), 1 << 62),
        ):
            raw = Raw(*mesh)
            corrupt(raw)
            assert raw() == -2
        raw = Raw(*mesh)  # rebased on groups[0]: a shifted array is the same groups
        want = raw()
        raw.groups += 1 << 40
        assert raw() == want > 0

    def test_capacity_one_short_is_refused_before_anything_is_written(self, mesh):
        raw = Raw(*mesh)
        assert raw(out_short=1) == -5 and raw.written() == 0
        # a rating map with one seen slot, and groups that see more labels
        raw = Raw(*mesh)
        assert raw(map_short=raw.label_count - 1) == -5

    @pytest.mark.parametrize("intervals", [True, False], ids=["intervals", "no-intervals"])
    def test_decoding_as_rated_equals_the_segments(self, mesh, intervals):
        graph, clusters = mesh
        segments = Raw(graph, clusters)
        stream = RawStream(compress_graph(graph, enable_intervals=intervals), clusters)
        assert segments() == stream() > 0
        for i in (3, 4, 5):
            assert np.array_equal(segments.out.inside(i), stream.out.inside(i))

    def test_byte_mutations_never_write_outside(self, mesh):
        """Flipped bits of the compressed stream: a run or a code the decoder
        names, canaries intact, the rating map zero."""
        graph, clusters = mesh
        cg = compress_graph(graph)
        rng = np.random.default_rng(6)
        allowed = {_native.DECODE_ERROR + code for code in _native.ERRORS}
        codes = set()
        for _ in range(100):
            raw = RawStream(cg, clusters)
            raw.data[int(rng.integers(len(raw.data)))] ^= 1 << int(rng.integers(8))
            rc = raw()
            codes.add(rc if rc < 0 else 0)
            assert rc >= 0 or rc in allowed, rc
        assert len(codes) >= 3, codes


class TestGroupByLabel:
    def test_a_label_out_of_range_names_its_vertex(self):
        labels = np.array([0, 2, 2, 5, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="cluster or block id out of range at vertex 3"):
            group_by_label(labels, 3)
        members = np.full(5, 7, dtype=np.int64)
        offsets = np.full(6, 7, dtype=np.int64)
        info = np.zeros(2, dtype=np.int64)
        rc = _native.contraction_kernels()[1](
            labels.ctypes.data, 5, 5, offsets.ctypes.data, members.ctypes.data, info.ctypes.data
        )
        assert (rc, int(info[1])) == (-4, 3) and (members == 7).all()


class TestCorruptGraph:
    """Through either contraction a level the kernel refuses is a
    ``ValueError`` naming the vertex -- never a trap."""

    @pytest.mark.parametrize("contract", [contract_buffered, contract_one_pass])
    def test_neighbour_out_of_range(self, contract):
        graph = gen.rgg2d(300, 8.0, seed=1)
        graph.adjncy[graph.indptr[17]] = 1 << 40  # after the constructor's check
        clusters, weights = clustering(graph, "random")
        with pytest.raises(ValueError, match="neighbor id out of range at vertex 17 "):
            contract(graph, clusters, weights, context(graph))

    @pytest.mark.parametrize("contract", [contract_buffered, contract_one_pass])
    def test_byte_mutations_of_a_compressed_graph(self, contract):
        cg = compress_graph(weighted(gen.weblike(400, 7.0, seed=5), "random", "unit"))
        clusters, weights = clustering(cg, "random")
        rng = np.random.default_rng(3)
        outcomes = set()
        for _ in range(40):
            data = bytearray(cg.data)
            data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
            bad = _clone(cg, data=data)
            try:
                contract(bad, clusters.copy(), weights.copy(), context(bad))
                outcomes.add("ran")
            except ValueError as exc:
                outcomes.add(str(exc).split(" at vertex")[0])
        assert "ran" in outcomes and outcomes & set(_native.ERRORS.values()), outcomes


def test_a_chunk_encoded_hub_is_never_decoded_first():
    """The kernel reads a hub's row from the stream too: contracting a graph
    with chunk-encoded rows, either way, calls ``decode_chunk`` not once."""
    graph = graph_of("web", "random", "hubs")
    assert graph.stats.num_chunked_vertices > 0
    clusters, weights = clustering(graph, "random")
    calls = DecodeCalls(graph)
    contract_one_pass(graph, clusters.copy(), weights.copy(), context(graph))
    contract_buffered(graph, clusters.copy(), weights.copy(), context(graph, kaminpar))
    assert calls.calls == 0


def test_a_hub_free_compressed_graph_is_never_decoded_first():
    """Only a chunk holding a hub is decoded before the kernel rates it (the
    LP rule): contracting a hub-free compressed graph, either way, calls
    ``decode_chunk`` not once."""
    graph = compress_graph(gen.weblike(600, 8.0, seed=1))
    clusters, weights = clustering(graph, "random")
    with pytest.MonkeyPatch.context() as m:
        calls = []
        decode = CompressedGraph.decode_chunk
        m.setattr(CompressedGraph, "decode_chunk", lambda g, c: calls.append(1) or decode(g, c))
        contract_one_pass(graph, clusters, weights, context(graph))
        contract_buffered(graph, clusters, weights, context(graph, kaminpar))
    assert calls == []
