"""The compiled k-way FM pass (``core/refinement/fm_kernel.c``) against the
Python pass it replaces.

One pass runs twice from the same partition and the same freshly built
table, through ``fm_refine._pass`` / ``fm_localized._localized_pass``: on
the kernel and on the oracle installed in its place (``oracles.fm_pass`` /
``oracles.run_search`` over ``oracles.best_move``).  Everything the pass
touches must come out byte-equal: the partition, the block weights, the
table's arrays, the returned improvement, ``recompute_edges``,
``lock_acquisitions`` and the tracer's counters (``fm.*`` and the
``decode.edges*`` the seed scoring reports).  The matrix covers the three
table kinds, CSR input and compressed input with and without intervals, a
compressed star whose hub is chunk-encoded, unit and random weights, k in
{2, 16, 64}, and passes that end on ``max_fruitless_moves`` and on the abort
slack; a hypothesis property draws graphs and seeds.  Refusals (a negative
affinity, a full hash row, out-of-range ids) raise what the Python pass
raises and leave the partition and the table as the pass found them.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
from repro.core.config import DebugConfig, FMConfig, ObsConfig, preset
from repro.core.context import PartitionContext
from repro.core.partition import PartitionedGraph, max_block_weight
from repro.core.refinement import fm_kernel, fm_localized
from repro.core.refinement.gain_table import make_gain_table
from repro.graph import _native
from repro.graph import access as graph_access
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.graph.csr import CSRGraph
from repro.obs.tracer import SpanTracer
from test_bulk_decode import _body, _hand_built

# the package re-exports the function under the module's name
fm_refine = importlib.import_module("repro.core.refinement.fm_refine")

KINDS = ("none", "full", "sparse")


def edges_of(g: CSRGraph) -> np.ndarray:
    """Each undirected edge of ``g`` once, ``(u, v)`` with ``u < v``."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    once = src < g.adjncy
    return np.stack([src[once], g.adjncy[once]], axis=1)


def weighted(base: CSRGraph, seed: int) -> CSRGraph:
    """``base`` with symmetric edge weights in 1..9 and vertex weights in 1..4."""
    edges = edges_of(base)
    rng = np.random.default_rng(seed)
    return from_edges(
        base.n, edges, rng.integers(1, 10, size=len(edges)), vwgt=rng.integers(1, 5, size=base.n)
    )


def star(leaves: int) -> CSRGraph:
    edges = np.stack([np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)], axis=1)
    return from_edges(leaves + 1, edges)


def as_input(g: CSRGraph, form: str):
    if form == "csr":
        return g
    if form == "hub":
        return compress_graph(g, high_degree_threshold=32, chunk_length=8)
    return compress_graph(g, enable_intervals=form == "intervals")


BASES = {
    "mesh": lambda: gen.rgg2d(240, 8.0, seed=4),
    "web": lambda: gen.weblike(240, 8.0, seed=4),
}
FORMS = ("csr", "intervals", "plain")


@contextlib.contextmanager
def traced():
    """A tracer that also receives the access layer's decode counters."""
    tracer = SpanTracer()
    graph_access.install_tracer(tracer)
    try:
        yield tracer
    finally:
        graph_access.uninstall_tracer()


def snapshot(pg, table, result, tracer) -> dict:
    arrays = [a.tobytes() for a in table.kernel_arrays() if a is not None]
    return {
        "result": result,
        "partition": pg.partition.tobytes(),
        "block_weights": pg.block_weights.tobytes(),
        "table": arrays,
        "recompute_edges": getattr(table, "recompute_edges", None),
        "lock_acquisitions": getattr(table, "lock_acquisitions", None),
        "counters": dict(tracer.counters),
    }


def one_pass(graph, k, kind, part, *, native, localized=False, cfg=None, lmax=None, ctx_seed=7):
    """One FM pass from ``part``: the snapshot of what it left behind."""
    pg = PartitionedGraph(graph, k, part)
    cfg = cfg or FMConfig(gain_table=kind)
    if lmax is None:
        lmax = max_block_weight(graph.total_vertex_weight, k, 0.03) + int(np.max(graph.vwgt))
    with traced() as tracer:
        ctx = PartitionContext(
            preset("terapart-fm", seed=ctx_seed), k, graph.total_vertex_weight, tracer=tracer
        )
        table = make_gain_table(kind, pg)
        with contextlib.nullcontext() if native else oracles.installed("fm"):
            if localized:
                result = fm_localized._localized_pass(pg, ctx, table, lmax, cfg, 16)
            else:
                result = fm_refine._pass(pg, ctx, table, lmax, cfg)
    return snapshot(pg, table, result, tracer)


def assert_pass_agrees(graph, k, kind, seed, **kw) -> dict:
    part = np.random.default_rng(seed).integers(0, k, size=graph.n)
    got = one_pass(graph, k, kind, part, native=True, ctx_seed=seed, **kw)
    want = one_pass(graph, k, kind, part, native=False, ctx_seed=seed, **kw)
    assert got == want
    return got


MATRIX = list(itertools.product(BASES, FORMS, ("unit", "weighted"), (2, 16, 64), KINDS))


@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
@pytest.mark.parametrize(
    "base,form,weights,k,kind", MATRIX, ids=["-".join(map(str, c)) for c in MATRIX]
)
def test_pass_is_the_oracle(base, form, weights, k, kind, localized):
    g = BASES[base]()
    if weights == "weighted":
        g = weighted(g, seed=k)
    got = assert_pass_agrees(as_input(g, form), k, kind, seed=k + 1, localized=localized)
    assert got["counters"].get("fm.moves", 0) + got["counters"].get("fm.rollback_moves", 0) > 0
    if localized:
        assert got["counters"]["fm.searches"] > 0


@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_chunk_encoded_hub_is_read_from_its_side_segment(kind, localized):
    graph = as_input(star(300), "hub")
    ids, starts, _, _ = graph_access.hub_segments(graph)
    assert ids.tolist() == [0] and starts.tolist() == [0, 300]
    for k in (2, 16):
        assert_pass_agrees(graph, k, kind, seed=k, localized=localized)
    # the hub as one of many vertices: a mesh with a star spliced in
    mesh = gen.rgg2d(240, 8.0, seed=5)
    spokes = np.stack([np.full(60, 17), np.arange(100, 160)], axis=1)
    edges = np.unique(np.vstack([edges_of(mesh), spokes]), axis=0)
    hubbed = as_input(from_edges(mesh.n, edges), "hub")
    assert 17 in graph_access.hub_segments(hubbed)[0].tolist()
    assert_pass_agrees(hubbed, 16, kind, seed=3, localized=localized)


class RecordingHeap:
    """``heapq`` for the oracle that remembers the heap it was handed."""

    def __init__(self):
        import heapq

        self._heapq, self.heaps = heapq, []

    def heappush(self, heap, item):
        if not any(h is heap for h in self.heaps):
            self.heaps.append(heap)
        self._heapq.heappush(heap, item)

    def heappop(self, heap):
        return self._heapq.heappop(heap)


@pytest.mark.parametrize("cap", [2, 5, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_a_pass_that_ends_on_the_fruitless_cap(kind, cap):
    # the moves after the last best prefix are the fruitless ones, so a pass
    # that stops on the cap rolls back exactly the cap's worth
    g = weighted(gen.rgg2d(300, 8.0, seed=6), seed=2)
    cfg = FMConfig(gain_table=kind, max_fruitless_moves=cap)
    got = assert_pass_agrees(g, 16, kind, seed=10, cfg=cfg)
    assert got["counters"]["fm.rollback_moves"] == cap


@pytest.mark.parametrize("kind", KINDS)
def test_a_pass_that_ends_on_the_abort_slack(kind, monkeypatch):
    # slack 0 and no fruitless cap: the oracle stops with entries still
    # queued, which only the abort rule does
    monkeypatch.setattr(fm_refine, "_abort_slack", lambda pgraph: 0)
    g = weighted(gen.rgg2d(300, 8.0, seed=6), seed=2)
    cfg = FMConfig(gain_table=kind, max_fruitless_moves=10**9)
    recording = RecordingHeap()
    monkeypatch.setattr(oracles, "heapq", recording)
    got = assert_pass_agrees(g, 16, kind, seed=9, cfg=cfg)
    assert got["counters"]["fm.rollback_moves"] > 0
    assert len(recording.heaps) == 1 and len(recording.heaps[0]) > 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 120),
    degree=st.floats(1.0, 9.0),
    k=st.sampled_from([2, 3, 8, 16, 64]),
    kind=st.sampled_from(KINDS),
    form=st.sampled_from(FORMS),
    localized=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_random_graphs_and_seeds(n, degree, k, kind, form, localized, seed):
    g = gen.er(n, degree, seed=seed)
    if seed % 2:
        g = weighted(g, seed)
    assert_pass_agrees(as_input(g, form), k, kind, seed, localized=localized)


# --------------------------------------------------------------------- #
# refusals: named, never half-applied
# --------------------------------------------------------------------- #
def refused(graph, k, kind, corrupt, exc, match, part=None, seeds=None):
    """The kernel's pass from ``seeds`` (default: the boundary), once
    ``corrupt`` has edited the partition or the built table, raises ``exc``
    and leaves partition, block weights and table as it found them."""
    if part is None:
        part = np.random.default_rng(1).integers(0, k, size=graph.n)
    pg = PartitionedGraph(graph, k, part)
    table = make_gain_table(kind, pg)
    seeds = pg.boundary_vertices() if seeds is None else np.asarray(seeds, dtype=np.int64)
    corrupt(pg, table)
    kernel = fm_kernel.bind(pg, table, graph.total_vertex_weight)
    before = snapshot(pg, table, None, SpanTracer())
    with pytest.raises(exc, match=match):
        kernel(seeds, np.zeros(graph.n, dtype=bool), localized=False, max_fruitless=100)
    assert snapshot(pg, table, None, SpanTracer()) == before


def heavy_mesh():
    return weighted(gen.rgg2d(200, 6.0, seed=8), seed=8)


def test_a_negative_affinity_stays_an_assertion():
    def corrupt(pg, table):
        keys, vals, _, dense = table.kernel_arrays()
        assert not dense.any()
        vals[keys >= 0] = 1  # most edges weigh more than the affinity left

    g = heavy_mesh()
    pg = PartitionedGraph(g, 64, np.random.default_rng(1).integers(0, 64, size=g.n))
    table = make_gain_table("sparse", pg)
    corrupt(pg, table)
    ctx = PartitionContext(preset("terapart-fm"), 64, g.total_vertex_weight)
    with pytest.raises(AssertionError, match="negative affinity"):  # the oracle's refusal
        with oracles.installed("fm"):
            fm_refine._pass(pg, ctx, table, g.total_vertex_weight, FMConfig())
    refused(g, 64, "sparse", corrupt, AssertionError, r"negative affinity at vertex \d+, block \d+")


def test_a_full_hash_row_stays_a_runtime_error():
    def corrupt(pg, table):
        keys, vals, _, dense = table.kernel_arrays()
        keys[:] = 63  # no row has an empty slot or a key a move needs
        vals[:] = 1
        pg.partition[pg.partition == 63] = 62
        pg.block_weights[:] = np.bincount(pg.partition, weights=pg.graph.vwgt, minlength=64)

    refused(heavy_mesh(), 64, "sparse", corrupt, RuntimeError, r"gain table for vertex \d+ is full")


@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_late_refusal_undoes_every_move(kind, localized):
    # the pass runs as it would until it first reads the corrupted row of a
    # vertex the clean pass moves: by then it has moved, inserted and
    # deleted, and all of it must be undone
    g = gen.rgg2d(300, 8.0, seed=6)
    part = np.random.default_rng(4).integers(0, 16, size=g.n)
    clean = one_pass(g, 16, kind, part, native=True, localized=localized)
    moved = np.flatnonzero(np.frombuffer(clean["partition"], dtype=np.int32) != part)
    for w in moved[-3:].tolist():
        graph = gen.rgg2d(300, 8.0, seed=6)

        def corrupt(pg, table, graph=graph, w=w):
            graph.adjncy[graph.indptr[w + 1] - 1] = -5

        pg = PartitionedGraph(graph, 16, part)
        table = make_gain_table(kind, pg)
        seeds = pg.boundary_vertices()
        if localized:
            seeds = seeds[np.random.default_rng(7).permutation(len(seeds))]
        corrupt(pg, table)
        before = snapshot(pg, table, None, SpanTracer())
        kernel = fm_kernel.bind(pg, table, max_block_weight(g.n, 16, 0.03) + 1)
        with pytest.raises(ValueError, match="vertex id out of range at vertex -5"):
            kernel(seeds, np.zeros(g.n, dtype=bool), localized=localized, max_fruitless=250, max_region=16)
        assert snapshot(pg, table, None, SpanTracer()) == before


def lone_vertex(graph, w: int) -> np.ndarray:
    """Every vertex in block 0 but ``w``, which gains by joining them."""
    part = np.zeros(graph.n, dtype=np.int32)
    part[w] = 1
    return part


@pytest.mark.parametrize("kind", KINDS)
def test_a_neighbor_out_of_range_is_a_value_error(kind):
    g = heavy_mesh()

    def corrupt(pg, table):
        g.adjncy[g.indptr[50]] = g.n + 3

    refused(
        g, 8, kind, corrupt, ValueError, rf"vertex id out of range at vertex {g.n + 3}",
        part=lone_vertex(g, 50), seeds=[50],
    )  # fmt: skip


@pytest.mark.parametrize("kind", KINDS)
def test_a_block_out_of_range_is_a_value_error(kind):
    def corrupt(pg, table):
        pg.partition[50] = 99

    g = heavy_mesh()
    refused(
        g, 8, kind, corrupt, ValueError, "block id out of range at vertex 50",
        part=lone_vertex(g, 50), seeds=[50],
    )  # fmt: skip


@pytest.mark.parametrize("kind", KINDS)
def test_a_stream_the_decoder_refuses_is_a_value_error(kind):
    # the table is built on a stream whose vertex 0 has neighbours 1, 2, 3;
    # the pass reads one where the last of them is 15, outside n = 10
    clean = _hand_built(10, 0, *_body(0, residuals=(1, 2, 3)))
    corrupt_graph = _hand_built(10, 0, *_body(0, residuals=(1, 2, 15)))

    def corrupt(pg, table):
        pg.graph = corrupt_graph

    refused(
        clean, 2, kind, corrupt, ValueError, "neighbor id out of range at vertex 0 .corrupt stream",
        part=lone_vertex(clean, 0), seeds=[0],
    )  # fmt: skip


def test_weights_past_the_kernels_limit_take_the_python_pass():
    """Only the Python pass takes them: the kernel refuses them by name, and
    ``partition()`` / ``refine_partition()`` before any work."""
    base = gen.rgg2d(150, 6.0, seed=2)
    heavy = from_edges(base.n, edges_of(base), vwgt=np.full(base.n, 1 << 55, dtype=np.int64))
    part = np.arange(heavy.n) % 4
    pg = PartitionedGraph(heavy, 4, part)
    with pytest.raises(ValueError, match=r"is not below 2\^62"):
        fm_kernel.bind(pg, make_gain_table("sparse", pg), 1 << 62)
    with pytest.raises(ValueError, match=r"graph refused: the total vertex weight"):
        repro.refine_partition(heavy, 4, part, preset("terapart-fm", seed=7))
    lmax = 50 << 55
    want = one_pass(heavy, 4, "sparse", part, native=False, lmax=lmax)
    assert want["counters"]["fm.moves"] > 0


# --------------------------------------------------------------------- #
# whole runs
# --------------------------------------------------------------------- #
FM_PRESETS = ("terapart-fm", "terapart-fm-full", "terapart-fm-none")


@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
@pytest.mark.parametrize("name", FM_PRESETS)
def test_a_traced_partition_is_the_oracles(name, localized, monkeypatch):
    g = weighted(gen.rgg2d(1500, 8.0, seed=3), seed=3)
    config = preset(name, seed=4, obs=ObsConfig(enabled=True))
    config = config.with_(fm=FMConfig(gain_table=config.fm.gain_table, localized=localized))
    calls = []
    kernel = _native.fm_kernel()
    monkeypatch.setattr(_native, "fm_kernel", lambda: lambda *a: calls.append(1) or kernel(*a))
    got = repro.partition(g, 16, config)
    assert calls
    with oracles.installed("fm"):
        want = repro.partition(g, 16, config)
    assert np.array_equal(got.partition, want.partition)
    assert (got.cut, got.peak_bytes) == (want.cut, want.peak_bytes)
    assert got.obs["counters"] == want.obs["counters"]


@pytest.mark.parametrize("name", FM_PRESETS)
def test_a_pass_is_one_call_and_no_python_move(name, monkeypatch):
    def no_python(*a, **kw):
        raise AssertionError("the Python pass ran")

    monkeypatch.setattr(oracles, "best_move", no_python)
    calls = []
    kernel = _native.fm_kernel()
    monkeypatch.setattr(_native, "fm_kernel", lambda: lambda *a: calls.append(1) or kernel(*a))
    rounds = []
    bind = fm_kernel.bind
    monkeypatch.setattr(fm_kernel, "bind", lambda *a, **kw: rounds.append(1) or bind(*a, **kw))
    repro.partition(gen.rgg2d(1500, 8.0, seed=3), 8, preset(name, seed=2))
    assert calls and len(calls) <= len(rounds)


@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
@pytest.mark.parametrize("name", FM_PRESETS)
def test_the_level_two_gain_table_check_stays_green(name, localized):
    config = preset(name, seed=5, debug=DebugConfig(validation_level=2))
    config = config.with_(fm=FMConfig(gain_table=config.fm.gain_table, localized=localized))
    result = repro.partition(weighted(gen.rgg2d(800, 8.0, seed=2), seed=2), 8, config)
    assert result.selfcheck["invariant_checks"] > 0
