"""The compiled LP round (``core/kernels/lp_kernel.c``) against the numpy
pipelines it replaces.

``tests/test_bulk_equivalence.py`` compares whole partitions, kernel first,
scalar references second.  Here both steps of one chunk run side by side in
one process (the kernel as a round of one chunk, the oracle from
``tests/oracles.py``): same favorites, same
``nc``, same movers and the same shared arrays after every chunk, over
generator families x edge weights (unit, random, with zeros) x vertex
weights x CSR / compressed; the LP drivers (one kernel call a round) and
whole partitions must report the same cost records and counters as the
oracle looped chunk by chunk, degenerate rounds and every schedule policy
included; the edges a sort gets for free (a label seen through weight 0, no
neighbour at all, sums that wrap) are pinned one by one; and, called
without the wrapper's checks on corrupted arrays, the kernel must return an
error code, write nothing outside the buffers it was given and leave its
rating map zeroed.

On a compressed graph the kernel decodes each neighbourhood as it rates it,
a chunk-encoded hub chunk by chunk, in the same one call a round.  It is
held chunk by chunk to the kernel rating the decompressed graph, and the
decoding kernel to the same contract on corrupt streams.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
from repro.core.coarsening.lp_clustering import label_propagation_clustering
from repro.core.config import DebugConfig, ObsConfig, preset
from repro.core.context import PartitionContext
from repro.core.kernels import lp_chunk
from repro.core.partition import PartitionedGraph
from repro.core.refinement.lp_refine import lp_refine
from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.access import chunk_adjacency, chunk_segments
from repro.graph.compressed import compress_graph, decompress_graph
from repro.graph.csr import CSRGraph
from repro.parallel.runtime import ParallelRuntime
from repro.verify.fuzz import _make_ctx
from test_bulk_decode import _body, _clone, _hand_built
from test_initial_kernel import Guarded

# the package re-exports the function under the module's name
lp_refine_module = sys.modules["repro.core.refinement.lp_refine"]

FAMILIES = {
    "mesh": lambda: gen.rgg2d(260, 8.0, seed=3),
    "web": lambda: gen.weblike(260, 7.0, seed=3),
    "kmer": lambda: gen.kmer(260, 4, seed=3),
    "hyperbolic": lambda: gen.rhg(260, 8.0, seed=3),
    "sparse": lambda: gen.er(260, 1.5, seed=3),  # a third of it has no edge
}
EDGE_WEIGHTS = ("unit", "random", "zeros")
VERTEX_WEIGHTS = ("unit", "random")
MATRIX = list(itertools.product(FAMILIES, EDGE_WEIGHTS, VERTEX_WEIGHTS, (False, True)))
MATRIX_IDS = ["-".join([f, e, v, "compressed" if c else "csr"]) for f, e, v, c in MATRIX]


def weighted(base: CSRGraph, edge_weights: str, vertex_weights: str) -> CSRGraph:
    """``base`` with symmetric edge weights in 1..7 ("random") or 0..6
    ("zeros") and vertex weights in 1..4 ("random")."""
    src = np.repeat(np.arange(base.n, dtype=np.int64), base.degrees)
    lo, hi = np.minimum(src, base.adjncy), np.maximum(src, base.adjncy)
    mixed = ((lo * 2654435761 + hi * 40503) >> 4) % 7
    adjwgt = {"unit": None, "random": mixed + 1, "zeros": mixed}[edge_weights]
    vwgt = None
    if vertex_weights == "random":
        vwgt = np.random.default_rng(5).integers(1, 5, size=base.n)
    return CSRGraph(base.indptr, base.adjncy, adjwgt, vwgt, sorted_neighborhoods=True)


def variant(family: str, edge_weights: str, vertex_weights: str, compressed: bool):
    graph = weighted(FAMILIES[family](), edge_weights, vertex_weights)
    return compress_graph(graph) if compressed else graph


def context(graph, k: int = 4, **overrides) -> PartitionContext:
    cfg = preset("terapart", seed=1, p=4, **overrides)
    return PartitionContext(cfg, k, graph.total_vertex_weight)


def on_oracle(fn, *args, **kwargs):
    """``fn(...)`` with the LP oracles in the compiled rounds' place."""
    with oracles.installed("lp"):
        return fn(*args, **kwargs)


def csr(n, rows, vwgt=None):
    """A CSR graph from directed ``(u, v, w)`` rows, any weights."""
    rows = sorted(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, _, _ in rows:
        indptr[u + 1] += 1
    return CSRGraph(
        np.cumsum(indptr),
        np.array([v for _, v, _ in rows], dtype=np.int64),
        np.array([w for _, _, w in rows], dtype=np.int64),
        vwgt,
        sorted_neighborhoods=True,
    )


def both_ways(rows):
    return rows + [(v, u, w) for u, v, w in rows]


def chunks_of(n: int, seed: int, size: int = 48):
    order = np.random.default_rng(seed).permutation(n).astype(np.int64)
    return [order[i : i + size] for i in range(0, n, size)]


class DecodeCalls:
    """Counts ``decode_chunk`` calls of one compressed graph."""

    def __init__(self, graph) -> None:
        self.calls = 0
        decode = graph.decode_chunk

        def counted(chunk):
            self.calls += 1
            return decode(chunk)

        graph.decode_chunk = counted


# --------------------------------------------------------------------- #
# chunk by chunk: the two steps of each driver, side by side
# --------------------------------------------------------------------- #
def one_chunk(kernel, chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(chunk, row, moved, scratch)`` of ``chunk`` run through a round
    entry as a round of one chunk: its stats row, its movers and its
    per-vertex scratch rows."""
    chunk = np.ascontiguousarray(chunk, dtype=np.int64)
    moved = np.empty(len(chunk), dtype=np.int64)
    row = kernel(chunk, np.array([0, len(chunk)], dtype=np.int64), moved)[0]
    return chunk, row, moved[: row[lp_chunk.MOVES]], kernel.scratch[:, : len(chunk)]


def clustering_step(graph, clusters, cluster_weights, cap, maps):
    """The kernel's clustering step: its round entry over one chunk.  The
    step returns ``None`` for a chunk without edges, else ``(edges, fav_us,
    fav, nc, targets, moved)``: the chunk vertices that have a neighbour
    and the favorite cluster of each, per chunk vertex its number of
    distinct neighbour clusters, how many vertices had a target, and the
    vertices moved -- ``clusters`` / ``cluster_weights`` already updated."""
    favorites = np.arange(graph.n, dtype=np.int64)
    kernel = lp_chunk.clustering_round(
        graph, graph.vwgt, clusters, cluster_weights, cap, maps, favorites, t_bump=1
    )

    def step(chunk):
        chunk, row, moved, (fav, _, nc) = one_chunk(kernel, chunk)
        if not row[lp_chunk.EDGES]:
            return None
        rated = nc > 0
        edges, targets = int(row[lp_chunk.EDGES]), int(row[lp_chunk.TARGETS])
        return edges, chunk[rated], fav[rated], nc.copy(), targets, moved

    return step


def refinement_step(graph, part, block_weights, limits):
    """The same for LP refinement: ``None`` or ``(edges, moved)`` --
    ``part`` / ``block_weights`` already updated."""
    kernel = lp_chunk.refinement_round(graph, graph.vwgt, part, block_weights, limits)

    def step(chunk):
        _, row, moved, _ = one_chunk(kernel, chunk)
        return (int(row[lp_chunk.EDGES]), moved) if row[lp_chunk.EDGES] else None

    return step


class ClusteringPair:
    """The kernel step and the oracle step of LP clustering, each on its own
    copy of the shared arrays.  ``decoded=True`` puts the kernel step over
    the decompressed graph in the oracle's place."""

    def __init__(self, graph, cap: int, decoded: bool = False) -> None:
        n = graph.n
        start = np.asarray(graph.vwgt).astype(np.int64)
        self.states = [(np.arange(n, dtype=np.int64), start.copy()) for _ in range(2)]
        self.maps = np.zeros((3, n), dtype=np.int64)
        self.kernel = clustering_step(graph, *self.states[0], cap, self.maps)
        if decoded:
            self.oracle = clustering_step(
                decompress_graph(graph), *self.states[1], cap, np.zeros((3, n), np.int64)
            )
        else:
            self.oracle = oracles.clustering_step(graph, *self.states[1], cap)

    def run(self, chunk) -> tuple | None:
        got, want = self.kernel(chunk), self.oracle(chunk)
        assert not self.maps[0].any(), "rating map left dirty"
        for a, b in zip(*self.states):
            assert np.array_equal(a, b)
        if want is None:
            assert got is None
            return None
        assert got[0] == want[0] and got[4] == want[4]  # edges, targets
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        return got


class RefinementPair:
    """The same for LP refinement, from one starting assignment."""

    def __init__(self, graph, k: int, part, limits, decoded: bool = False) -> None:
        self.pgraphs = [PartitionedGraph(graph, k, np.array(part)) for _ in range(2)]
        limits = np.broadcast_to(np.asarray(limits, dtype=np.int64), (k,))
        kernel_side, oracle_side = self.pgraphs
        self.kernel = refinement_step(
            graph, kernel_side.partition, kernel_side.block_weights, limits
        )
        if decoded:
            self.oracle = refinement_step(
                decompress_graph(graph), oracle_side.partition, oracle_side.block_weights, limits
            )
        else:
            self.oracle = oracles.refinement_step(
                graph, oracle_side.partition, oracle_side.block_weights, limits
            )

    def run(self, chunk) -> tuple | None:
        got, want = self.kernel(chunk), self.oracle(chunk)
        a, b = self.pgraphs
        assert a.partition.dtype == np.int32
        assert np.array_equal(a.partition, b.partition)
        assert np.array_equal(a.block_weights, b.block_weights)
        if want is None:
            assert got is None
            return None
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        return got


def random_assignment(graph, k: int, seed: int = 2):
    return np.random.default_rng(seed).integers(0, k, size=graph.n)


@pytest.mark.parametrize("case", MATRIX, ids=MATRIX_IDS)
def test_clustering_chunks_agree(case):
    graph = variant(*case)
    pair = ClusteringPair(graph, max(2, graph.total_vertex_weight // 25))
    moved = 0
    for sweep in range(3):
        for chunk in chunks_of(graph.n, sweep):
            out = pair.run(chunk)
            moved += 0 if out is None else len(out[5])
    assert moved > 0


@pytest.mark.parametrize("case", MATRIX, ids=MATRIX_IDS)
@pytest.mark.parametrize("per_block", [False, True], ids=["one-limit", "per-block"])
def test_refinement_chunks_agree(case, per_block):
    graph = variant(*case)
    k = 5
    fair = -(-graph.total_vertex_weight // k)
    limits = int(1.1 * fair)
    if per_block:  # deep multilevel's budgets: every block its own
        limits = np.array([fair // 2, fair, int(1.2 * fair), 2 * fair, 3 * fair])
    pair = RefinementPair(graph, k, random_assignment(graph, k), limits)
    moved = 0
    for sweep in range(3):
        for chunk in chunks_of(graph.n, sweep):
            out = pair.run(chunk)
            moved += 0 if out is None else len(out[1])
    assert moved > 0


@st.composite
def small_weighted_graphs(draw):
    """A graph of at most 12 vertices with weights that may be zero."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(0, 3), min_size=len(chosen), max_size=len(chosen)))
    rows = both_ways([(u, v, w) for (u, v), w in zip(chosen, weights)])
    vwgt = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    graph = csr(n, rows, vwgt)
    return graph, draw(st.integers(0, 1 << 16)), draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(small_weighted_graphs())
def test_kernel_equals_oracle_on_arbitrary_small_graphs(case):
    graph, seed, compressed = case
    if compressed:
        graph = compress_graph(graph)
    total = graph.total_vertex_weight
    clustering = ClusteringPair(graph, max(1, total // 3))
    k = 3
    refinement = RefinementPair(
        graph, k, random_assignment(graph, k, seed), np.array([total // 3, total // 2, total])
    )
    for sweep in range(2):
        for chunk in chunks_of(graph.n, seed + sweep, size=5):
            clustering.run(chunk)
            refinement.run(chunk)


# --------------------------------------------------------------------- #
# compressed chunk by chunk: decoded as rated vs decoded first
# --------------------------------------------------------------------- #
STREAMS = list(itertools.product(("web", "mesh", "kmer"), EDGE_WEIGHTS, (True, False)))
STREAM_IDS = ["-".join([f, e, "intervals" if i else "no-intervals"]) for f, e, i in STREAMS]


def fused_against_decoded(graph) -> int:
    """Three sweeps of both LP steps on ``graph``, the kernel decoding each
    neighbourhood as it rates it against the kernel rating the decompressed
    graph: same favorites, ``nc``, movers and shared arrays per chunk.
    Neither side calls ``decode_chunk``, not even for a chunk-encoded hub;
    returns how many chunks held one."""
    total, k = graph.total_vertex_weight, 5
    clustering = ClusteringPair(graph, max(2, total // 25), decoded=True)
    limit = int(1.1 * -(-total // k))
    refinement = RefinementPair(graph, k, random_assignment(graph, k), limit, decoded=True)
    calls = DecodeCalls(graph)  # after the two decompressions
    chunks = [chunk for sweep in range(3) for chunk in chunks_of(graph.n, sweep)]
    moved = 0
    for chunk in chunks:
        out = clustering.run(chunk)
        moved += 0 if out is None else len(out[5])
        out = refinement.run(chunk)
        moved += 0 if out is None else len(out[1])
    assert moved > 0
    assert calls.calls == 0
    threshold = graph.config.high_degree_threshold
    return sum(bool(graph.degrees[c].max() > threshold) for c in chunks)


@pytest.mark.parametrize("case", STREAMS, ids=STREAM_IDS)
def test_decoding_as_rated_equals_decoding_first(case):
    family, edge_weights, intervals = case
    base = weighted(FAMILIES[family](), edge_weights, "random")
    graph = compress_graph(base, enable_intervals=intervals)
    assert graph.has_edge_weights == (edge_weights != "unit")
    assert fused_against_decoded(graph) == 0


def test_hub_chunks_and_decoded_chunks_mix_in_one_call():
    """A lowered chunking threshold makes five hubs: the chunks holding one
    are rated from the stream like the rest, chunk by chunk of the hub."""
    base = weighted(gen.weblike(500, 8.0, seed=2), "random", "unit")
    graph = compress_graph(base, high_degree_threshold=32, chunk_length=8)
    assert int((graph.degrees > 32).sum()) == graph.stats.num_chunked_vertices == 5
    hub_chunks = fused_against_decoded(graph)
    assert 0 < hub_chunks < 3 * len(chunks_of(graph.n, 0)) // 2


def test_a_round_over_a_hub_is_one_kernel_call():
    """A clustering and a refinement round over a compressed level holding a
    chunk-encoded hub in a middle chunk are one kernel call each (not ``1 +
    2``, the hub's chunk split off and decoded first), with the stats rows
    and shared arrays of the oracle looped chunk by chunk."""
    graph = compress_graph(star(1999), high_degree_threshold=32, chunk_length=8)
    n, k = graph.n, 4
    assert graph.stats.num_chunked_vertices == 1
    order = np.roll(np.arange(n, dtype=np.int64), n // 2)  # the hub at n // 2
    bounds = np.array([[lo, min(lo + 256, n)] for lo in range(0, n, 256)], dtype=np.int64)

    def rounds(module):
        vwgt = np.asarray(graph.vwgt).astype(np.int64)
        clusters, weights = np.arange(n, dtype=np.int64), vwgt.copy()
        favorites = np.arange(n, dtype=np.int64)
        maps = np.zeros((3, n), dtype=np.int64)
        cluster = module.clustering_round(
            graph, graph.vwgt, clusters, weights, 40, maps, favorites, 1
        )
        pgraph = PartitionedGraph(graph, k, random_assignment(graph, k))
        limits = np.full(k, n // 3, dtype=np.int64)
        refine = module.refinement_round(
            graph, graph.vwgt, pgraph.partition, pgraph.block_weights, limits
        )
        # the oracle's refinement rows count no targets
        stats = cluster(order, bounds)[:, : lp_chunk.NANOS]
        moves = refine(order, bounds)[:, [lp_chunk.EDGES, lp_chunk.MOVES]]
        return [stats, moves], clusters, favorites, pgraph.partition

    with pytest.MonkeyPatch.context() as m:
        calls = KernelCalls(m)
        got = rounds(lp_chunk)
    assert calls.calls == {0: 1, 1: 1}
    want = rounds(oracles)
    for a, b in zip([*got[0], *got[1:]], [*want[0], *want[1:]]):
        assert np.array_equal(a, b)
    assert got[0][0][:, lp_chunk.MOVES].sum() > 0


# --------------------------------------------------------------------- #
# driver by driver, and whole partitions: results, cost records, counters
# --------------------------------------------------------------------- #
def run_clustering(graph, two_phase: bool):
    base = preset("terapart", seed=1)
    ctx = context(
        graph, coarsening=dataclasses.replace(base.coarsening, two_phase_lp=two_phase)
    )
    result = label_propagation_clustering(graph, ctx, max(2, graph.total_vertex_weight // 25))
    return result, ctx.runtime.all_stats(), ctx.tracker.peak_bytes


def run_refinement(graph, part, seeds):
    k = 5
    pgraph = PartitionedGraph(graph, k, np.array(part))
    ctx = context(graph, k)
    limit = int(1.1 * -(-graph.total_vertex_weight // k))
    moves = lp_refine(pgraph, ctx, limit, rounds=4, seeds=seeds)
    return moves, pgraph.partition, pgraph.block_weights, ctx.runtime.all_stats()


@pytest.mark.parametrize("case", MATRIX, ids=MATRIX_IDS)
@pytest.mark.parametrize("two_phase", [True, False], ids=["two-phase", "classic"])
def test_clustering_driver_agrees(case, two_phase):
    graph = variant(*case)
    got, stats, peak = run_clustering(graph, two_phase)
    want, want_stats, want_peak = on_oracle(run_clustering, graph, two_phase)
    for field in ("clusters", "cluster_weights", "favorites"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.num_clusters == want.num_clusters
    assert got.moves_per_round == want.moves_per_round and sum(got.moves_per_round) > 0
    assert got.bumped_per_round == want.bumped_per_round
    assert stats == want_stats and peak == want_peak


@pytest.mark.parametrize("case", MATRIX, ids=MATRIX_IDS)
@pytest.mark.parametrize("frontier", [False, True], ids=["sweep", "frontier"])
def test_refinement_driver_agrees(case, frontier):
    graph = variant(*case)
    part = random_assignment(graph, 5)
    seeds = np.arange(0, graph.n, 7) if frontier else None
    got = run_refinement(graph, part, seeds)
    want = on_oracle(run_refinement, graph, part, seeds)
    assert got[0] == want[0] > 0
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    assert got[3] == want[3]


LP_COUNTERS = ("lp.", "refine.lp_", "decode.edges")


@pytest.mark.parametrize("name", ["terapart", "kaminpar", "terapart-deep"])
def test_partition_reports_the_same_costs_and_counters(name):
    """Work, bytes and atomics of every phase, the ledger peak and the LP /
    decode counters do not say which path ran."""
    graph = weighted(gen.weblike(1500, 8.0, seed=4), "random", "random")
    cfg = preset(name, seed=2, p=4, obs=ObsConfig(enabled=True))
    got = repro.partition(graph, 6, cfg)

    def counters(result):
        return {
            key: value
            for key, value in result.obs["counters"].items()
            if key.startswith(LP_COUNTERS)
        }

    want = on_oracle(repro.partition, graph, 6, cfg)
    assert np.array_equal(got.partition, want.partition)
    assert (got.cut, got.peak_bytes) == (want.cut, want.peak_bytes)
    assert got.phase_stats == want.phase_stats
    assert counters(got) == counters(want)
    assert got.phase_stats["lp-refinement"].work > 0
    assert counters(got)["lp.moves"] > 0 and counters(got)["refine.lp_visited"] > 0


class KernelCalls:
    """Counts the calls of the round entries (``lp_kernels()[0]`` and
    ``[1]``) for as long as the monkeypatch context lasts."""

    def __init__(self, m) -> None:
        self.calls = collections.Counter()
        real = _native.lp_kernels()

        def counted(i, fn):
            def call(*args):
                self.calls[i] += 1
                return fn(*args)

            return call

        wrapped = tuple(counted(i, fn) for i, fn in enumerate(real))
        m.setattr(_native, "lp_kernels", lambda: wrapped)


def both_drivers(graph, policy=None, k: int = 4, chunk_size=None):
    """LP clustering, then LP refinement from a random assignment, through
    the drivers under schedule ``policy`` (or on a runtime of ``chunk_size``
    positions a chunk): everything they report."""
    debug = DebugConfig(schedule_policy=policy, schedule_seed=3)
    cfg = preset("terapart", seed=1, p=4, debug=debug)
    runtime = None if chunk_size is None else ParallelRuntime(4, chunk_size=chunk_size)
    ctx = PartitionContext(cfg, k, graph.total_vertex_weight, runtime=runtime)
    total = graph.total_vertex_weight
    result = label_propagation_clustering(graph, ctx, max(1, total // 25))
    pgraph = PartitionedGraph(graph, k, random_assignment(graph, k))
    moves = lp_refine(pgraph, ctx, max(1, int(1.1 * -(-total // k))), rounds=4)
    return (
        result.clusters, result.favorites, result.moves_per_round, result.bumped_per_round,
        pgraph.partition, pgraph.block_weights, moves, ctx.runtime.all_stats(),
    )  # fmt: skip


def rounds_agree(graph, policy=None, chunk_size=None) -> collections.Counter:
    """The drivers on the round kernel equal them on the oracle looped chunk
    by chunk; returns the round-kernel calls made."""
    with pytest.MonkeyPatch.context() as m:
        calls = KernelCalls(m)
        got = both_drivers(graph, policy, chunk_size=chunk_size)
    want = on_oracle(both_drivers, graph, policy, chunk_size=chunk_size)
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b
    return calls.calls


def star(leaves: int) -> CSRGraph:
    return csr(leaves + 1, both_ways([(0, v, 1) for v in range(1, leaves + 1)]))


class TestDegenerateRounds:
    """Rounds the chunk loop never met: each equals the oracle looped chunk
    by chunk in partition, favorites, moves and bumps a round and phase
    stats."""

    def test_the_empty_graph(self):
        assert rounds_agree(csr(0, [])) == {}  # no chunk: no call

    def test_an_all_isolated_graph(self):
        graph = csr(50, [])
        calls = rounds_agree(graph)
        assert calls[0] == calls[1] == 1  # one round each, nothing moved
        clusters, favorites, moves, bumped, *_, stats = both_drivers(graph)
        assert np.array_equal(favorites, np.arange(50)), "a favorite was written"
        assert moves == [0] and stats == {}, "a chunk recorded work"

    def test_fewer_vertices_than_a_chunk(self):
        graph = gen.rgg2d(100, 8.0, seed=1)
        assert graph.n < context(graph).runtime.chunk_size
        calls = rounds_agree(graph)
        assert calls[0] > 1 and calls[1] > 1

    def test_a_compressed_giant_star_is_one_call_a_round(self):
        """The hub is chunk-encoded and rated from the stream like every
        other vertex: one call a round, wherever in it the hub sits."""
        graph = compress_graph(star(1999), high_degree_threshold=32, chunk_length=8)
        assert graph.stats.num_chunked_vertices == 1
        rng = np.random.default_rng(1)  # the clustering's rounds draw from it alone
        chunks = -(-graph.n // 512)
        rounds = both_drivers(graph)[2]
        hub_chunks = [
            int(np.flatnonzero(rng.permutation(graph.n) == 0)[0]) // 512 for _ in rounds
        ]
        assert any(0 < c < chunks - 1 for c in hub_chunks), "the hub never sat mid-round"
        calls = rounds_agree(graph)
        assert calls[0] == len(rounds) and 0 < calls[1] <= 4

    def test_vertex_weights_the_commit_cannot_hold_go_to_the_oracle(self):
        """Only the oracle takes them: the drivers refuse them by name before
        a kernel call, and ``partition()`` before any work."""
        vwgt = np.full(200, 1 << 60)
        base = gen.rgg2d(200, 8.0, seed=1)
        graph = CSRGraph(base.indptr, base.adjncy, None, vwgt, sorted_neighborhoods=True)
        with pytest.MonkeyPatch.context() as m:
            calls = KernelCalls(m)
            with pytest.raises(ValueError, match=r"is not below 2\^62"):
                both_drivers(graph)
        assert calls.calls == {}
        with np.errstate(over="ignore"):
            on_oracle(both_drivers, graph)
        with pytest.raises(ValueError, match=r"graph refused: the total vertex weight"):
            repro.partition(graph, 4, preset("terapart", seed=1))

    @pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
    @pytest.mark.parametrize("policy", ["issue", "reversed", "random", "heavy-first"])
    def test_every_schedule_policy(self, policy, compressed):
        graph = weighted(gen.weblike(1500, 8.0, seed=4), "random", "random")
        calls = rounds_agree(compress_graph(graph) if compressed else graph, policy)
        assert calls[0] > 0 and calls[1] > 0


def test_heavy_first_runs_a_refinement_round_heaviest_chunks_first(monkeypatch):
    """Under ``heavy-first`` LP refinement hands its kernel the chunks in
    descending edge order, as clustering does -- not in issue order, which
    is what its equal-sized chunks would give if weighed by size."""
    graph = gen.weblike(1500, 8.0, seed=4)
    runtime = ParallelRuntime(4, chunk_size=64, schedule_policy="heavy-first")
    cfg = preset("terapart", seed=1, p=4)
    ctx = PartitionContext(cfg, 4, graph.total_vertex_weight, runtime=runtime)
    rounds = []
    build = lp_refine_module.refinement_round

    def recording(*args):
        kernel = build(*args)

        def call(order, bounds, moved=None):
            rounds.append((order.copy(), bounds.copy()))
            return kernel(order, bounds, moved)

        return call

    monkeypatch.setattr(lp_refine_module, "refinement_round", recording)
    pgraph = PartitionedGraph(graph, 4, random_assignment(graph, 4))
    lp_refine(pgraph, ctx, int(1.1 * -(-graph.total_vertex_weight // 4)), rounds=2)
    degrees = np.asarray(graph.degrees)
    assert rounds
    for order, bounds in rounds:
        edges = [int(degrees[order[lo:hi]].sum()) for lo, hi in bounds.tolist()]
        assert edges == sorted(edges, reverse=True)
        assert bounds[:, 0].tolist() != sorted(bounds[:, 0].tolist())


def test_a_traced_partition_slices_threads_as_the_oracle_does():
    """Every ``(phase, tid)`` thread slice counts the same chunks and items
    on the round kernel as on the oracle's chunk loop, and its seconds --
    the kernel's own clock -- are positive."""
    graph = weighted(gen.weblike(3000, 8.0, seed=4), "unit", "unit")
    for name in ("terapart", "kaminpar"):
        cfg = preset(name, seed=2, p=4, obs=ObsConfig(enabled=True))
        got = repro.partition(graph, 8, cfg).obs["threads"]
        want = on_oracle(repro.partition, graph, 8, cfg).obs["threads"]
        assert [(t["phase"], t["tid"], t["chunks"], t["items"]) for t in got] == [
            (t["phase"], t["tid"], t["chunks"], t["items"]) for t in want
        ]
        lp = [t for t in got if t["phase"].startswith(("clustering", "lp-refinement"))]
        assert lp and all(t["seconds"] > 0 for t in lp), lp


def test_track_scratch_does_not_charge_the_rating_map_twice(monkeypatch):
    """The kernel's map is the `shared-sparse-array` and `nonzero-buffers`
    the ledger charges by model: a scratch-tracking run sees those charges
    once, and no n-sized scratch beside them."""
    from repro.memory import scratch

    graph = gen.rgg2d(6000, 8.0, seed=1)
    ctx = context(graph)
    charged = []
    alloc = ctx.tracker.alloc

    def recording(name, nbytes, *args, **kwargs):
        charged.append((name, nbytes, args[0] if args else kwargs.get("category")))
        return alloc(name, nbytes, *args, **kwargs)

    monkeypatch.setattr(ctx.tracker, "alloc", recording)
    scratch.install_ledger(ctx.tracker)
    try:
        label_propagation_clustering(graph, ctx, 40)
    finally:
        scratch.uninstall_ledger()
    names = [name for name, _, _ in charged]
    assert names.count("shared-sparse-array") == names.count("nonzero-buffers") == 1
    in_scratch = {name: nbytes for name, nbytes, category in charged if category == "scratch"}
    # the per-chunk scratch rows, chunk-sized, a round's stats rows and the
    # leader scan's byte a vertex
    assert set(in_scratch) == {"lp-chunk-out", "lp-round-stats", "cluster-leader-marks"}
    assert in_scratch["cluster-leader-marks"] == graph.n
    assert max(in_scratch.values()) < 8 * graph.n


# --------------------------------------------------------------------- #
# the edges a sort gets for free
# --------------------------------------------------------------------- #
class TestEdges:
    def test_a_cluster_seen_through_weight_zero_counts(self):
        """Vertex 0's neighbours 1 and 2 both sum to rating 0: two pairs in
        the oracle, so nc = 2 and one of them is the favorite."""
        graph = csr(4, both_ways([(0, 1, 0), (0, 2, 0), (2, 3, 5)]))
        pair = ClusteringPair(graph, 10)
        edges, fav_us, fav, nc, targets, moved = pair.run(np.array([0, 1, 3]))
        assert nc.tolist() == [2, 1, 1]
        assert fav_us.tolist() == [0, 1, 3] and fav[0] in (1, 2)
        # ratings of opposite sign that cancel: seen, rated 0
        graph = csr(3, both_ways([(0, 1, 4), (0, 2, -4)]))
        out = ClusteringPair(graph, 10).run(np.array([0]))
        assert out[3].tolist() == [2]
        refinement = RefinementPair(graph, 3, [0, 1, 2], 10)
        assert refinement.run(np.array([0, 2]))[1].tolist() == [0]  # gain 4 > 0 into block 1

    def test_vertices_without_neighbours(self):
        graph = csr(5, both_ways([(1, 3, 2)]))
        pair = ClusteringPair(graph, 10)
        assert pair.run(np.array([0, 2, 4])) is None  # no edge at all
        edges, fav_us, fav, nc, targets, moved = pair.run(np.array([0, 1, 2, 3, 4]))
        assert edges == 2 and nc.tolist() == [0, 1, 0, 1, 0]
        assert fav_us.tolist() == [1, 3]  # the others' favorites stay untouched
        refinement = RefinementPair(graph, 2, [0, 0, 1, 1, 1], 10)
        assert refinement.run(np.array([0, 2, 4])) is None
        assert refinement.run(np.arange(5)) is not None

    def test_only_the_own_cluster_fits(self):
        """Every neighbour cluster is full: the target is the vertex's own
        cluster, which is a target (work is recorded) but not a move."""
        graph = csr(3, both_ways([(0, 1, 3), (0, 2, 3)]), vwgt=np.array([2, 2, 2]))
        pair = ClusteringPair(graph, 3)
        pair.states[0][0][:] = pair.states[1][0][:] = [1, 1, 2]
        pair.states[0][1][:] = pair.states[1][1][:] = [0, 4, 2]
        edges, fav_us, fav, nc, targets, moved = pair.run(np.array([0]))
        assert (targets, moved.tolist(), nc.tolist()) == (1, [], [2])
        # no neighbour fits and the own cluster is not adjacent: no target
        pair = ClusteringPair(graph, 3)
        pair.states[0][1][:] = pair.states[1][1][:] = [2, 2, 2]
        assert pair.run(np.array([0]))[4] == 0

    def test_a_full_cluster_still_competes_at_rank_minus_one(self):
        """The oracle ranks a cluster that does not fit at -1, not out of the
        race: against a fitting cluster of negative rating it wins, and the
        vertex has no target."""
        graph = csr(3, both_ways([(0, 1, -9), (0, 2, 5)]), vwgt=np.array([2, 1, 2]))
        pair = ClusteringPair(graph, 3)  # cluster 2 is full for vertex 0, cluster 1 is not
        edges, fav_us, fav, nc, targets, moved = pair.run(np.array([0]))
        assert (fav.tolist(), nc.tolist(), targets, moved.tolist()) == ([2], [2], 0, [])

    def test_unit_vertex_weights_are_the_eight_byte_view(self):
        graph = gen.rgg2d(200, 8.0, seed=2)
        assert np.asarray(graph.vwgt).strides == (0,)
        assert lp_chunk._weight_args(np.asarray(graph.vwgt)) == (None, 1)
        pair = ClusteringPair(graph, 9)
        for chunk in chunks_of(graph.n, 0):
            pair.run(chunk)

    def test_sums_that_wrap_like_numpy(self):
        """Edge weights near 2**61: ratings, ranks and gains leave int64 and
        wrap modulo 2**64 on both paths, to the same winners."""
        big = 1 << 61
        rows = both_ways(
            [(0, 1, big), (0, 2, big + 1), (0, 3, big - 1), (1, 2, 3 * (big // 2)), (2, 3, big)]
        )
        graph = csr(4, rows)
        with np.errstate(over="ignore"):
            pair = ClusteringPair(graph, 3)
            pair.states[0][0][:] = pair.states[1][0][:] = [0, 1, 1, 3]
            for chunk in (np.array([0, 2]), np.array([3, 1]), np.arange(4)):
                assert pair.run(chunk) is not None
            refinement = RefinementPair(graph, 3, [0, 1, 1, 2], 4)
            for chunk in (np.array([0, 2]), np.arange(4)):
                assert refinement.run(chunk) is not None

    @pytest.mark.parametrize(
        "vwgt",
        [np.array([1, 1 << 61, 1 << 61, 1]), np.array([1, -1, 1, 1])],
        ids=["sum-past-int64", "negative"],
    )
    def test_vertex_weights_the_commit_cannot_hold_run_the_oracle(self, vwgt):
        """The kernels refuse them by name; only the oracle still runs them."""
        graph = csr(4, both_ways([(0, 1, 1), (1, 2, 1), (2, 3, 1)]), vwgt=vwgt)
        maps = np.zeros((3, 4), dtype=np.int64)
        clusters, weights = np.arange(4), vwgt.copy()
        why = "negative" if vwgt.min() < 0 else r"not below 2\^62"
        with pytest.raises(ValueError, match=why):
            clustering_step(graph, clusters, weights, 1 << 62, maps)
        pgraph = PartitionedGraph(graph, 2, np.array([0, 0, 1, 1]))
        limits = np.array([1 << 62, 1 << 62])
        with pytest.raises(ValueError, match=why):
            refinement_step(graph, pgraph.partition, pgraph.block_weights, limits)
        with np.errstate(over="ignore"):
            result, _, _ = on_oracle(run_clustering, graph, True)
        assert len(result.clusters) == 4

    def test_a_cap_beyond_int64_is_clamped_not_truncated(self):
        graph = gen.grid2d(8, 8)
        got = label_propagation_clustering(graph, context(graph), 1 << 70)
        want = on_oracle(label_propagation_clustering, graph, context(graph), 1 << 70)
        assert np.array_equal(got.clusters, want.clusters)
        assert got.num_clusters < graph.n

    def test_k_is_checked_against_int32_once_per_call(self):
        graph = gen.grid2d(4, 4)
        pgraph = PartitionedGraph(graph, 4, np.arange(16) % 4)
        pgraph.k = 1 << 31
        with pytest.raises(ValueError, match="int32"):
            lp_refine(pgraph, context(graph), 100)

    def test_the_conflict_detector_watches_the_kernel_steps(self, monkeypatch):
        """With the detector listening, every LP round -- clustering and
        refinement, on every level -- is one kernel call inside the round's
        parallel region, the call production makes; the detector hears the
        round replayed after it."""
        calls = KernelCalls(monkeypatch)
        region = ParallelRuntime.region
        rounds = collections.Counter()

        @contextlib.contextmanager
        def counted(self, phase):
            before = calls.calls.copy()
            with region(self, phase):
                yield
            lp = ("clustering", "lp-refinement")
            entry = [i for i, name in enumerate(lp) if phase.startswith(name)]
            assert list((calls.calls - before).elements()) == entry, phase
            rounds.update(entry)

        monkeypatch.setattr(ParallelRuntime, "region", counted)
        cfg = preset("terapart", seed=1, p=4, debug=DebugConfig(detect_conflicts=True))
        result = repro.partition(gen.rgg2d(600, 8.0, seed=1), 4, cfg)
        assert rounds[0] > 0 and rounds[1] > 0
        assert calls.calls == rounds  # no round entry called outside a round
        assert result.selfcheck["conflicts"] == [] and result.selfcheck["accesses_recorded"] > 0


def detector_report(graph, policy: str, p: int, two_phase: bool, inject_race: bool):
    ctx, det = _make_ctx(
        graph, p=p, policy=policy, seed=1, chunk_size=32,
        two_phase=two_phase, inject_race=inject_race,
    )  # fmt: skip
    label_propagation_clustering(graph, ctx, max(1, graph.total_vertex_weight // 8))
    return [str(c) for c in det.conflicts], det.accesses_recorded


def selfcheck_report(graph, name: str):
    debug = DebugConfig(detect_conflicts=True, schedule_policy="random", schedule_seed=3)
    result = repro.partition(graph, 8, preset(name, seed=1, p=4, debug=debug))
    assert result.phase_stats["lp-refinement"].work > 0
    return result.selfcheck["conflicts"], result.selfcheck["accesses_recorded"], result.cut


@pytest.mark.parametrize("inject_race", [False, True], ids=["clean", "injected-race"])
def test_the_detector_hears_the_same_accesses_on_both_paths(inject_race):
    """The drivers replay a round from its stats rows and movers, which the
    oracle's round fills as the kernel does, so the kernel and the oracle
    report the same conflicts over as many accesses: fuzzed schedules of
    both LP variants, CSR and compressed, with and without the injected
    race."""
    graphs = (gen.rgg2d(300, 8.0, seed=2), compress_graph(gen.weblike(300, 7.0, seed=2)))
    found = 0
    for graph, policy, p, two_phase in itertools.product(
        graphs, ("random", "heavy-first"), (2, 4), (True, False)
    ):
        got = detector_report(graph, policy, p, two_phase, inject_race)
        assert got == on_oracle(detector_report, graph, policy, p, two_phase, inject_race)
        assert got[1] > 0
        found += len(got[0])
    assert bool(found) == inject_race


#: per cell of the detector matrix below (graph, policy, p, LP variant): the
#: accesses recorded and the conflicts of the injected race, as the detector
#: heard them when it ran the kernel one chunk a call; without the race there
#: are none.  The replay of the round call must hear exactly these.
DETECTOR_GOLDEN = {
    ("rgg2d", "random", 2, "two-phase"): (10418, 126),
    ("rgg2d", "random", 2, "classic"): (10418, 126),
    ("rgg2d", "random", 4, "two-phase"): (10418, 200),
    ("rgg2d", "random", 4, "classic"): (10418, 200),
    ("rgg2d", "heavy-first", 2, "two-phase"): (10477, 141),
    ("rgg2d", "heavy-first", 2, "classic"): (10477, 141),
    ("rgg2d", "heavy-first", 4, "two-phase"): (10477, 215),
    ("rgg2d", "heavy-first", 4, "classic"): (10477, 215),
    ("weblike", "random", 2, "two-phase"): (8977, 118),
    ("weblike", "random", 2, "classic"): (8806, 118),
    ("weblike", "random", 4, "two-phase"): (8977, 174),
    ("weblike", "random", 4, "classic"): (8806, 174),
    ("weblike", "heavy-first", 2, "two-phase"): (9037, 124),
    ("weblike", "heavy-first", 2, "classic"): (8839, 124),
    ("weblike", "heavy-first", 4, "two-phase"): (9037, 188),
    ("weblike", "heavy-first", 4, "classic"): (8839, 188),
}
#: ``selfcheck_report`` on ``rgg2d(1500)``: (conflicts, accesses recorded, cut)
SELFCHECK_GOLDEN = {"terapart": (0, 52673, 144), "kaminpar": (0, 49971, 144)}


@pytest.mark.parametrize("inject_race", [False, True], ids=["clean", "injected-race"])
def test_the_detector_hears_what_the_chunk_path_heard(inject_race):
    graphs = {
        "rgg2d": gen.rgg2d(300, 8.0, seed=2),
        "weblike": compress_graph(gen.weblike(300, 7.0, seed=2)),
    }
    got = {}
    for (name, graph), policy, p, two_phase in itertools.product(
        graphs.items(), ("random", "heavy-first"), (2, 4), (True, False)
    ):
        conflicts, accesses = detector_report(graph, policy, p, two_phase, inject_race)
        got[name, policy, p, "two-phase" if two_phase else "classic"] = (accesses, len(conflicts))
    want = {
        cell: (accesses, race if inject_race else 0)
        for cell, (accesses, race) in DETECTOR_GOLDEN.items()
    }
    assert got == want


@pytest.mark.parametrize("name", ["terapart", "kaminpar"])
def test_a_selfcheck_partition_hears_what_the_chunk_path_heard(name):
    conflicts, accesses, cut = selfcheck_report(gen.rgg2d(1500, 8.0, seed=2), name)
    assert (len(conflicts), accesses, cut) == SELFCHECK_GOLDEN[name]


@pytest.mark.parametrize("name", ["terapart", "kaminpar"])
def test_a_selfcheck_partition_hears_the_same_accesses_on_both_paths(name):
    graph = gen.rgg2d(1500, 8.0, seed=2)
    got = selfcheck_report(graph, name)
    assert got == on_oracle(selfcheck_report, graph, name)
    assert got[0] == [] and got[1] > 0


def test_segments_describe_the_same_adjacency():
    """``chunk_segments`` hands out what ``chunk_adjacency`` gathers: CSR in
    place, every compressed chunk left encoded, a chunk holding a
    chunk-encoded hub too -- the same degrees every time."""
    base = weighted(gen.weblike(400, 7.0, seed=1), "random", "unit")
    hubs = compress_graph(base, high_degree_threshold=32, chunk_length=8)
    assert hubs.stats.num_chunked_vertices > 0
    encoded = 0
    for graph in (base, compress_graph(base), hubs, gen.rgg2d(300, 8.0, seed=1)):
        for chunk in chunks_of(graph.n, 1, size=64):
            owner, nbrs, wgts = chunk_adjacency(graph, chunk)
            starts, degs, adj, wgt = chunk_segments(graph, chunk)
            assert np.array_equal(np.repeat(np.arange(len(chunk)), degs), owner)
            if not hasattr(graph, "indptr"):
                assert starts is adj is wgt is None
                encoded += 1
                continue
            at = np.concatenate([np.arange(s, s + d) for s, d in zip(starts, degs)] or [[]])
            at = at.astype(np.int64)
            assert np.array_equal(adj[at], nbrs) and np.array_equal(wgt[at], wgts)
        if hasattr(graph, "indptr"):
            assert adj is graph.adjncy  # nothing gathered, nothing copied
    assert encoded == 2 * 7  # seven chunks a compressed graph
    with pytest.raises(TypeError, match="CSRGraph or a CompressedGraph"):
        chunk_segments(object(), np.arange(3))


# --------------------------------------------------------------------- #
# the contract in the C header
# --------------------------------------------------------------------- #
STATS = 6  # columns of a round's stats row


class Raw:
    """Both round entries called the way ``lp_chunk`` calls them, minus its
    checks, on arrays a test may corrupt, with every output and the rating
    map guarded.  The segments are keyed by position (``starts`` / ``degs``
    per chunk vertex, as a chunk decoded first goes in) or, ``by_vertex``,
    by vertex id (the graph's ``indptr``).  ``bounds`` are the round's
    chunks in the order they run, one chunk of all 96 vertices by default.
    ``out_short`` / ``map_short`` / ``stats_short`` take that many entries
    off the capacities handed over."""

    K = 4
    by_vertex = False

    def __init__(self, graph, bounds=None, by_vertex=None) -> None:
        self.n = graph.n
        self.vwgt = np.ascontiguousarray(graph.vwgt).copy()
        self.chunk = np.random.default_rng(0).permutation(self.n)[:96].astype(np.int64)
        whole = [[0, len(self.chunk)]]
        self.bounds = np.array(whole if bounds is None else bounds, dtype=np.int64)
        if by_vertex is not None:
            self.by_vertex = by_vertex
        self.clusters = np.arange(self.n, dtype=np.int64)
        self.cluster_weights = self.vwgt.copy()
        self.favorites = np.arange(self.n, dtype=np.int64)
        self.part = (np.arange(self.n) % self.K).astype(np.int32)
        self.block_weights = np.bincount(self.part, weights=self.vwgt).astype(np.int64)
        self.limits = np.full(self.K, int(self.vwgt.sum()), dtype=np.int64)
        self.info = np.zeros(2, dtype=np.int64)
        self.stats = None  # the last call's stats rows
        self._adjacency(graph)

    def _adjacency(self, graph):
        self.indptr = graph.indptr.copy()
        self.adj = graph.adjncy.copy()
        self.wgt = np.ascontiguousarray(graph.adjwgt).copy()
        self.starts = self.indptr[self.chunk]
        self.degs = self.indptr[self.chunk + 1] - self.starts
        self.adj_len = len(self.adj)

    def _segments(self):
        if self.by_vertex:
            starts, degs = self.indptr.ctypes.data, None
        else:
            starts, degs = self.starts.ctypes.data, self.degs.ctypes.data
        return (
            self.n, self.chunk.ctypes.data, starts, degs, len(self.chunk), self.adj.ctypes.data,
            self.wgt.ctypes.data, 0, self.adj_len, int(self.by_vertex), self.bounds.ctypes.data,
            len(self.bounds),
        )  # fmt: skip

    def _stream(self, out):
        return None

    def _outputs(self, out, rows, out_short, stats_short):
        """Scratch rows, out_cap, moved, stats, stats_cap: each guarded."""
        width = int((self.bounds[:, 1] - self.bounds[:, 0]).max(initial=0)) - out_short
        scratch = [out.ptr(width, np.int64) for _ in range(rows)]
        moved = out.ptr(len(self.chunk), np.int64)
        stats_cap = len(self.bounds) - stats_short
        self._stats_at = len(out.buffers)
        return (*scratch, width, moved, out.ptr(STATS * stats_cap, np.int64), stats_cap)

    def _finish(self, rc, out):
        out.check()
        assert not out.inside(0).any(), "rating map left dirty"
        self.stats = out.inside(self._stats_at).reshape(-1, STATS).copy()
        return rc

    def cluster(self, out_short=0, map_short=0, stats_short=0):
        out = Guarded()
        cap = self.n - map_short
        maps = [out.ptr(size, np.int64) for size in (self.n, cap, cap)]
        out.inside(0)[:] = 0
        rc = _native.lp_kernels()[0](
            *self._segments(), self.clusters.ctypes.data, self.cluster_weights.ctypes.data,
            self.vwgt.ctypes.data, 0, 1 << 40, 4, self.favorites.ctypes.data, *maps, cap,
            *self._outputs(out, 3, out_short, stats_short), self.info.ctypes.data,
            self._stream(out),
        )  # fmt: skip
        return self._finish(rc, out)

    def refine(self, out_short=0, map_short=0, stats_short=0):
        out = Guarded()
        cap = self.K - map_short
        maps = [out.ptr(size, np.int64) for size in (self.K, cap, cap)]
        out.inside(0)[:] = 0
        rc = _native.lp_kernels()[1](
            *self._segments(), self.K, self.part.ctypes.data, self.block_weights.ctypes.data,
            self.vwgt.ctypes.data, 0, self.limits.ctypes.data, *maps, cap,
            *self._outputs(out, 1, out_short, stats_short), self.info.ctypes.data,
            self._stream(out),
        )  # fmt: skip
        return self._finish(rc, out)

    def both(self, **kwargs):
        return self.cluster(**kwargs), self.refine(**kwargs)

    def picks(self):
        """Both pick entries on the first 64 positions as one rank's batch
        (segments keyed by position, as distributed LP hands them over):
        their return codes, ``info[BAD]`` of each."""
        count, rcs = 64, []
        segments = (
            self.n, self.chunk.ctypes.data, self.starts.ctypes.data, self.degs.ctypes.data,
            count, self.adj.ctypes.data, self.wgt.ctypes.data, 0, self.adj_len,
        )  # fmt: skip
        for which, labels, state in (
            (2, self.n, (self.clusters, self.cluster_weights, self.vwgt, 0, 1 << 40)),
            (3, self.K, (self.K, self.part, self.block_weights, self.vwgt, 0, self.limits)),
        ):
            out = Guarded()
            maps = [out.ptr(labels, np.int64) for _ in range(3)]
            out.inside(0)[:] = 0
            rows = [out.ptr(count, np.int64) for _ in range(5 if which == 2 else 3)]
            state = [a.ctypes.data if isinstance(a, np.ndarray) else a for a in state]
            rc = _native.lp_kernels()[which](
                *segments, *state, *maps, labels, *rows, count, self.info.ctypes.data, None
            )
            out.check()
            assert not out.inside(0).any(), "rating map left dirty"
            rcs.append((rc, int(self.info[1])))
        return rcs

    def shared(self):
        return [
            a.copy()
            for a in (
                self.clusters, self.cluster_weights, self.favorites, self.part, self.block_weights
            )
        ]


class RawStream(Raw):
    """The same calls with the compressed source: the byte stream (``data``,
    ``offsets``) a test may corrupt, the degrees by vertex id, a degree cap
    of the chunk's largest degree, ``scratch_short`` less, and one block's
    interval pairs, guarded like the outputs (no row scratch: the kernel
    rates each row as it decodes it)."""

    scratch_short = 0
    by_vertex = True

    def _adjacency(self, graph):
        data, offsets = graph.stream()
        self.data, self.offsets = data.copy(), offsets.copy()
        self.degs = graph.degrees.copy()
        self.weighted = graph.has_edge_weights
        self.intervals = graph.config.enable_intervals
        self.chunking = graph.config.high_degree_threshold, graph.config.chunk_length

    def _segments(self):
        return (
            self.n, self.chunk.ctypes.data, None, self.degs.ctypes.data, len(self.chunk),
            None, None, 1, 0, 1, self.bounds.ctypes.data, len(self.bounds),
        )  # fmt: skip

    def _stream(self, out):
        cap = int(self.degs[self.chunk].max()) - self.scratch_short
        pairs = 2 * (cap // 3)
        self.block = _native.Stream(
            self.data.ctypes.data, len(self.data), self.offsets.ctypes.data, self.intervals,
            None, None, cap, out.ptr(pairs, np.int64), pairs, *self.chunking, self.weighted,
        )  # fmt: skip
        return ctypes.addressof(self.block)


def refused(raw, code, at=None):
    """Both kernels return ``code`` (naming chunk index ``at``) and leave the
    shared arrays as they were."""
    before = raw.shared()
    assert raw.both() == (code, code)
    if at is not None:
        assert raw.info[1] == at
    for a, b in zip(before, raw.shared()):
        assert np.array_equal(a, b), "an error return wrote a shared array"


@pytest.fixture(scope="module")
def mesh():
    return weighted(gen.rgg2d(300, 8.0, seed=1), "random", "random")


class TestKernelContract:
    """``lp_kernel.c`` defends itself: an id it cannot index or a buffer one
    entry short comes back as an error code naming the chunk vertex, nothing
    is written outside the capacities passed in, the shared arrays are as
    they were and the rating map is zero again."""

    def test_clean_calls_stay_inside_their_buffers(self, mesh):
        raw = Raw(mesh)
        moved, moved_blocks = raw.both()
        assert 0 < moved <= len(raw.chunk) and 0 < moved_blocks <= len(raw.chunk)
        assert raw.cluster_weights.sum() == raw.block_weights.sum() == raw.vwgt.sum()

    @pytest.mark.parametrize("bad", [300, 1 << 40, -1, -(1 << 62)])
    def test_chunk_id_out_of_range_is_refused(self, mesh, bad):
        raw = Raw(mesh)
        raw.chunk[40] = bad
        refused(raw, -1, at=40)

    @pytest.mark.parametrize("bad", [300, 1 << 40, -1, -(1 << 62)])
    def test_neighbour_id_out_of_range_is_refused(self, mesh, bad):
        raw = Raw(mesh)
        at = int(np.flatnonzero(raw.degs > 1)[5])  # after its first edge is rated
        raw.adj[raw.starts[at] + 1] = bad
        refused(raw, -3, at=at)

    @pytest.mark.parametrize("bad", [-1, 1 << 33, -(1 << 62)])
    def test_label_out_of_range_is_refused(self, mesh, bad):
        raw = Raw(mesh)
        at = int(np.flatnonzero(raw.degs > 1)[5])
        v = raw.adj[raw.starts[at] + 1]
        raw.clusters[v] = bad
        raw.part[v] = bad if abs(bad) < 1 << 31 else Raw.K
        refused(raw, -4, at=at)
        raw = Raw(mesh)  # the label of the chunk vertex itself
        raw.clusters[raw.chunk[7]] = raw.n
        raw.part[raw.chunk[7]] = Raw.K
        refused(raw, -4, at=7)

    def test_segment_past_the_adjacency_is_refused(self, mesh):
        for corrupt in (
            lambda raw: raw.degs.__setitem__(9, raw.adj_len - int(raw.starts[9]) + 1),
            lambda raw: raw.degs.__setitem__(9, -1),
            lambda raw: raw.starts.__setitem__(9, -1),
            lambda raw: raw.starts.__setitem__(9, (1 << 63) - 1),  # start + deg overflows
            lambda raw: raw.degs.__setitem__(9, (1 << 63) - 1),
        ):
            raw = Raw(mesh)
            corrupt(raw)
            refused(raw, -2, at=9)
        raw = Raw(mesh)  # exactly to the end is still inside
        raw.adj_len = int((raw.starts + raw.degs).max())
        assert min(raw.both()) >= 0
        raw.adj_len -= 1
        refused(raw, -2)

    def test_capacity_one_short_is_refused(self, mesh):
        """Exactly the bound is enough; one entry less is a code, not a write."""
        raw = Raw(mesh)
        assert raw.both(out_short=1) == (-5, -5) and raw.info[1] == -1
        # a rating map with fewer seen slots than a vertex has labels
        most = int(Raw(mesh).degs.max())  # all clusters are singletons: labels == degree
        assert Raw(mesh).cluster(map_short=mesh.n - most) >= 0
        assert Raw(mesh).cluster(map_short=mesh.n - most + 1) == -5
        assert Raw(mesh).refine(map_short=Raw.K - 1) == -5  # some vertex sees two blocks

    def test_an_error_in_the_last_vertex_commits_nothing(self, mesh):
        """Errors arise while rating; the commit runs only after the whole
        chunk was rated."""
        raw = Raw(mesh)
        last = len(raw.chunk) - 1
        raw.degs[last] = -1
        refused(raw, -2, at=last)


    # a round of three chunks, run out of issue order
    ROUND = [[32, 64], [0, 32], [64, 96]]

    def test_segments_by_vertex_read_what_segments_by_position_read(self, mesh):
        """Keyed by vertex id (the graph's ``indptr``, as a round reads a CSR
        graph) the kernel moves the same vertices as keyed by position."""
        by_position, by_vertex = Raw(mesh), Raw(mesh, by_vertex=True)
        assert by_position.both() == by_vertex.both()
        for a, b in zip(by_position.shared(), by_vertex.shared()):
            assert np.array_equal(a, b)

    def test_segment_by_vertex_past_the_adjacency_is_refused(self, mesh):
        """A corrupt ``indptr`` entry is refused at the first chunk vertex
        whose segment it bounds."""
        for at, value in ((1, lambda raw: raw.adj_len + 1), (0, lambda raw: -1),
                          (0, lambda raw: (1 << 63) - 1)):  # fmt: skip
            raw = Raw(mesh, by_vertex=True)
            u = int(raw.chunk[9]) + at  # ends vertex u - 1's segment, starts u's
            raw.indptr[u] = value(raw)
            owners = np.flatnonzero(np.isin(raw.chunk, [u - 1, u]))
            refused(raw, -2, at=int(owners[0]))
        raw = Raw(mesh, by_vertex=True)  # exactly to the end is still inside
        ends = raw.indptr[raw.chunk + 1]
        raw.adj_len = int(ends.max())
        assert min(raw.both()) >= 0
        raw = Raw(mesh, by_vertex=True)
        raw.adj_len = int(ends.max()) - 1
        refused(raw, -2, at=int(np.argmax(ends)))

    @pytest.mark.parametrize(
        "bounds",
        [[[0, 32], [32, 64], [64, 97]], [[0, 32], [40, 39]], [[-1, 10]], [[32, 96], [96, 95]]],
        ids=["past-count", "running-down", "negative", "empty-then-down"],
    )
    def test_chunk_bounds_are_checked_before_anything_is_written(self, mesh, bounds):
        raw = Raw(mesh, bounds=bounds, by_vertex=True)
        refused(raw, -2, at=-1)
        assert (raw.stats == 0x5A).all(), "a stats row was written"

    def test_a_short_stats_buffer_or_scratch_is_refused_before_anything_is_written(self, mesh):
        raw = Raw(mesh, bounds=self.ROUND, by_vertex=True)
        before = raw.shared()
        assert raw.both(stats_short=1) == (-5, -5) and raw.info[1] == -1
        raw.bounds[2, 1] = 97 - 1  # one chunk 32 + 1 wide: the scratch is 32
        raw.bounds[2, 0] = 63
        assert raw.both(out_short=1) == (-5, -5) and raw.info[1] == -1
        for a, b in zip(before, raw.shared()):
            assert np.array_equal(a, b)

    def test_a_round_is_its_chunks_one_after_another(self, mesh):
        """One call over three chunks commits what three calls, one chunk
        each in the same order, commit, and fills the same stats rows."""
        whole, apart = Raw(mesh, bounds=self.ROUND, by_vertex=True), Raw(mesh, by_vertex=True)
        edges = [int(whole.degs[lo:hi].sum()) for lo, hi in self.ROUND]
        for run in ("cluster", "refine"):
            moved = getattr(whole, run)()
            rows = []
            for bounds in self.ROUND:
                apart.bounds = np.array([bounds], dtype=np.int64)
                moved -= getattr(apart, run)()
                rows.append(apart.stats[0, :5])
            assert moved == 0 and np.array_equal(whole.stats[:, :5], rows)
            assert whole.stats[:, 0].tolist() == edges and (whole.stats[:, 5] > 0).all()
        assert whole.stats[:, 2].sum() > 0
        for a, b in zip(whole.shared(), apart.shared()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("error", ["vertex", "neighbour"])
    def test_a_bad_id_in_a_later_chunk_keeps_the_earlier_ones(self, mesh, error):
        """The second chunk to run holds the bad id at position 10: its code
        names that position, the first chunk stays committed and the second
        is untouched (favorites included)."""
        raw = Raw(mesh, bounds=self.ROUND, by_vertex=True)
        at = 10 + int(np.flatnonzero(raw.degs[10:32] > 1)[0])
        if error == "vertex":
            raw.chunk[at] = mesh.n
        else:
            raw.adj[raw.indptr[raw.chunk[at]] + 1] = -5
        code = {"vertex": -1, "neighbour": -3}[error]
        assert raw.both() == (code, code) and raw.info[1] == at
        first = Raw(mesh, bounds=self.ROUND[:1], by_vertex=True)
        assert min(first.both()) > 0
        for a, b in zip(raw.shared(), first.shared()):
            assert np.array_equal(a, b)


class TestStreamContract:
    """With the compressed source the kernel holds the same contract: a
    stream its decoder refuses is ``DECODE_ERROR`` + the decoder's code,
    naming the chunk vertex, with nothing written outside the buffers, the
    shared arrays as they were and the rating map zero again."""

    N, U = 20, 2

    @pytest.mark.parametrize("intervals", [True, False], ids=["intervals", "no-intervals"])
    def test_decoding_as_rated_equals_the_segments(self, mesh, intervals):
        segments, stream = Raw(mesh), RawStream(compress_graph(mesh, enable_intervals=intervals))
        moved = stream.both()
        assert segments.both() == moved and min(moved) > 0
        for a, b in zip(segments.shared(), stream.shared()):
            assert np.array_equal(a, b)

    def hand_built(self, deg, body) -> RawStream:
        raw = RawStream(_hand_built(self.N, self.U, deg, body))
        assert len(raw.chunk) == self.N
        return raw

    def at(self, raw) -> int:
        return int(np.flatnonzero(raw.chunk == self.U)[0])

    @pytest.mark.parametrize(
        "shape, code",
        [
            (dict(intervals=((3, 3), (8, 3)), claim=3), -3),  # interval count past degree
            (dict(intervals=((5, 3),), residuals=(6,)), -4),  # residual inside an interval
            (dict(residuals=(N + 5,)), -6),  # id out of range
            (dict(intervals=((N - 2, 3),)), -6),
        ],
        ids=["interval-count", "residual-inside", "residual-id", "interval-id"],
    )
    def test_corrupt_neighbourhood_is_refused(self, shape, code):
        claim = shape.pop("claim", None)
        deg, body = _body(self.U, **shape)
        raw = self.hand_built(claim or deg, body)
        refused(raw, _native.DECODE_ERROR + code, at=self.at(raw))

    def test_truncated_varint_is_refused(self):
        deg, body = _body(self.U, residuals=(0, 9))
        assert min(self.hand_built(deg, body).both()) >= 0  # the twin decodes
        body[-1] |= 0x80  # the last value runs past the neighbourhood
        raw = self.hand_built(deg, body)
        refused(raw, _native.DECODE_ERROR - 1, at=self.at(raw))

    def test_offsets_past_the_data_are_refused(self, mesh):
        raw = RawStream(compress_graph(mesh))
        raw.offsets += len(raw.data)
        refused(raw, _native.DECODE_ERROR - 7, at=0)
        raw = RawStream(compress_graph(mesh))
        raw.data = raw.data[: len(raw.data) // 2]
        first = int(np.flatnonzero(raw.offsets[raw.chunk + 1] > len(raw.data))[0])
        refused(raw, _native.DECODE_ERROR - 7, at=first)

    def test_scratch_one_short_is_refused(self, mesh):
        raw = RawStream(compress_graph(mesh))
        raw.scratch_short = 1
        refused(raw, _native.DECODE_ERROR - 7, at=int(np.argmax(raw.degs[raw.chunk])))

    def test_byte_mutations_never_write_outside(self, mesh):
        """Flipped bits and degrees the stream does not back: any code the
        contract names, canaries intact, shared arrays untouched on refusal."""
        clean = RawStream(compress_graph(mesh))
        rng = np.random.default_rng(6)
        allowed = {_native.DECODE_ERROR + code for code in _native.ERRORS}
        codes = set()
        for _ in range(150):
            raw = RawStream(compress_graph(mesh))
            raw.data[int(rng.integers(len(raw.data)))] ^= 1 << int(rng.integers(8))
            off = rng.integers(-1, 2, size=len(raw.degs)) * (rng.random(len(raw.degs)) < 0.02)
            raw.degs = np.minimum(np.maximum(raw.degs + off, 0), clean.degs.max())
            before = raw.shared()
            for rc in raw.both():
                codes.add(rc if rc < 0 else 0)
                assert rc >= 0 or rc in allowed, rc
            if max(raw.both()) < 0:
                for a, b in zip(before, raw.shared()):
                    assert np.array_equal(a, b)
        assert len(codes) >= 4, codes


def first_run(raw, vertices) -> int:
    """The first position, in the order the round runs its chunks, whose
    chunk vertex is one of ``vertices``."""
    for lo, hi in raw.bounds.tolist():
        for i in range(lo, hi):
            if raw.chunk[i] in vertices:
                return i
    raise AssertionError("no such vertex in the round")


class TestReadAhead:
    """Before a chunk vertex is rated the kernel asks the cache for what it
    will read of the vertices 4, 8 and 16 positions on (``read_ahead`` in
    ``lp_kernel.c``): their segments, rows and neighbours' labels.  A fault
    there is met by the read-ahead first.  It must still come back from the
    vertex that holds it, with the code and position the kernel names
    without reading ahead, in the rounds and the picks, with the chunks
    that ran before it committed as a clean run commits them
    (contraction's: ``test_contract_kernel.py``)."""

    # the read-ahead's three distances and the vertex right after
    AFTER = (1, 4, 8, 16)
    # three chunks; [0, 32) runs second and holds the fault at position d
    ROUND = [[32, 64], [0, 32], [64, 96]]

    FAULTS = {
        "vertex": (lambda raw, p: raw.chunk.__setitem__(p, raw.n), -1),
        "vertex-negative": (lambda raw, p: raw.chunk.__setitem__(p, -(1 << 62)), -1),
        "segment-past-adjacency": (
            lambda raw, p: raw.degs.__setitem__(p, raw.adj_len - int(raw.starts[p]) + 1), -2),
        "start-past-adjacency": (lambda raw, p: raw.starts.__setitem__(p, raw.adj_len + 1), -2),
        "start-plus-degree-overflows": (
            lambda raw, p: raw.degs.__setitem__(p, (1 << 63) - 1), -2),
        "neighbour": (lambda raw, p: raw.adj.__setitem__(raw.starts[p], raw.n), -3),
        "neighbour-far": (lambda raw, p: raw.adj.__setitem__(raw.starts[p], 1 << 40), -3),
    }  # fmt: skip

    @pytest.mark.parametrize("after", AFTER)
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_a_fault_ahead_is_reported_where_it_sits(self, mesh, fault, after):
        corrupt, code = self.FAULTS[fault]
        raw, clean = Raw(mesh, bounds=self.ROUND), Raw(mesh, bounds=self.ROUND[:1])
        assert (raw.degs > 0).all()  # the fault's first neighbour is rated
        corrupt(raw, after)
        for run in ("cluster", "refine"):
            assert getattr(clean, run)() > 0
            assert getattr(raw, run)() == code and raw.info[1] == after, run
            assert np.array_equal(raw.stats[0, :5], clean.stats[0, :5]), "the first chunk moved"
            assert (raw.stats[1:] == 0x5A).all(), "a later chunk wrote its stats row"
        for a, b in zip(raw.shared(), clean.shared()):
            assert np.array_equal(a, b)
        assert raw.picks() == [(code, after), (code, after)]

    @pytest.mark.parametrize("after", AFTER)
    def test_a_corrupt_indptr_ahead_is_reported_where_it_sits(self, mesh, after):
        """Keyed by vertex id: the entry that ends vertex u's segment and
        starts vertex u + 1's past the adjacency, or a chunk id that would
        key one outside ``indptr``."""
        for value in (lambda raw: raw.adj_len + 1, lambda raw: (1 << 63) - 1):
            raw = Raw(mesh, bounds=self.ROUND, by_vertex=True)
            u = int(raw.chunk[after])
            raw.indptr[u + 1] = value(raw)
            at = first_run(raw, {u, u + 1})
            assert raw.both() == (-2, -2) and raw.info[1] == at
        for bad in (mesh.n, -1, -(1 << 62)):  # an id that would key the segment
            raw = Raw(mesh, bounds=self.ROUND, by_vertex=True)
            raw.chunk[after] = bad
            assert raw.both() == (-1, -1) and raw.info[1] == after

    @pytest.mark.parametrize("after", AFTER)
    def test_a_stream_fault_ahead_is_reported_where_it_sits(self, mesh, after):
        """Offsets past the data and a degree past the stream's cap: the
        row visitor's ``ERR_METADATA`` at the vertex that holds it."""
        graph = compress_graph(mesh)
        raw = RawStream(graph, bounds=self.ROUND)
        u = int(raw.chunk[after])
        raw.offsets[u + 1] = len(raw.data) + 7  # ends u's bytes, starts u + 1's
        at = first_run(raw, {u, u + 1})
        assert raw.both() == (_native.DECODE_ERROR - 7,) * 2 and raw.info[1] == at
        raw = RawStream(graph, bounds=self.ROUND)
        raw.offsets[u] = raw.offsets[u + 1] = len(raw.data) + 64  # past the data, lo == hi
        at = first_run(raw, {u - 1, u, u + 1})
        assert raw.both() == (_native.DECODE_ERROR - 7,) * 2 and raw.info[1] == at
        raw = RawStream(graph, bounds=self.ROUND)
        raw.degs[u] = int(raw.degs[raw.chunk].max()) + 1
        raw.scratch_short = 1  # the cap the chunk's degrees set before: u's is past it
        assert raw.both() == (_native.DECODE_ERROR - 7,) * 2 and raw.info[1] == after
        raw = RawStream(graph, bounds=self.ROUND)
        raw.chunk[after] = -1
        assert raw.both() == (-1, -1) and raw.info[1] == after

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_chunks_shorter_than_every_distance(self, width):
        """On a graph of fewer than 16 vertices, chunks of 1-3 positions run
        what the oracle runs, and a fault in one is reported where it sits."""
        graph = weighted(gen.rgg2d(14, 8.0, seed=2), "random", "random")
        assert graph.n < 16 and graph.m > 0
        calls = rounds_agree(graph, chunk_size=width)
        assert calls[0] > 0 and calls[1] > 0
        rounds_agree(compress_graph(graph), chunk_size=width)
        bounds = [[lo, min(lo + width, graph.n)] for lo in range(0, graph.n, width)][::-1]
        assert min(Raw(graph, bounds=bounds).both()) >= 0
        for at in range(graph.n):
            raw = Raw(graph, bounds=bounds)
            raw.chunk[at] = graph.n
            assert raw.both() == (-1, -1) and raw.info[1] == at


class TestCorruptGraph:
    """Through the drivers a chunk the kernel refuses is a ``ValueError``
    naming the vertex -- never a trap."""

    def test_neighbour_out_of_range(self):
        graph = gen.rgg2d(300, 8.0, seed=1)
        graph.adjncy[graph.indptr[17]] = 1 << 40  # after the constructor's check
        with pytest.raises(ValueError, match="neighbor id out of range at vertex 17 "):
            label_propagation_clustering(graph, context(graph), 10)
        pgraph = PartitionedGraph(graph, 4, np.arange(300) % 4)
        with pytest.raises(ValueError, match="neighbor id out of range at vertex 17 "):
            lp_refine(pgraph, context(graph), 100)

    def test_block_out_of_range(self):
        graph = gen.rgg2d(300, 8.0, seed=1)
        pgraph = PartitionedGraph(graph, 4, np.arange(300) % 4)
        pgraph.partition[5] = 9
        with pytest.raises(ValueError, match="cluster or block id out of range at vertex"):
            lp_refine(pgraph, context(graph), 100)

    @pytest.mark.parametrize("edge_weights", ["unit", "random"])
    def test_byte_mutations_of_a_compressed_graph(self, edge_weights):
        """Whatever one flipped bit does to the stream, LP clustering and LP
        refinement run or raise ``ValueError``; the decoder's refusals come
        through with their own text."""
        cg = compress_graph(weighted(gen.weblike(400, 7.0, seed=5), edge_weights, "unit"))
        rng = np.random.default_rng(3)
        outcomes = collections.Counter()
        for _ in range(60):
            data = bytearray(cg.data)
            data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
            bad = _clone(cg, data=data)
            for run in (
                lambda: label_propagation_clustering(bad, context(bad), 10),
                lambda: lp_refine(PartitionedGraph(bad, 4, np.arange(400) % 4), context(bad), 120),
            ):
                try:
                    run()
                    outcomes["ran"] += 1
                except ValueError as exc:
                    outcomes[str(exc).split(" at vertex")[0]] += 1
        assert outcomes["ran"] > 0, outcomes
        assert set(outcomes) & set(_native.ERRORS.values()), outcomes
