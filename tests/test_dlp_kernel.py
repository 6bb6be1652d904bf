"""Distributed LP's pick on the compiled rating map (``lp_kernel.c``'s
``repro_lp_cluster_pick`` / ``repro_lp_refine_pick``) against the numpy
pipelines it replaces (``oracles.cluster_pick`` / ``oracles.refine_pick``).

One batch of one rank, side by side: on random labels, weight tables and
batches, the kernel's pick and the oracle's return the same movers and
targets, on CSR, compressed and hub-holding compressed graphs, and neither
writes a shared array.  Whole ``dpartition`` runs give the same partition,
cut, rank peak and traffic either way.  A corrupt stream or a label out of
range is a ``ValueError`` naming the vertex.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

import oracles
from repro.core.kernels import lp_chunk
from repro.dist import dpartition
from repro.dist.dpartitioner import DistConfig
from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.compressed import compress_graph
from repro.graph.csr import CSRGraph
from test_bulk_decode import _body, _hand_built
from test_lp_kernel import DecodeCalls, weighted

def graphs():
    """``(name, graph)``: CSR unit / weighted, compressed, and compressed
    with chunk-encoded hubs (read from the stream like every other row)."""
    web = gen.weblike(400, 7.0, seed=4)
    heavy = weighted(gen.rgg2d(400, 8.0, seed=4), "zeros", "random")
    yield "csr", web
    yield "csr-weighted", heavy
    yield "compressed", compress_graph(web)
    yield "compressed-weighted", compress_graph(heavy)
    hubs = weighted(web, "random", "random")
    yield "hubs", compress_graph(hubs, high_degree_threshold=32, chunk_length=8)


GRAPHS = dict(graphs())


def zeroed_map(n: int) -> np.ndarray:
    """A clustering pick's rating map: rows slot, seen, rating."""
    return np.zeros((3, n), dtype=np.int64)


def batches_of(n: int, rng) -> list[np.ndarray]:
    """Strided batches of a few rank ranges, as ``dlp._lp_round`` cuts
    them, plus one unordered batch: the jitter is keyed by position."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
    ranges = zip([0, *cuts], [*cuts, n])
    out = []
    for (lo, hi), batches in zip(ranges, (1, 3, 4, 2)):
        for batch in range(batches):
            out.append(np.arange(lo + (batch - lo) % batches, hi, batches, dtype=np.int64))
    out.append(rng.permutation(n)[: n // 3].astype(np.int64))
    return out


def assert_same_pick(kernel, oracle, batch, shared, calls=None):
    """The kernel's pick is the oracle's; with ``calls``, it decoded no
    chunk first."""
    before = [a.copy() for a in shared]
    decoded = calls.calls if calls is not None else 0
    got = kernel(batch)
    assert (calls.calls if calls is not None else 0) == decoded, "a chunk was decoded first"
    want = oracle(batch)
    for a, b in zip(got, want):
        assert np.array_equal(a, b), (got, want)
    for a, b in zip(before, shared):
        assert np.array_equal(a, b), "a pick wrote a shared array"
    return len(got[0])


@pytest.mark.parametrize("name", list(GRAPHS))
def test_cluster_pick_equals_the_oracle(name):
    graph = GRAPHS[name]
    calls = DecodeCalls(graph) if name == "hubs" else None
    n = graph.n
    rng = np.random.default_rng(1)
    vwgt = np.asarray(graph.vwgt)
    moved = 0
    for trial in range(6):
        # labels: leaders of random clusters, or every vertex its own
        labels = rng.integers(0, n, size=n) if trial % 2 else np.arange(n, dtype=np.int64)
        weights = np.bincount(labels, weights=vwgt, minlength=n).astype(np.int64)
        weights += rng.integers(0, 6, size=n)
        cap = int(rng.integers(2, 12))
        maps = zeroed_map(n)
        kernel = lp_chunk.cluster_pick_step(graph, labels, weights, cap, maps)
        oracle = oracles.cluster_pick(graph, labels, weights, cap)
        for batch in batches_of(n, rng):
            moved += assert_same_pick(kernel, oracle, batch, [labels, weights], calls)
        assert not maps[0].any(), "rating map left dirty"  # slot[]; the rest is scratch
    assert moved > 0
    if calls is not None:
        assert graph.stats.num_chunked_vertices > 0


@pytest.mark.parametrize("name", list(GRAPHS))
def test_refine_pick_equals_the_oracle(name):
    graph = GRAPHS[name]
    calls = DecodeCalls(graph) if name == "hubs" else None
    n = graph.n
    rng = np.random.default_rng(2)
    moved = 0
    for k in (2, 5, 16):
        part = rng.integers(0, k, size=n).astype(np.int32)
        block_weights = np.bincount(part, weights=np.asarray(graph.vwgt), minlength=k)
        block_weights = block_weights.astype(np.int64) + rng.integers(0, 20, size=k)
        lmax = int(np.median(block_weights)) + 3
        kernel = lp_chunk.refine_pick_step(graph, part, block_weights, lmax)
        oracle = oracles.refine_pick(graph, part, block_weights, k, lmax)
        for batch in batches_of(n, rng):
            moved += assert_same_pick(kernel, oracle, batch, [part, block_weights], calls)
    assert moved > 0
    if calls is not None:
        assert graph.stats.num_chunked_vertices > 0


def test_weights_the_commit_cannot_sum_go_to_the_oracle():
    """At ``WEIGHT_LIMIT / n`` a vertex the builders refuse by name, and
    ``dpartition`` before any work; only the numpy oracle still picks on
    them.  One below, they build."""
    base = gen.rgg2d(256, 8.0, seed=1)
    n = base.n
    at_limit = _native.WEIGHT_LIMIT // n
    for per_vertex, refused in ((at_limit, True), (at_limit - 1, False)):
        vwgt = np.full(n, per_vertex)
        graph = CSRGraph(base.indptr, base.adjncy, None, vwgt, sorted_neighborhoods=True)
        labels, weights = np.arange(n, dtype=np.int64), np.asarray(graph.vwgt).copy()
        part = (np.arange(n) % 4).astype(np.int32)
        block_weights = np.bincount(part, weights=graph.vwgt, minlength=4).astype(np.int64)
        steps = (
            lambda: lp_chunk.cluster_pick_step(graph, labels, weights, 1 << 62, zeroed_map(n)),
            lambda: lp_chunk.refine_pick_step(graph, part, block_weights, 1 << 62),
            lambda: dpartition(graph, 4, 2),
        )
        for step in steps:
            if refused:
                with pytest.raises(ValueError, match=r"is not below 2\^62"):
                    step()
            else:
                step()
        batch = np.arange(0, n, 3, dtype=np.int64)
        with np.errstate(over="ignore"):
            oracles.cluster_pick(graph, labels, weights, 1 << 62)(batch)
            oracles.refine_pick(graph, part, block_weights, 4, 1 << 62)(batch)


E2E_GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(700, 8.0, seed=31),
    "weblike": lambda: gen.weblike(600, 10.0, seed=7),
    "rhg": lambda: gen.rhg(700, 10.0, seed=5),
}


def summary(graph, ranks, compressed, batches):
    config = DistConfig(batches=batches, seed=1)
    r = dpartition(graph, 4, ranks, compressed=compressed, config=config)
    digest = hashlib.sha1(np.ascontiguousarray(r.partition, dtype=np.int64).tobytes()).hexdigest()
    return digest, r.cut, r.max_rank_peak_bytes, r.comm.bytes_sent, r.comm.messages, r.num_levels


@pytest.mark.parametrize("family", list(E2E_GRAPHS))
def test_dpartition_is_the_same_with_the_pick_entry_off(family):
    graph = E2E_GRAPHS[family]()
    levels = 0
    for ranks, compressed, batches in itertools.product((1, 2, 4), (False, True), (1, 3, 4)):
        got = summary(graph, ranks, compressed, batches)
        with oracles.installed("lp"):
            assert got == summary(graph, ranks, compressed, batches), (ranks, compressed, batches)
        levels += got[-1]
    assert levels > 0  # distributed clustering ran, not refinement alone


class TestRefusals:
    """Through the pick steps a batch the kernel refuses is a
    ``ValueError`` naming the vertex, never a trap."""

    N, U = 20, 2

    def test_corrupt_stream(self):
        deg, body = _body(self.U, residuals=(0, self.N + 5))
        graph = _hand_built(self.N, self.U, deg, body)
        labels, weights = np.arange(self.N, dtype=np.int64), np.ones(self.N, dtype=np.int64)
        pick = lp_chunk.cluster_pick_step(graph, labels, weights, 4, zeroed_map(self.N))
        with pytest.raises(ValueError, match=f"neighbor id out of range at vertex {self.U} "):
            pick(np.arange(self.N, dtype=np.int64))
        part = np.zeros(self.N, dtype=np.int32)
        pick = lp_chunk.refine_pick_step(graph, part, np.array([self.N, 0]), self.N)
        with pytest.raises(ValueError, match=f"neighbor id out of range at vertex {self.U} "):
            pick(np.arange(self.N, dtype=np.int64))

    @pytest.mark.parametrize("compressed", [False, True])
    def test_label_out_of_range(self, compressed):
        graph = gen.rgg2d(200, 8.0, seed=1)
        graph = compress_graph(graph) if compressed else graph
        # the batch's first vertex: its own label is checked before any is rated
        n, batch = graph.n, np.arange(12, 200, 4, dtype=np.int64)
        labels, weights = np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64)
        labels[12] = n + 3
        pick = lp_chunk.cluster_pick_step(graph, labels, weights, 4, zeroed_map(n))
        with pytest.raises(ValueError, match="cluster or block id out of range at vertex 12 "):
            pick(batch)
        part = (np.arange(n) % 4).astype(np.int32)
        part[12] = 9
        pick = lp_chunk.refine_pick_step(graph, part, np.full(4, 50, dtype=np.int64), 60)
        with pytest.raises(ValueError, match="cluster or block id out of range at vertex 12 "):
            pick(batch)
