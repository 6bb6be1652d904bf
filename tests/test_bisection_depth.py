"""Recursive bisection a tree depth per call (``repro_bisect_depth``) and the
searches' two queue layouts (``queue_init`` in ``bisection_kernel.c``).

The queue is a binary heap of (key, tie, vertex) or, when the keys -gain
are small integers, FIFO buckets over the same buffer.  Nothing chooses the
layout but the graph, and nothing tells the two apart but the buffer's
words: a search that absorbs one vertex leaves the neighbours it pushed as
triples in the heap and as plain vertex ids in the buckets.  Both layouts
must give the heapq oracle's pool -- rows, work counters, assignment, draws.

``initial_partition`` must give the recursion it replaced
(``oracles.initial_partition``: one pool and one split a bisection,
depth-first) the same partition, generator state and attempts counters, in
at most ceil(log2 k) calls; a refusal leaves the generator untouched.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from repro.core.initial import recursive
from repro.core.initial.recursive import POOL_SIGMAS, initial_partition
from repro.core.initial.workspace import CHILD_FIELDS, NODE_FIELDS, BisectionTree
from repro.graph import _native
from repro.graph import access
from repro.graph import generators as gen
from repro.graph.access import full_adjacency
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.graph.csr import CSRGraph
from test_bisection_pool import assert_pools_agree
from test_initial_workspace import compiled_pool, reweighted

SCALE = 1 << 10  # a power of two: the skip rule's doubles scale exactly


def scaled(graph, factor: int = 1, heavy: int | None = None):
    """``graph`` with every edge weight times ``factor``, and the first edge
    weighing ``heavy`` if given."""
    src, dst, w = full_adjacency(graph)
    upper = src < dst
    weights = np.asarray(w)[upper].astype(np.int64) * factor
    if heavy is not None:
        weights[0] = heavy
    edges = np.stack([src[upper], dst[upper]], axis=1)
    return from_edges(graph.n, edges, weights, np.asarray(graph.vwgt))


def queue_mode(graph) -> str:
    """Which layout the searches on ``graph`` use, read off the buffer: grow
    block 0 to one vertex from the seed ``s``.  The buckets then hold the
    neighbours of ``s`` as vertex ids in push order (the seed's popped entry
    is reused by the first), the heap the triples (-2 w, tie 1.., vertex)."""
    tree, g = BisectionTree(graph), oracles.as_csr(graph)
    seed = int(np.argmax(np.diff(g.indptr)))  # a vertex with neighbours
    order = np.concatenate([[seed], np.delete(np.arange(g.n), seed)])
    assert tree.grow_greedy(order, 1, g.total_vertex_weight).tolist() == [seed]
    lo, hi = g.indptr[seed], g.indptr[seed + 1]
    neighbours, weights = g.adjncy[lo:hi].tolist(), np.asarray(g.adjwgt)[lo:hi].tolist()
    degree = hi - lo
    heap = tree._scratch.get("bisection-heap", 3 * (g.n + len(g.adjncy)), np.int64)[0]
    if heap[:degree].tolist() == neighbours:
        return "buckets"
    triples = heap[: 3 * degree].reshape(degree, 3).tolist()
    assert sorted(tie for _, tie, _ in triples) == list(range(1, degree + 1))
    assert sorted((v, -key) for key, _, v in triples) == sorted(
        (v, 2 * w) for v, w in zip(neighbours, weights)
    )
    return "heap"


def pooled(graph, target, caps, seed, attempts=8, rounds=2):
    """``(best, rows, work, rng state)`` of one compiled pool on ``graph``."""
    rng = np.random.default_rng(seed)
    best, tree = compiled_pool(graph, target, *caps, rng, attempts, rounds)
    return best, tree.rows[0].copy(), tree.work.tolist(), rng.bit_generator.state


class TestQueue:
    @pytest.mark.parametrize("family", ["rgg2d", "weblike", "grid"])
    def test_buckets_and_heap_run_the_same_pool(self, family):
        """The same structure twice: unit weights (buckets) and every weight
        times 2^10 (keys 2^10 wider: the heap).  Gains scale, their order
        does not, so the pools agree but for the cut column -- and each is
        the heapq oracle's."""
        unit = {
            "rgg2d": lambda: gen.rgg2d(220, avg_degree=8, seed=3),
            "weblike": lambda: gen.weblike(200, avg_degree=8, seed=5),
            "grid": lambda: gen.grid2d(12, 14),
        }[family]()
        heavy = scaled(unit, SCALE)
        assert (queue_mode(unit), queue_mode(heavy)) == ("buckets", "heap")
        total = unit.total_vertex_weight
        for cap in (total // 2 + 1, int(0.53 * total)):
            for seed in (1, 2, 3):
                best, rows, work, state = pooled(unit, total // 2, (cap, cap), seed)
                best2, rows2, work2, state2 = pooled(heavy, total // 2, (cap, cap), seed)
                assert best.tobytes() == best2.tobytes() and state == state2
                assert work == work2 and work[0] > 0
                assert rows[:, 3].tolist() == (rows2[:, 3] // SCALE).tolist()
                rows[:, 3] = rows2[:, 3] = 0
                assert rows.tolist() == rows2.tolist()
            for g in (unit, heavy):
                assert_pools_agree(g, total // 2, (cap, cap), 4, 8, 2)

    def test_one_heavy_edge_takes_the_heap(self):
        g = gen.rgg2d(300, avg_degree=8, seed=1)
        heavy = scaled(g, 1, heavy=10**6)
        assert (queue_mode(g), queue_mode(heavy)) == ("buckets", "heap")
        total = g.total_vertex_weight
        cap = int(0.53 * total)
        for seed in range(3):
            assert_pools_agree(heavy, total // 2, (cap, cap), seed, 8, 2)
            assert_pools_agree(g, total // 2, (cap, cap), seed, 8, 2)

    def test_weighted_graphs_agree_on_either_layout(self):
        """Random edge and vertex weights in 1..19: buckets on a large enough
        graph, the heap on a small one (3 D + 1 > (n + m) / 2)."""
        big = reweighted(gen.rgg2d(600, avg_degree=8, seed=2), edge_weights=True, vertex_weights=True)
        small = reweighted(gen.rgg2d(60, avg_degree=6, seed=2), edge_weights=True, vertex_weights=True)
        assert (queue_mode(big), queue_mode(small)) == ("buckets", "heap")
        for g in (big, small):
            total = g.total_vertex_weight
            cap = int(0.53 * total)
            for seed in range(3):
                assert_pools_agree(g, total // 2, (cap, cap), seed, 8, 2)

    def test_the_bucket_range_bound(self):
        """A star's centre has degree n - 1: 3 D + 1 = 3 n - 2 buckets exceed
        (n + m) / 2 = (3 n - 2) / 2, so the heap; a path (D = 2) takes buckets
        from n = 6 on, where 7 <= (n + 2 (n - 1)) / 2."""
        assert queue_mode(gen.star(40)) == "heap"
        path = lambda n: from_edges(n, np.array([[i, i + 1] for i in range(n - 1)]))  # noqa: E731
        assert queue_mode(path(5)) == "heap" and queue_mode(path(6)) == "buckets"


# --------------------------------------------------------------------- #
# the depth entry against the recursion
# --------------------------------------------------------------------- #
class Counters:
    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value


def traced(fn, *args):
    """``(fn(*args), its attempts counters)``."""
    tracer = Counters()
    access.install_tracer(tracer)
    try:
        result = fn(*args)
    finally:
        access.uninstall_tracer()
    return result, tracer.counts


def compiled_portfolio(graph, target0, max0, max1, rng, attempts=8, fm_rounds=2):
    """``oracles.bipartition_portfolio`` on the compiled pool."""
    return compiled_pool(graph, target0, max0, max1, rng, attempts, fm_rounds)[0]


def kernel_recursion(graph, k, epsilon, rng):
    """The recursion on the compiled pool: fast enough for k = 64."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracles, "bipartition_portfolio", compiled_portfolio)
        return oracles.initial_partition(graph, k, epsilon, rng)


def assert_recursion_agrees(graph, k, seed, recursion=kernel_recursion, epsilon=0.03):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, counts = traced(initial_partition, graph, k, epsilon, rng)
    want, want_counts = traced(recursion, graph, k, epsilon, ref)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, seed)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert counts == want_counts
    if k > 1:
        assert counts["initial.attempts_run"] + counts["initial.attempts_skipped"] == 8 * (k - 1)
    return got


GRAPHS = {
    "unit": lambda: gen.rgg2d(400, avg_degree=8, seed=7),
    "weighted": lambda: reweighted(
        gen.rhg(400, avg_degree=8, seed=5), edge_weights=True, vertex_weights=True
    ),
    "edge-weighted": lambda: reweighted(gen.weblike(400, avg_degree=8, seed=3), edge_weights=True, vertex_weights=False),
    "compressed": lambda: compress_graph(gen.weblike(400, avg_degree=8, seed=3)),
    "disconnected": lambda: from_edges(
        50, np.array([[i, i + 1] for i in range(0, 48, 2)]), vwgt=np.arange(1, 51)
    ),
}


class TestDepthEntry:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 64])
    @pytest.mark.parametrize("family", list(GRAPHS))
    def test_is_the_recursion(self, family, k):
        g = GRAPHS[family]()
        for seed in (1, 2):
            part = assert_recursion_agrees(g, k, seed)
            assert part.min(initial=0) >= 0 and part.max(initial=0) < max(k, 1)

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13])
    def test_is_the_python_recursion(self, k):
        """The whole reference in Python: pool, split and recursion."""
        g = reweighted(gen.rgg2d(120, avg_degree=6, seed=4), edge_weights=True, vertex_weights=True)
        assert_recursion_agrees(g, k, 3, recursion=oracles.initial_partition)

    @pytest.mark.parametrize("k", [7, 16, 64])
    def test_k_above_n(self, k):
        """Subgraphs run empty on the way down, and still draw their seeds."""
        for g in (gen.grid2d(2, 3), from_edges(5, np.zeros((0, 2), dtype=np.int64))):
            assert_recursion_agrees(g, k, 1, recursion=oracles.initial_partition)
            assert_recursion_agrees(g, k, 2)

    def test_empty_graph(self):
        g = from_edges(0, np.zeros((0, 2), dtype=np.int64))
        for k in (1, 4):
            assert assert_recursion_agrees(g, k, 1).tolist() == []

    def test_the_coarsest_graph_of_a_run(self, monkeypatch):
        """The graph initial partitioning really sees: contracted, weighted,
        unsorted rows."""
        import repro
        from repro.core import config as C
        from repro.core import partitioner

        seen = []
        real = partitioner.initial_partition

        def probe(g, *args, **kwargs):
            seen.append(g)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(partitioner, "initial_partition", probe)
        repro.partition(gen.rgg2d(6000, avg_degree=8, seed=1), 64, C.terapart(seed=1))
        (coarse,) = seen
        assert queue_mode(coarse) == "buckets"
        for k in (5, 64):
            assert_recursion_agrees(coarse, k, 9)

    def test_long_unsorted_rows_with_repeats(self):
        """Rows past the split's insertion-sort runs, with repeated
        neighbours told apart by weight: each depth's merge runs through the
        sort scratch and must stay inside it."""
        rng = np.random.default_rng(7)
        n = 90
        rows = [rng.integers(0, n, size=rng.integers(0, 70)) for _ in range(n)]
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        adjncy = np.concatenate(rows)
        g = CSRGraph(indptr, adjncy, np.arange(1, len(adjncy) + 1), rng.integers(1, 4, size=n))
        for k in (3, 8, 21):
            assert_recursion_agrees(g, k, 2)

    def test_one_call_a_depth(self, monkeypatch):
        """k = 64: six depths, six calls, not 63 pools and 31 splits."""
        functions = _native.bisection_kernels()
        calls = [0] * len(functions)

        def counted(i, fn):
            def call(*args):
                calls[i] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(
            _native,
            "bisection_kernels",
            lambda: tuple(counted(i, fn) for i, fn in enumerate(functions)),
        )
        g = gen.rgg2d(2000, avg_degree=8, seed=1)
        for k in (64, 48, 5):
            calls[:] = [0] * len(functions)
            initial_partition(g, k, 0.03, np.random.default_rng(1))
            assert calls == [0, 0, 0, math.ceil(math.log2(k))], k


class TestRefusals:
    def test_a_refusal_mid_tree_leaves_the_generator_untouched(self, monkeypatch):
        """The seeds are drawn before the first depth runs: the depth that
        refuses must put the generator back where initial_partition found it."""
        functions = _native.bisection_kernels()
        depth = functions[3]
        calls = []

        def refuses_second(*args):
            calls.append(1)
            return -2 if len(calls) == 2 else depth(*args)

        monkeypatch.setattr(_native, "bisection_kernels", lambda: (*functions[:3], refuses_second))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="capacity"):
            initial_partition(gen.rgg2d(300, avg_degree=8, seed=1), 8, 0.03, rng)
        assert len(calls) == 2 and rng.bit_generator.state == state

    def test_a_corrupt_workspace_is_refused_after_the_draw(self):
        g = gen.rgg2d(300, avg_degree=8, seed=1)
        g.adjncy[7::11] = g.n  # the tree binds the graph's own adjacency
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="vertex id out of range"):
            initial_partition(g, 8, 0.03, rng)
        assert rng.bit_generator.state == state

    def test_cut_sums_are_refused_before_the_draw(self):
        edges = np.array([[i, i + 1] for i in range(11)])
        g = from_edges(12, edges, np.full(11, 1 << 47, dtype=np.int64))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"attempts \* W is not below 2\^53"):
            initial_partition(g, 4, 0.03, rng)
        assert rng.bit_generator.state == state


class TestNodeRows:
    """The entry checks every node row it is handed: a region outside the
    arena, an xadj that does not tile, a bad seed index or block range is a
    code, never a read or write outside the buffers."""

    @pytest.fixture
    def tree(self):
        g = gen.rgg2d(200, avg_degree=8, seed=2)
        return BisectionTree(g, recursive._POOL_CODES, 8, 2, POOL_SIGMAS)

    @staticmethod
    def depth(tree, nodes, seeds):
        return tree.depth(nodes, seeds, np.zeros(tree.n, dtype=np.int32))

    def row(self, tree, **changes):
        *root, total = tree.root(4)
        row = dict(zip(NODE_FIELDS, [*root, total // 2, total, total, 3]))
        row.update(changes)
        return [row[name] for name in NODE_FIELDS]

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"n": 201}, "capacity"),
            ({"n": -1}, "capacity"),
            ({"xadj": 1}, "capacity"),
            ({"edge": 5}, "capacity"),
            ({"m": 10}, "xadj does not tile"),
            ({"seed": 3}, "seed"),
            ({"seed": -1}, "seed"),
            ({"k": 1}, "block"),
            ({"first": (1 << 31) - 3}, "block"),
        ],
    )
    def test_bad_rows_are_refused(self, tree, changes, match):
        seeds = np.arange(3, dtype=np.uint64)
        with pytest.raises(ValueError, match=match):
            self.depth(tree, [self.row(tree, **changes)], seeds)

    def test_a_good_row_splits(self, tree):
        """k = 4: two children of two blocks each, seeds 1 and 2 in preorder."""
        children = self.depth(tree, [self.row(tree)], np.arange(3, dtype=np.uint64))
        assert all(len(c) == len(CHILD_FIELDS) for c in children)
        assert [c[6:9] for c in children] == [[2, 0, 1], [2, 2, 2]]
        assert sum(c[0] for c in children) == tree.n
