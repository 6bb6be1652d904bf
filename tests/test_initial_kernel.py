"""The compiled searches of initial partitioning (``bisection_kernel.c``)
against the Python loops they port (ISSUE 22).

Here both run in one process, the loops from ``tests/oracles.py``: the
kernel must give the oracle's assignment, write the same prefixes and leave
the RNG where the oracle leaves it, over the matrix of
``tests/test_initial_workspace.py``; it must refuse, by name, weights its
fixed-width arithmetic cannot hold (which only the oracle's Python integers
still take); and, called without the wrapper's checks on a corrupted
workspace, it must return an error code and write nothing outside the
buffers it was given.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
import repro
from repro.core.initial.bipartition import (
    bfs_bipartition,
    greedy_graph_growing_bipartition,
)
from repro.core.initial.fm2way import fm2way_refine
from repro.core.initial.recursive import initial_partition
from repro.core.initial.workspace import BisectionWorkspace, fm_patience
from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from scalar_reference import scalar_random_bipartition
from test_initial_workspace import (  # noqa: F401  (coarsest is a fixture)
    GOLDEN_GRAPHS,
    SEEDS,
    RecordingPart,
    coarsest,
    small_bisections,
)

def on_oracle(fn, *args, **kwargs):
    """``fn(...)`` with the bisection oracles in the compiled searches' place."""
    with oracles.installed("bisection"):
        return fn(*args, **kwargs)


def recorded_fm(graph, start, caps, rounds, refine=fm2way_refine):
    """``(refined, written prefixes)`` of one ``refine`` call."""
    part = start.copy().view(RecordingPart)
    part.writes = []
    refine(graph, part, caps, rounds=rounds)
    return np.asarray(part), part.writes


def assert_searches_agree(graph, target, cap, seed, start, fm_caps):
    """Both growths, and FM from ``start``: same answers, same draws, same writes."""
    for grow, oracle, args in (
        (greedy_graph_growing_bipartition, oracles.greedy_graph_growing_bipartition, (target, cap)),
        (bfs_bipartition, oracles.bfs_bipartition, (target,)),
    ):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = grow(graph, *args, rng)
        want = oracle(graph, *args, rng_ref)
        assert got.dtype == want.dtype and np.array_equal(got, want), grow.__name__
        assert rng.integers(1 << 30) == rng_ref.integers(1 << 30)
    for rounds in (1, 2):
        got, writes = recorded_fm(graph, start, fm_caps, rounds)
        want, want_writes = recorded_fm(graph, start, fm_caps, rounds, oracles.fm2way_refine)
        assert np.array_equal(got, want) and writes == want_writes, rounds


class TestKernelEqualsOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("slack", [1.0, 1.2], ids=["tight", "loose"])
    def test_matrix(self, coarsest, seed, slack):
        total = coarsest.total_vertex_weight
        start = scalar_random_bipartition(coarsest, total // 2, np.random.default_rng(seed))
        cap = int(slack * -(-total // 2))
        assert_searches_agree(
            coarsest, total // 2, int(0.53 * total), seed, start, (cap, cap)
        )

    @pytest.mark.parametrize("family", list(GOLDEN_GRAPHS))
    def test_recursive_bisection(self, family):
        g = GOLDEN_GRAPHS[family]()
        for k, seed in ((7, 1), (64, 2)):
            got = initial_partition(g, k, 0.03, np.random.default_rng(seed))
            want = on_oracle(initial_partition, g, k, 0.03, np.random.default_rng(seed))
            assert np.array_equal(got, want), (k, seed)

    def test_degenerate_graphs(self):
        no_edges = np.zeros((0, 2), dtype=np.int64)
        path = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
        for g, target, cap in (
            (from_edges(0, no_edges), 0, 0),
            (from_edges(1, no_edges), 1, 1),
            (from_edges(9, no_edges, vwgt=np.arange(1, 10)), 22, 24),
            (from_edges(5, path, vwgt=np.array([1, 50, 1, 1, 1])), 2, 3),
            (gen.star(40), 20, 21),
        ):
            total = g.total_vertex_weight
            for seed in range(4):
                start = scalar_random_bipartition(g, target, np.random.default_rng(seed))
                caps = (cap, max(cap, total - target))
                assert_searches_agree(g, target, cap, seed, start, caps)
        # k > n: subgraphs run empty on the way down
        got = initial_partition(gen.grid2d(2, 3), 16, 0.03, np.random.default_rng(1))
        want = on_oracle(initial_partition, gen.grid2d(2, 3), 16, 0.03, np.random.default_rng(1))
        assert got.tolist() == want.tolist() == [11, 3, 1, 9, 15, 7]


@settings(max_examples=150, deadline=None)
@given(small_bisections())
def test_kernel_equals_oracle_on_arbitrary_small_graphs(case):
    graph, start, slack, seed = case
    total = graph.total_vertex_weight
    cap = -(-total // 2) + slack
    assert_searches_agree(graph, total // 2, cap, seed, start, (cap, cap))


# --------------------------------------------------------------------- #
# magnitudes: exact where the kernel runs, refused by name where it cannot
# --------------------------------------------------------------------- #
def ladder_graph(weight: int):
    """12 vertices, two rails and rungs, every edge ``weight``."""
    edges = [[i, i + 1] for i in range(5)] + [[i + 6, i + 7] for i in range(5)]
    edges += [[i, i + 6] for i in range(6)]
    return from_edges(12, np.array(edges), np.full(len(edges), weight, dtype=np.int64))


class TestMagnitudes:
    def test_stop_rule_is_exact_past_float_precision(self):
        """Gains near 2**42: the stopping rule's sums pass 2**53 (a float
        product there rounds), the kernel's __int128 and the oracle's
        integers still evaluate one inequality."""
        g = ladder_graph((1 << 40) + 1)
        for seed in range(6):
            start = np.random.default_rng(seed).integers(0, 2, size=12).astype(np.int32)
            assert_searches_agree(g, 6, 7, seed, start, (8, 8))

    def test_stop_rule_is_exact_past_int128(self):
        """The rule's products past 2**127, where an ``__int128`` wraps: a
        heavy edge h1-h2 of weight ~2**61 (W just below 2**62) and ``ln n``
        = 9 zero-gain moves along a path before h2 leaves h1 at step 10.
        There ``4 (steps - 1) f^2`` is 36 * 2**122: the exact rule stops the
        pass (so the start comes back), a wrapped one would go on to move h1
        after h2 and keep the gain of 1 the light edge h2-r adds."""
        n, steps = 8200, 9
        assert fm_patience(n) == steps
        h1, h2, r, z = 0, 1, 2, 3  # r, z too heavy to move
        path = list(range(4, 4 + steps))
        edges = [(h1, h2), (h2, r), (h1, path[0]), *zip(path, path[1:]), (path[-1], z)]
        weights = np.ones(len(edges), dtype=np.int64)
        weights[:2] = (1 << 61) - 64, 2
        vwgt = np.ones(n, dtype=np.int64)
        vwgt[[r, z]] = 10**6
        g = from_edges(n, np.array(edges), weights, vwgt)
        assert 2 * int(weights.sum()) < 1 << 62 <= 4 * n**3 * (2 * int(weights.sum())) ** 2
        start = np.zeros(n, dtype=np.int32)
        start[[*path, r, z]] = 1
        caps = (int(vwgt[start == 0].sum()) + steps, int(vwgt[start == 1].sum()))
        want = oracles.fm2way_refine(g, start.copy(), caps, rounds=1)
        assert np.array_equal(want, start)
        got, writes = recorded_fm(g, start, caps, 1)
        assert np.array_equal(got, want) and writes == recorded_fm(
            g, start, caps, 1, oracles.fm2way_refine
        )[1]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ladder_graph(1 << 61),  # a gain may reach 3 * 2**61
            lambda: ladder_graph(1 << 59),  # W = 2**64: past 2**62, and its stop rule past __int128
            lambda: from_edges(
                3, np.array([[0, 1], [1, 2]]), vwgt=np.array([1, 1 << 61, 1 << 61])
            ),
        ],
        ids=["gain-past-int64", "rule-past-int128", "vertex-weights"],
    )
    def test_weights_the_kernel_cannot_hold_run_the_oracle(self, make):
        """Only the oracle's Python integers hold them: the kernels refuse
        them by name, ``partition()`` before any work."""
        g = make()
        with pytest.raises(ValueError, match=r"cannot hold this graph: .* not below 2\^62"):
            BisectionWorkspace(g).kernels()
        with pytest.raises(ValueError, match=r"graph refused: .* not below 2\^62"):
            repro.partition(g, 2)
        part = oracles.greedy_graph_growing_bipartition(g, 2, 1 << 62, np.random.default_rng(0))
        refined = oracles.fm2way_refine(g, part.copy(), (1 << 63, 1 << 63))
        assert set(np.unique(refined).tolist()) <= {0, 1}

    def test_caps_beyond_int64_are_clamped_not_truncated(self):
        g = gen.grid2d(6, 6)
        huge = 1 << 70  # ctypes would silently keep the low 64 bits: zero
        got = greedy_graph_growing_bipartition(g, 18, huge, np.random.default_rng(3))
        want = oracles.greedy_graph_growing_bipartition(g, 18, huge, np.random.default_rng(3))
        assert np.array_equal(got, want) and int((got == 0).sum()) == 18
        start = scalar_random_bipartition(g, 18, np.random.default_rng(3))
        got = fm2way_refine(g, start.copy(), (huge, huge))
        assert np.array_equal(got, oracles.fm2way_refine(g, start.copy(), (huge, huge)))


# --------------------------------------------------------------------- #
# the contract in the C header
# --------------------------------------------------------------------- #
PAD = 64


class Guarded:
    """Buffers with canaries on both sides; ``ptr`` hands out the inside."""

    def __init__(self) -> None:
        self.buffers: list[np.ndarray] = []

    def ptr(self, size: int, dtype) -> int:
        buf = np.full(size + 2 * PAD, 0x5A, dtype=dtype)
        self.buffers.append(buf)
        return buf[PAD:].ctypes.data

    def inside(self, i: int) -> np.ndarray:
        buf = self.buffers[i]
        return buf[PAD : len(buf) - PAD]

    def check(self) -> None:
        for buf in self.buffers:
            assert np.all(buf[:PAD] == 0x5A) and np.all(buf[len(buf) - PAD :] == 0x5A), "canary"


class Raw:
    """The three functions called the way ``BisectionKernels`` calls them,
    minus its checks, on arrays a test may corrupt, with every output guarded.
    ``short`` takes that many entries off each capacity handed over."""

    def __init__(self, graph) -> None:
        ws = BisectionWorkspace(graph)
        self.n = ws.n
        self.xadj = ws.xadj.copy()
        self.adj = np.ascontiguousarray(ws.flat[1]).copy()
        self.wgt = np.ascontiguousarray(ws.flat[2]).copy()
        self.vwgt = np.ascontiguousarray(ws.vwgt).copy()
        self.order = np.random.default_rng(0).permutation(ws.n)
        self.work = np.zeros(4, dtype=np.int64)
        self.total = int(self.vwgt.sum())

    def _call(self, search, out, *args, heap_short=0):
        """Workspace arrays first, the heap and the counters last."""
        entries = self.n + len(self.adj) - heap_short
        rc = _native.bisection_kernels()[search](
            self.n, self.xadj.ctypes.data, self.adj.ctypes.data,
            self.wgt.ctypes.data, self.vwgt.ctypes.data,
            *args, out.ptr(3 * entries, np.int64), entries, self.work.ctypes.data,
        )  # fmt: skip
        out.check()
        return rc

    def greedy(self, short=0, heap_short=0):
        n, out = self.n, Guarded()
        rc = self._call(
            0, out, self.order.ctypes.data, self.total // 2, self.total,
            out.ptr(n, np.int64), out.ptr(n, np.uint8), out.ptr(n, np.uint8),
            out.ptr(n - short, np.int64), n - short, heap_short=heap_short,
        )  # fmt: skip
        return rc, out.inside(3)

    def bfs(self, short=0):
        n, out = self.n, Guarded()
        rc = self._call(
            1, out, self.order.ctypes.data, self.total // 2,
            out.ptr(n, np.uint8), out.ptr(n - short, np.int64), n - short,
        )  # fmt: skip
        return rc, out.inside(1)

    def fm(self, side, short=0, heap_short=0, rounds=2):
        n, out = self.n, Guarded()
        side = np.ascontiguousarray(side, dtype=np.int8)
        rc = self._call(
            2, out, self.total, self.total, rounds, 0, side.ctypes.data,
            out.ptr(n, np.int64), out.ptr(n, np.uint8), out.ptr(rounds, np.int64),
            out.ptr(rounds * n - short, np.int64), rounds * n - short, heap_short=heap_short,
        )  # fmt: skip
        return rc, side


@pytest.fixture(scope="module")
def mesh():
    return gen.rgg2d(300, avg_degree=8, seed=1)


def alternating(n):
    return np.arange(n, dtype=np.int8) % 2


class TestKernelContract:
    """``bisection_kernel.c`` defends itself: an id it cannot index or a
    buffer one entry short comes back as an error code, and nothing is ever
    written outside the capacities passed in."""

    def test_clean_calls_stay_inside_their_buffers(self, mesh):
        raw = Raw(mesh)
        count, grown = raw.greedy()
        assert 0 < count <= mesh.n and len(set(grown[:count].tolist())) == count
        count, queue = raw.bfs()
        assert count == mesh.n // 2 and len(set(queue[:count].tolist())) == count
        passes, side = raw.fm(alternating(mesh.n))
        assert 1 <= passes <= 2 and set(np.unique(side).tolist()) == {0, 1}
        assert raw.work[0] > 0 and raw.work[2] == passes and raw.work[3] == 0

    @pytest.mark.parametrize("bad", [300, 1 << 40, -1, -(1 << 62)])
    def test_id_out_of_range_is_refused(self, mesh, bad):
        raw = Raw(mesh)
        raw.adj[3::7] = bad
        assert raw.greedy()[0] == raw.bfs()[0] == raw.fm(alternating(mesh.n))[0] == -1
        raw = Raw(mesh)
        raw.order[:] = bad  # the first seed is already unusable
        assert raw.greedy()[0] == raw.bfs()[0] == -1

    def test_side_other_than_0_or_1_is_refused(self, mesh):
        for bad in (2, -1, 127, -128):
            side = alternating(mesh.n)
            side[17] = bad
            assert Raw(mesh).fm(side)[0] == -3

    def test_capacity_one_short_is_refused(self, mesh):
        """Exactly the bound is enough; one entry less is a code, not a write."""
        raw = Raw(mesh)
        n = mesh.n
        # the whole graph in block 0 fills grown[] and the BFS queue to n
        raw.total *= 2
        assert raw.greedy()[0] == n and raw.bfs()[0] == n
        assert raw.greedy(short=1)[0] == -2 and raw.bfs(short=1)[0] == -2
        raw.total //= 2
        # a heap of one entry cannot take a seed's neighbours
        m = len(raw.adj)
        assert raw.greedy(heap_short=n + m - 1)[0] == -2
        assert raw.fm(alternating(n), heap_short=n + m - 1)[0] == -2
        # every vertex on the boundary and no cap in force: a pass moves more
        # than one vertex, which a moves[] of one cannot hold
        assert raw.fm(alternating(n), rounds=1)[0] == 1
        assert raw.fm(alternating(n), rounds=1, short=n - 1)[0] == -2

    def test_heap_needs_more_than_n_entries(self):
        """On a clique every absorbed vertex pushes all outside neighbours:
        n entries are too few, the n + m of the header's bound are enough."""
        g = from_edges(24, np.array([[i, j] for i in range(24) for j in range(i)]))
        raw = Raw(g)
        raw.total *= 2
        assert raw.greedy()[0] == 24
        assert raw.greedy(heap_short=len(raw.adj))[0] == -2  # n entries are too few


class TestCorruptWorkspace:
    """Through the public functions a workspace the kernels refuse is a
    ``ValueError`` -- on all three, and never a trap."""

    SEARCHES = {
        "greedy": lambda ws: greedy_graph_growing_bipartition(
            ws, ws.n // 2, ws.n, np.random.default_rng(0)
        ),
        "bfs": lambda ws: bfs_bipartition(ws, ws.n // 2, np.random.default_rng(0)),
        "fm": lambda ws: fm2way_refine(
            ws, alternating(ws.n).astype(np.int32), (ws.n, ws.n)
        ),
    }

    @pytest.fixture
    def ws(self):
        return BisectionWorkspace(gen.rgg2d(300, avg_degree=8, seed=1))

    @pytest.mark.parametrize("search", list(SEARCHES))
    @pytest.mark.parametrize("bad", [300, -1], ids=["id-n", "negative-id"])
    def test_bad_neighbour_id(self, ws, search, bad):
        ws.flat[1][::5] = bad
        with pytest.raises(ValueError, match="vertex id out of range"):
            self.SEARCHES[search](ws)

    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_descending_xadj(self, ws, search):
        ws.xadj[[10, 11]] = ws.xadj[[11, 10]]
        assert ws.xadj[10] > ws.xadj[11]
        with pytest.raises(ValueError, match="xadj"):
            self.SEARCHES[search](ws)

    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_xadj_past_the_adjacency(self, ws, search):
        ws.xadj[-1] += 1
        with pytest.raises(ValueError, match="xadj"):
            self.SEARCHES[search](ws)

    @pytest.mark.parametrize("search", ["greedy", "fm"])
    def test_heap_one_entry_short_of_what_the_search_needs(self, ws, search):
        kernels = ws.kernels()
        kernels.heap = kernels.heap[:3]
        with pytest.raises(ValueError, match="capacity"):
            self.SEARCHES[search](ws)

    def test_fm_refuses_an_assignment_that_is_not_a_bipartition(self, ws):
        part = alternating(ws.n).astype(np.int32)
        part[5] = 2
        with pytest.raises(ValueError, match="other than 0 or 1"):
            fm2way_refine(ws, part, (ws.n, ws.n))
