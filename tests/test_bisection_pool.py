"""A bisection's attempt pool and the subgraph split in C (``repro_bisect_pool``,
``repro_split`` in ``bisection_kernel.c``) against the Python they replace.

The oracles are ``oracles.portfolio`` (the pool as Python loops, installed
in the compiled pool's place) and ``oracles.extract_subgraphs``.  The
kernel must return the oracle's best assignment byte for byte, leave the
generator where the oracle leaves it (it pre-draws every order and rewinds),
report each slot as the oracle ran it -- kind, skipped or run,
infeasibility, cut, heap pops / pushes and FM passes -- and charge its
scratch under the names the ledger knows; the split must write the CSR
graphs ``extract_subgraphs`` builds.  A refusal leaves the generator and
the inputs as they were; inputs only the oracle's Python integers hold
(negative caps, cut sums a double would round) are refused by name.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
from repro.core import config as C
from repro.core import partitioner
from repro.core.initial import recursive
from repro.core.initial.deep import deep_initial_partition
from repro.core.initial.recursive import POOL, bipartition_portfolio, initial_partition
from repro.core.initial.workspace import KIND_CODES, ROW_FIELDS, BisectionKernels, BisectionWorkspace
from repro.core.kernels import two_way_cut
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.graph.csr import CSRGraph
from repro.memory import scratch
from test_initial_workspace import RecordingTracker, reweighted, side_weights

@contextmanager
def oracle():
    """The Python pool, loops and extraction of ``tests/oracles.py`` in the
    compiled ones' place: every call takes the Python path."""
    with oracles.installed("bisection"), pytest.MonkeyPatch.context() as m:
        yield m


def kernel_pool(graph, target, caps, seed, attempts, rounds):
    """``(best, stats rows, rng state after)`` of the kernel's pool."""
    rows = []
    pool = BisectionKernels.pool

    def watched(self, *args):
        pooled = pool(self, *args)
        rows.append(pooled[1].tolist())
        return pooled

    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(BisectionKernels, "pool", watched)
        best = bipartition_portfolio(graph, target, *caps, rng, attempts=attempts, fm_rounds=rounds)
    (rows,) = rows
    return best, rows, rng.bit_generator.state


def oracle_pool(graph, target, caps, seed, attempts, rounds):
    """``(best, attempts, rng state after)`` of the Python pool, each attempt
    that ran as ``(kind, infeasibility, cut, pops, pushes, passes)`` -- the
    heap work counted the way ``tests/test_perf_smoke.py`` counts it."""
    counts = [0, 0, 0]  # pops, pushes, passes
    ran: list[list] = []

    def heappop(heap):
        counts[0] += 1
        return heapq.heappop(heap)

    def heappush(heap, entry):
        counts[1] += 1
        heapq.heappush(heap, entry)

    def heapify(heap):  # a pass begins: its seeds are pushes
        counts[1] += len(heap)
        counts[2] += 1
        heapq.heapify(heap)

    rng = np.random.default_rng(seed)
    with oracle() as m:
        m.setattr(oracles, "heappop", heappop)
        m.setattr(oracles, "heappush", heappush)
        m.setattr(oracles, "heapify", heapify)
        for kind, name in (
            ("ggg", "greedy_graph_growing_bipartition"),
            ("bfs", "bfs_bipartition"),
            ("random", "random_bipartition"),
        ):
            def seeded(*args, _kind=kind, _seed=getattr(oracles, name)):
                ran.append([_kind, list(counts)])
                return _seed(*args)

            m.setattr(oracles, name, seeded)

        def refined(ws, part, max_weights, rounds, _refine=oracles.fm2way_refine):
            part = _refine(ws, part, max_weights, rounds=rounds)
            over = sum(max(0, w - cap) for w, cap in zip(side_weights(ws, part), max_weights))
            kind, start = ran[-1]
            ran[-1] = (kind, over, two_way_cut(ws, part), *(b - a for a, b in zip(start, counts)))
            return part

        m.setattr(oracles, "fm2way_refine", refined)
        best = recursive.bipartition_portfolio(
            graph, target, *caps, rng, attempts=attempts, fm_rounds=rounds
        )
    return best, ran, rng.bit_generator.state


def assert_pools_agree(graph, target, caps, seed, attempts, rounds):
    best, rows, state = kernel_pool(graph, target, caps, seed, attempts, rounds)
    want, ran, want_state = oracle_pool(graph, target, caps, seed, attempts, rounds)
    assert best.dtype == want.dtype and best.tobytes() == want.tobytes()
    assert state == want_state
    assert len(rows) == max(1, attempts)
    for slot, row in enumerate(rows):
        assert KIND_CODES[row[0]] == POOL[slot % len(POOL)]
        if not row[1]:
            assert row[2:] == [0] * (len(ROW_FIELDS) - 2)  # a skipped slot did nothing
    assert [(KIND_CODES[r[0]], *r[2:]) for r in rows if r[1]] == ran
    return rows


GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(220, avg_degree=8, seed=3),
    "weblike": lambda: gen.weblike(200, avg_degree=8, seed=5),
}


def disconnected():
    """Two meshes, a path and isolated vertices: growth restarts from new seeds."""
    a, b = gen.rgg2d(60, avg_degree=6, seed=1), gen.grid2d(5, 6)
    edges = []
    for g, offset in ((a, 0), (b, a.n)):
        src = np.repeat(np.arange(g.n), g.degrees)
        keep = src < g.adjncy
        edges.append(np.stack([src[keep], g.adjncy[keep]], axis=1) + offset)
    base = a.n + b.n
    edges.append(np.array([[base + i, base + i + 1] for i in range(7)]))
    return from_edges(base + 8 + 9, np.concatenate(edges))


class TestPool:
    @pytest.mark.parametrize("weights", ["unit", "random"])
    @pytest.mark.parametrize("rounds", [1, 2])
    @pytest.mark.parametrize("attempts", [1, 2, 4, 8, 24])
    @pytest.mark.parametrize("family", list(GRAPHS))
    def test_kernel_is_the_oracle(self, family, attempts, rounds, weights):
        g = GRAPHS[family]()
        if weights == "random":
            g = reweighted(g, edge_weights=True, vertex_weights=True, seed=attempts)
        total = g.total_vertex_weight
        cap = int(1.03 * -(-total // 2))
        for seed in (1, 2):
            assert_pools_agree(g, total // 2, (cap, cap), seed, attempts, rounds)

    @pytest.mark.parametrize("attempts", [4, 8])
    def test_disconnected(self, attempts):
        g = disconnected()
        total = g.total_vertex_weight
        for seed in range(4):
            for cap in (total // 2, total // 2 + 3, total):
                assert_pools_agree(g, total // 2, (cap, cap), seed, attempts, 2)

    def test_a_vertex_heavier_than_one_sides_cap(self):
        g = from_edges(
            6, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]), vwgt=np.array([1, 1, 9, 1, 1, 1])
        )
        infeasible = 0
        for seed in range(8):
            rows = assert_pools_agree(g, 10, (11, 4), seed, 8, 2)
            infeasible += sum(1 for r in rows if r[1] and r[2] > 0)
        assert infeasible  # the infeasible attempts were there to lose

    def test_skips_happen_and_are_the_oracles(self):
        """On a mesh BFS and random fall behind greedy growing: their second
        slots are skipped."""
        g = gen.rgg2d(600, avg_degree=8, seed=2)
        total = g.total_vertex_weight
        cap = int(0.53 * total)
        rows = assert_pools_agree(g, total // 2, (cap, cap), 1, 8, 2)
        assert [r[1] for r in rows] == [1, 1, 1, 1, 1, 1, 0, 0]

    def test_ledger_names(self):
        """The kernel charges the oracle's per-vertex names and its own
        arrays; the oracle alone builds the lists."""
        g = gen.rgg2d(300, avg_degree=8, seed=1)
        total = g.total_vertex_weight
        cap = int(0.53 * total)
        names = {}
        for path in ("kernel", "oracle"):
            tracker = RecordingTracker()
            scratch.install_ledger(tracker)
            try:
                if path == "oracle":
                    with oracle():
                        recursive.bipartition_portfolio(
                            g, total // 2, cap, cap, np.random.default_rng(0)
                        )
                else:
                    bipartition_portfolio(g, total // 2, cap, cap, np.random.default_rng(0))
            finally:
                scratch.uninstall_ledger()
            names[path] = set(tracker.largest)
        kernel_only = {
            "bisection-heap", "bisection-orders", "bisection-best-side", "bisection-pool-stats",
            "bipartition-grown", "fm2way-side", "fm2way-kept", "fm2way-moves",
        }  # fmt: skip
        assert names["kernel"] - names["oracle"] == kernel_only
        assert names["oracle"] - names["kernel"] == {"bisection-workspace"}


# --------------------------------------------------------------------- #
# the split
# --------------------------------------------------------------------- #
def assert_split_is_extract(graph, labels, label_count, blocks, ids=None):
    ws = BisectionWorkspace(graph)
    got = ws.kernels().split(labels, label_count, blocks, ids)
    want = list(oracles.extract_subgraphs(graph, [labels == b for b in blocks]))
    assert len(got) == len(want)
    for (child, child_ids), (sub, local) in zip(got, want):
        assert child.n == sub.n
        assert child.total_vertex_weight == sub.total_vertex_weight
        assert np.array_equal(child_ids, local if ids is None else ids[local])
        assert np.array_equal(child.xadj, sub.indptr)
        src, dst, w = child.flat
        assert np.array_equal(dst, sub.adjncy) and np.array_equal(w, sub.adjwgt)
        assert np.array_equal(src, np.repeat(np.arange(sub.n), sub.degrees))
        assert np.array_equal(child.vwgt, sub.vwgt)
        # unit weights travel as no array at all, as extract_subgraphs' None
        kernel_wgt = child.kernels()._arrays[2]
        assert (kernel_wgt is None) == sub._unit_edge_weights
        assert oracles.lists(child)[:4] == oracles.lists(BisectionWorkspace(sub))[:4]
    return got


def sides(n, seed):
    return (np.random.default_rng(seed).random(n) < 0.5).astype(np.int32)


class TestSplit:
    @pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
    @pytest.mark.parametrize("weights", ["unit", "edge", "vertex", "both"])
    def test_sides_are_extract_subgraphs(self, weights, compressed):
        g = reweighted(
            gen.rgg2d(300, avg_degree=8, seed=4),
            edge_weights=weights in ("edge", "both"),
            vertex_weights=weights in ("vertex", "both"),
        )
        g = compress_graph(g) if compressed else g
        for seed in range(3):
            labels = sides(g.n, seed)
            ids = np.random.default_rng(seed).permutation(10 * g.n)[: g.n]
            assert_split_is_extract(g, labels, 2, (0, 1))
            assert_split_is_extract(g, labels, 2, (1, 0), ids)

    def test_blocks_of_a_k_way_labelling(self):
        """deep.py's shape: many labels, only some wanted, some empty."""
        g = gen.weblike(400, avg_degree=8, seed=2)
        labels = np.random.default_rng(3).integers(0, 9, size=g.n).astype(np.int32)
        labels[labels == 4] = 5  # label 4 is empty
        assert_split_is_extract(g, labels, 9, [0, 2, 4, 5, 8])
        assert_split_is_extract(g, labels, 12, [])

    def test_unit_weights_of_a_weighted_parent(self):
        """Every edge inside a side weighs 1: the side gets None weights."""
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
        g = from_edges(6, edges, np.array([1, 1, 7, 1, 1]))
        (left, _), (right, _) = assert_split_is_extract(
            g, np.array([0, 0, 0, 1, 1, 1], dtype=np.int32), 2, (0, 1)
        )
        assert left.kernels()._arrays[2] is None and right.kernels()._arrays[2] is None

    def test_unsorted_rows_from_contraction(self, monkeypatch):
        """One-pass contraction leaves rows unsorted: the split sorts each
        by new id, stably, as lexsort does."""
        seen = []
        real = partitioner.initial_partition

        def probe(g, *args, **kwargs):
            seen.append(g)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(partitioner, "initial_partition", probe)
        repro.partition(gen.rgg2d(8000, avg_degree=8, seed=1), 64, C.terapart(seed=1))
        (coarse,) = seen
        assert isinstance(coarse, CSRGraph)
        rows = np.split(coarse.adjncy, coarse.indptr[1:-1])
        assert any(np.any(np.diff(row) < 0) for row in rows)
        for seed in range(3):
            assert_split_is_extract(coarse, sides(coarse.n, seed), 2, (0, 1))

    def test_long_unsorted_rows_with_repeats_keep_their_order(self):
        """Rows past the insertion-sort runs, with repeated neighbours told
        apart by weight: the merge must be stable."""
        rng = np.random.default_rng(7)
        n = 90
        rows = [rng.integers(0, n, size=rng.integers(0, 70)) for _ in range(n)]
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        adjncy = np.concatenate(rows)
        g = CSRGraph(indptr, adjncy, np.arange(1, len(adjncy) + 1), rng.integers(1, 4, size=n))
        for seed in range(4):
            assert_split_is_extract(g, sides(n, seed), 2, (0, 1))
            labels = rng.integers(0, 3, size=n).astype(np.int32)
            assert_split_is_extract(g, labels, 3, (2, 0, 1))

    def test_deep_splits_on_compressed_input(self):
        g = compress_graph(gen.weblike(1500, avg_degree=10, seed=3))
        for k in (8, 48):
            got = deep_initial_partition(g, k, 0.03, np.random.default_rng(1), factor=32)
            with oracle():
                want = deep_initial_partition(g, k, 0.03, np.random.default_rng(1), factor=32)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1].budgets, want[1].budgets)


# --------------------------------------------------------------------- #
# degenerate inputs, refusals, whole runs
# --------------------------------------------------------------------- #
def both_paths(fn, seed):
    """``fn(rng)`` with and without the kernel: answers and generator states."""
    rng = np.random.default_rng(seed)
    got = fn(rng)
    with oracle():
        ref = np.random.default_rng(seed)
        want = fn(ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    return got, want


class TestDegenerate:
    NO_EDGES = np.zeros((0, 2), dtype=np.int64)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny(self, n):
        g = from_edges(n, self.NO_EDGES if n < 2 else np.array([[0, 1]]))
        for attempts in (1, 8):
            for cap in (0, 1, n):
                assert_pools_agree(g, n // 2, (cap, cap), 3, attempts, 2)
        if n:
            assert_split_is_extract(g, sides(n, 1), 2, (0, 1))
        for k in (2, 4):
            got, want = both_paths(lambda rng: initial_partition(g, k, 0.03, rng), 1)
            assert got.tolist() == want.tolist()

    def test_all_isolated(self):
        g = from_edges(9, self.NO_EDGES, vwgt=np.arange(1, 10))
        assert_pools_agree(g, 22, (24, 24), 1, 8, 2)
        assert_split_is_extract(g, sides(9, 2), 2, (0, 1))
        got, want = both_paths(lambda rng: initial_partition(g, 3, 0.1, rng), 2)
        assert got.tolist() == want.tolist() == [0, 1, 1, 1, 2, 1, 0, 0, 2]

    @pytest.mark.parametrize("k", [7, 16, 40])
    def test_k_above_coarsest_n(self, k):
        g = gen.grid2d(2, 3)
        got, want = both_paths(lambda rng: initial_partition(g, k, 0.03, rng), 1)
        assert got.tolist() == want.tolist()

    def test_caps_below_zero_take_the_oracle(self):
        """Infeasibility is only exact for caps >= 0: the kernel pool refuses
        a negative cap by name, before it draws; only the oracle takes one.
        No run reaches it: vertex weights are >= 0, so every cap is."""
        g = gen.grid2d(4, 4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="a cap is negative"):
            BisectionWorkspace(g).kernels().pool(recursive._POOL_CODES, 8, -1, 9, rng, 8, 2, 2.0)
        with pytest.raises(ValueError, match="a cap is negative"):
            bipartition_portfolio(g, 8, -1, 9, rng)
        assert rng.bit_generator.state == state
        part = oracles.bipartition_portfolio(g, 8, -1, 9, rng)
        assert set(part.tolist()) <= {0, 1}

    def test_cut_sums_past_double_precision_take_the_oracle(self):
        """attempts * sum |w| >= 2^53: the skip rule's sums could round.  The
        kernel pool refuses by name, before it draws, and ``partition()``
        before any work; only the oracle takes them."""
        edges = np.array([[i, i + 1] for i in range(11)])
        g = from_edges(12, edges, np.full(11, 1 << 47, dtype=np.int64))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"attempts \* W is not below 2\^53"):
            BisectionWorkspace(g).kernels().pool(recursive._POOL_CODES, 6, 7, 7, rng, 8, 2, 2.0)
        with pytest.raises(ValueError, match=r"attempts \* W is not below 2\^53"):
            initial_partition(g, 4, 0.03, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match=r"graph refused: attempts \* W"):
            repro.partition(g, 4, C.preset("terapart", seed=1))
        # two attempts keep it below the bound
        assert initial_partition(g, 4, 0.03, rng, attempts=2).shape == (12,)
        with oracle():
            assert initial_partition(g, 4, 0.03, rng).shape == (12,)


class TestRefusals:
    """A corrupt workspace is a ``ValueError``; the generator and every
    input array are as they were."""

    @pytest.fixture
    def ws(self):
        return BisectionWorkspace(gen.rgg2d(300, avg_degree=8, seed=1))

    def snapshot(self, ws):
        return [a.copy() for a in (ws.xadj, *ws.flat, ws.vwgt)]

    def assert_untouched(self, ws, before):
        for a, b in zip((ws.xadj, *ws.flat, ws.vwgt), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [300, -1, 1 << 40])
    def test_pool_bad_neighbour(self, ws, bad):
        ws.flat[1][7::11] = bad
        before, rng = self.snapshot(ws), np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="vertex id out of range"):
            bipartition_portfolio(ws, 150, 160, 160, rng)
        assert rng.bit_generator.state == state
        self.assert_untouched(ws, before)

    def test_pool_heap_too_small(self, ws):
        kernels = ws.kernels()
        kernels.heap = kernels.heap[:3]
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="capacity"):
            bipartition_portfolio(ws, 150, 160, 160, rng)
        assert rng.bit_generator.state == state

    def test_pool_bad_kind(self, ws):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="pool kind"):
            ws.kernels().pool(np.array([0, 3]), 150, 160, 160, rng, 4, 2, 2.0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [2, -1, 1 << 20])
    def test_split_label_out_of_range(self, ws, bad):
        labels = sides(ws.n, 0)
        labels[17] = bad
        before, labels_before = self.snapshot(ws), labels.copy()
        with pytest.raises(ValueError, match="label"):
            ws.kernels().split(labels, 2, (0, 1))
        self.assert_untouched(ws, before)
        assert np.array_equal(labels, labels_before)

    def test_split_bad_neighbour(self, ws):
        ws.flat[1][5] = ws.n
        before = self.snapshot(ws)
        with pytest.raises(ValueError, match="vertex id out of range"):
            ws.kernels().split(sides(ws.n, 0), 2, (0, 1))
        self.assert_untouched(ws, before)

    def test_split_needs_one_label_a_vertex(self, ws):
        with pytest.raises(ValueError, match="one label"):
            ws.kernels().split(sides(ws.n - 1, 0), 2, (0, 1))


@st.composite
def pools(draw):
    n = draw(st.integers(0, 14))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v]
    weights = draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges)))
    vwgt = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    graph = from_edges(
        n,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        np.array(weights, dtype=np.int64),
        np.array(vwgt, dtype=np.int64),
    )
    total = graph.total_vertex_weight
    target = draw(st.integers(0, total))
    caps = (draw(st.integers(0, total + 2)), draw(st.integers(0, total + 2)))
    attempts = draw(st.integers(0, 12))
    rounds = draw(st.integers(0, 3))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int32)
    return graph, target, caps, attempts, rounds, labels, draw(st.integers(0, 1 << 16))


@settings(max_examples=200, deadline=None)
@given(pools())
def test_kernel_is_the_oracle_on_arbitrary_small_graphs(case):
    graph, target, caps, attempts, rounds, labels, seed = case
    assert_pools_agree(graph, target, caps, seed, attempts, rounds)
    assert_split_is_extract(graph, labels, 3, (0, 1, 2))


@pytest.mark.parametrize("preset", list(C.PRESETS))
def test_partition_is_unchanged_with_the_kernel_hidden(preset):
    """All eight presets, recursive and deep, CSR and compressed coarsest
    graphs: the same partition and cut as the Python pool's."""
    g = gen.rgg2d(2500, avg_degree=8, seed=6)
    for k in (6, 32):
        got = repro.partition(g, k, C.preset(preset, seed=2))
        with oracle():
            want = repro.partition(g, k, C.preset(preset, seed=2))
        assert got.partition.tobytes() == want.partition.tobytes(), k
        assert got.cut == want.cut and got.peak_bytes == want.peak_bytes


def test_counters_report_the_pool():
    """``initial.attempts_run`` + ``initial.attempts_skipped`` cover every
    slot of every bisection, the same on both paths; ``initial.attempts``
    is still the configured pool size."""
    import dataclasses

    g = gen.rgg2d(3000, avg_degree=8, seed=1)
    cfg = dataclasses.replace(C.terapart(seed=1), obs=C.ObsConfig(enabled=True))
    counters = []
    for path in ("kernel", "oracle"):
        if path == "oracle":
            with oracle():
                result = repro.partition(g, 16, cfg)
        else:
            result = repro.partition(g, 16, cfg)
        counters.append(result.obs["counters"])
    got, want = counters
    for name in ("initial.attempts_run", "initial.attempts_skipped", "initial.attempts"):
        assert got[name] == want[name], name
    assert got["initial.attempts"] == 8
    assert got["initial.attempts_run"] + got["initial.attempts_skipped"] == 8 * 15  # k - 1 bisections
    assert got["initial.attempts_skipped"] > 0
