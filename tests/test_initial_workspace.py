"""Initial partitioning on the list-resident bisection workspace.

The loops moved from numpy scalar subscripts onto Python lists without
changing a single decision: same pop order, same RNG draws, same arrays.
These tests hold that down three ways -- differentially against the loops
as they were (``scalar_*`` in ``tests/scalar_reference.py``), by golden
pins recorded at the commit before the move, and on the degenerate inputs
where list and int64 arithmetic could part ways.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest

import repro
from repro.core import config as presets
from repro.core.initial.bipartition import (
    bfs_bipartition,
    greedy_graph_growing_bipartition,
    random_bipartition,
)
from repro.core.initial.fm2way import fm2way_refine
from repro.core.initial.recursive import (
    bipartition_portfolio,
    extract_subgraphs,
    initial_partition,
)
from repro.core.initial.workspace import BisectionWorkspace
from repro.core.kernels import two_way_cut, two_way_gains
from repro.graph import generators as gen
from repro.graph.access import full_adjacency
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.memory import scratch
from repro.memory.tracker import MemoryTracker
from scalar_reference import (
    scalar_bfs_bipartition,
    scalar_fm2way_refine,
    scalar_greedy_graph_growing_bipartition,
    scalar_random_bipartition,
    scalar_two_way_cut,
    scalar_two_way_gains,
)

FAMILIES = {
    "rgg2d": lambda: gen.rgg2d(260, avg_degree=8, seed=3),
    "weblike": lambda: gen.weblike(240, avg_degree=8, seed=5),
    "rhg": lambda: gen.rhg(260, avg_degree=8, seed=7),
    "kmer": lambda: gen.kmer(250, degree=4, seed=9),
    "grid": lambda: gen.grid2d(15, 16),
}


def reweighted(graph, *, edge_weights: bool, vertex_weights: bool, seed: int = 0):
    """``graph``'s structure with random edge and/or vertex weights."""
    rng = np.random.default_rng(seed)
    src, dst, _ = full_adjacency(graph)
    upper = src < dst
    edges = np.stack([src[upper], dst[upper]], axis=1)
    weights = rng.integers(1, 20, size=len(edges)) if edge_weights else None
    vwgt = rng.integers(1, 6, size=graph.n) if vertex_weights else None
    return from_edges(graph.n, edges, weights, vwgt)


@pytest.fixture(
    scope="module",
    params=[
        (family, ew, vw, compressed)
        for family in FAMILIES
        for ew in (False, True)
        for vw in (False, True)
        for compressed in (False, True)
    ],
    ids=lambda p: f"{p[0]}-{'ew' if p[1] else 'unit'}-{'vw' if p[2] else 'unit'}-"
    f"{'compressed' if p[3] else 'csr'}",
)
def coarsest(request):
    family, ew, vw, compressed = request.param
    g = reweighted(FAMILIES[family](), edge_weights=ew, vertex_weights=vw)
    return compress_graph(g) if compressed else g


SEEDS = (1, 2, 3, 4)


# --------------------------------------------------------------------- #
# (a) differential: new loops == the loops as they were
# --------------------------------------------------------------------- #
class TestDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeding_heuristics(self, coarsest, seed):
        total = coarsest.total_vertex_weight
        target, cap = total // 2, int(0.53 * total)
        for new, ref, args in (
            (
                greedy_graph_growing_bipartition,
                scalar_greedy_graph_growing_bipartition,
                (target, cap),
            ),
            (bfs_bipartition, scalar_bfs_bipartition, (target,)),
            (random_bipartition, scalar_random_bipartition, (target,)),
        ):
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = new(coarsest, *args, rng_new)
            want = ref(coarsest, *args, rng_ref)
            assert got.dtype == want.dtype and np.array_equal(got, want), new.__name__
            # same number of draws: the streams stay in step afterwards
            assert rng_new.integers(1 << 30) == rng_ref.integers(1 << 30)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rounds", [1, 2])
    @pytest.mark.parametrize("slack", [1.0, 1.2], ids=["tight", "loose"])
    def test_fm2way(self, coarsest, seed, rounds, slack):
        total = coarsest.total_vertex_weight
        start = scalar_random_bipartition(
            coarsest, total // 2, np.random.default_rng(seed)
        )
        cap = int(slack * -(-total // 2))
        got = fm2way_refine(coarsest, start.copy(), (cap, cap), rounds=rounds)
        want = scalar_fm2way_refine(coarsest, start.copy(), (cap, cap), rounds=rounds)
        assert np.array_equal(got, want)

    def test_fm2way_refines_in_place(self, coarsest):
        total = coarsest.total_vertex_weight
        part = scalar_random_bipartition(coarsest, total // 2, np.random.default_rng(0))
        assert fm2way_refine(coarsest, part, (total, total)) is part

    def test_gains_and_cut(self, coarsest):
        part = np.random.default_rng(0).integers(0, 2, size=coarsest.n).astype(np.int32)
        ws = BisectionWorkspace(coarsest)
        want_gain = scalar_two_way_gains(coarsest, part)
        want_cut = scalar_two_way_cut(coarsest, part)
        for graph in (coarsest, ws):
            assert np.array_equal(two_way_gains(graph, part), want_gain)
            assert two_way_cut(graph, part) == want_cut

    def test_workspace_matches_accessor(self, coarsest):
        ws = BisectionWorkspace(coarsest)
        xadj, adj, wgt, vwgt = ws.lists
        assert vwgt == np.asarray(coarsest.vwgt).tolist()
        for u in range(coarsest.n):
            nbrs, wgts = coarsest.neighbors_and_weights(u)
            assert adj[xadj[u] : xadj[u + 1]] == np.asarray(nbrs).tolist()
            assert wgt[xadj[u] : xadj[u + 1]] == np.asarray(wgts).tolist()

    def test_both_sides_from_one_workspace(self, coarsest):
        left = np.random.default_rng(1).random(coarsest.n) < 0.5
        shared = list(extract_subgraphs(BisectionWorkspace(coarsest), (left, ~left)))
        for (sub, ids), mask in zip(shared, (left, ~left)):
            ((alone, alone_ids),) = extract_subgraphs(coarsest, [mask])
            assert np.array_equal(ids, alone_ids) and np.array_equal(ids, np.flatnonzero(mask))
            assert np.array_equal(sub.indptr, alone.indptr)
            assert np.array_equal(sub.adjncy, alone.adjncy)
            assert np.array_equal(sub.adjwgt, alone.adjwgt)
            assert np.array_equal(sub.vwgt, alone.vwgt)
            sub.validate()


# --------------------------------------------------------------------- #
# (b) golden pins, recorded at the commit before the workspace
# --------------------------------------------------------------------- #
GOLDEN_GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(900, avg_degree=8, seed=31),
    "weblike": lambda: gen.weblike(800, avg_degree=10, seed=7),
    "rhg": lambda: gen.rhg(900, avg_degree=10, seed=5),
}

# (family, k, seed) -> sha1 of initial_partition(g, k, 0.03, default_rng(seed))
GOLDEN_INITIAL = {
    ("rgg2d", 2, 1): "8ac69e24887360e494d9ed1918a22979a1bdf8a1",
    ("rgg2d", 2, 2): "429b0d70d7dc2dab9ec91d9edd2900e311b8fd64",
    ("rgg2d", 7, 1): "fb93691e924329d167bf31448c5ba6fb52997227",
    ("rgg2d", 7, 2): "eeff855886415101aadc4c5bd14d1a83e1c53f11",
    ("rgg2d", 64, 1): "3ffb59e0889a1e8ff9877bf58d26d52115214f49",
    ("rgg2d", 64, 2): "caf788dcdebf6fb8d0bf23243759d9a0a2d19d49",
    ("weblike", 2, 1): "80d5d395b05eb855b58e5d2f70423e5cf715d7c4",
    ("weblike", 2, 2): "80d5d395b05eb855b58e5d2f70423e5cf715d7c4",
    ("weblike", 7, 1): "a725629b9211ea6da1466818c70296355746f048",
    ("weblike", 7, 2): "718e387cfbdc7b37c45187a6c3ad3bcb11f74a45",
    ("weblike", 64, 1): "e3fff5b6047e1b4adc7d53375d75be9c72e627ed",
    ("weblike", 64, 2): "473eaeb691c76b4e7882a18b89c8d2293082857d",
    ("rhg", 2, 1): "2085937c557aac945afde974e52bee9cc5f77712",
    ("rhg", 2, 2): "2085937c557aac945afde974e52bee9cc5f77712",
    ("rhg", 7, 1): "7cf27b288112a1064b86fda6f457749cc94c8ab0",
    ("rhg", 7, 2): "f79549778f240c1c27b74bee8424f81a97c0c806",
    ("rhg", 64, 1): "32b3bd12c77372b1c77cc50076d518083053da79",
    ("rhg", 64, 2): "6c4647df65881cbc99b3ba1aa937893166f82452",
}

# name -> (graph, k, sha1 of the partition, cut) of partition(g, k,
# terapart_deep(seed=1)); the second graph is too small for k at the finest
# level, so blocks are still bisected on the compressed input graph
GOLDEN_DEEP = {
    "weblike-k16": (
        lambda: gen.weblike(6000, avg_degree=10, seed=3),
        16,
        "3c4f8787e30f7bccb84fff18fdf7cb4d9a646226",
        9310,
    ),
    "rgg2d-k48": (
        lambda: gen.rgg2d(1000, avg_degree=8, seed=9),
        48,
        "f31f000fa26864f58f98817bb05352d3f40a0abf",
        888,
    ),
}


def sha1(partition) -> str:
    data = np.ascontiguousarray(partition, dtype=np.int64).tobytes()
    return hashlib.sha1(data).hexdigest()


@pytest.fixture(scope="module")
def golden_graphs():
    return {name: make() for name, make in GOLDEN_GRAPHS.items()}


@pytest.mark.parametrize(
    "key", list(GOLDEN_INITIAL), ids=["-".join(map(str, k)) for k in GOLDEN_INITIAL]
)
def test_golden_initial_partition(golden_graphs, key):
    family, k, seed = key
    part = initial_partition(
        golden_graphs[family], k, 0.03, np.random.default_rng(seed)
    )
    assert sha1(part) == GOLDEN_INITIAL[key]


@pytest.mark.parametrize("name", list(GOLDEN_DEEP))
def test_golden_deep_end_to_end(name):
    make, k, digest, cut = GOLDEN_DEEP[name]
    result = repro.partition(make(), k, config=presets.terapart_deep(seed=1))
    assert (sha1(result.partition), int(result.cut)) == (digest, cut)


# --------------------------------------------------------------------- #
# (c) the inputs lists could get wrong
# --------------------------------------------------------------------- #
def _all_heuristics(graph, target, cap, seed=0):
    """Every loop, new vs reference, on one (degenerate) graph."""
    for new, ref, args in (
        (
            greedy_graph_growing_bipartition,
            scalar_greedy_graph_growing_bipartition,
            (target, cap),
        ),
        (bfs_bipartition, scalar_bfs_bipartition, (target,)),
        (random_bipartition, scalar_random_bipartition, (target,)),
    ):
        got = new(graph, *args, np.random.default_rng(seed))
        want = ref(graph, *args, np.random.default_rng(seed))
        assert np.array_equal(got, want), new.__name__
        limits = (cap, max(cap, graph.total_vertex_weight - target))
        assert np.array_equal(
            fm2way_refine(graph, got.copy(), limits),
            scalar_fm2way_refine(graph, want.copy(), limits),
        )


class TestEdges:
    @pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny(self, n, compressed):
        g = from_edges(n, np.zeros((0, 2), dtype=np.int64))
        g = compress_graph(g) if compressed else g
        ws = BisectionWorkspace(g)
        assert ws.lists == ([0] * (n + 1), [], [], [1] * n)
        _all_heuristics(g, n, n)
        _all_heuristics(g, 0, 0)
        # a lone vertex lands on side 1 of every bisection, as it always did
        part = initial_partition(g, 4, 0.03, np.random.default_rng(0))
        assert part.tolist() == [3] * n

    def test_empty_graph_draws_nothing(self):
        """GGG used to return before its draw when n == 0; permuting zero
        vertices must leave the stream where it was."""
        g = from_edges(0, np.zeros((0, 2), dtype=np.int64))
        rng, untouched = np.random.default_rng(5), np.random.default_rng(5)
        greedy_graph_growing_bipartition(g, 0, 0, rng)
        assert rng.integers(1 << 30) == untouched.integers(1 << 30)

    def test_all_isolated(self):
        g = from_edges(9, np.zeros((0, 2), dtype=np.int64), vwgt=np.arange(1, 10))
        _all_heuristics(g, 22, 24)
        part = initial_partition(g, 3, 0.1, np.random.default_rng(2))
        assert part.tolist() == [0, 1, 1, 1, 2, 1, 0, 0, 2]  # as before the lists

    def test_vertex_heavier_than_cap(self):
        g = from_edges(
            5,
            np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
            vwgt=np.array([1, 50, 1, 1, 1]),
        )
        for seed in range(4):
            _all_heuristics(g, 2, 3, seed)
        part = greedy_graph_growing_bipartition(g, 2, 3, np.random.default_rng(0))
        assert part[1] == 1  # the 50 never fits under a cap of 3

    @pytest.mark.parametrize(
        "seed, want", [(1, [11, 3, 1, 9, 15, 7]), (2, [1, 9, 11, 3, 7, 15])]
    )
    def test_k_larger_than_n(self, seed, want):
        """6 vertices, 16 blocks: subgraphs run empty on the way down."""
        part = initial_partition(gen.grid2d(2, 3), 16, 0.03, np.random.default_rng(seed))
        assert part.tolist() == want  # as before the lists

    def test_huge_edge_weights_agree_with_int64(self):
        """2**61 per edge, at most three edges per vertex: every gain fits
        int64, so exact list arithmetic and the wrapped-on-overflow int64
        arithmetic of the reference must tell the same story."""
        big = 1 << 61
        edges = np.array([[i, i + 1] for i in range(11)] + [[0, 6], [3, 9]])
        g = from_edges(12, edges, np.full(len(edges), big, dtype=np.int64))
        assert int(np.bincount(full_adjacency(g)[0]).max()) == 3
        for seed in range(4):
            _all_heuristics(g, 6, 7, seed)
        lone = np.zeros(12, dtype=np.int32)
        lone[3] = 1  # all three neighbors across: the largest gain there is
        assert np.array_equal(two_way_gains(g, lone), scalar_two_way_gains(g, lone))
        assert int(two_way_gains(g, lone)[3]) == 3 * big
        part = np.array([0, 1] * 6, dtype=np.int32)
        start = part.copy()
        refined = fm2way_refine(g, part, (7, 7))
        assert np.array_equal(refined, scalar_fm2way_refine(g, start, (7, 7)))
        # one crossing edge: 2 * 2**61 directed weight still fits (a cut
        # whose directed weight passes 2**63 wraps in the bulk kernel, as it
        # always has on CSR graphs)
        leaf = np.zeros(12, dtype=np.int32)
        leaf[11] = 1
        assert two_way_cut(g, leaf) == scalar_two_way_cut(g, leaf) == big


# --------------------------------------------------------------------- #
# ledger: lists are charged, under the names the arrays had
# --------------------------------------------------------------------- #
class RecordingTracker(MemoryTracker):
    """Remembers the largest charge made under each entry name."""

    def __init__(self) -> None:
        super().__init__()
        self.largest: dict[str, int] = {}

    def alloc(self, name, nbytes, *args, **kwargs):
        self.largest[name] = max(self.largest.get(name, 0), nbytes)
        return super().alloc(name, nbytes, *args, **kwargs)


class TestLedger:
    @pytest.fixture
    def ledger(self):
        tracker = RecordingTracker()
        scratch.install_ledger(tracker)
        try:
            yield tracker
        finally:
            scratch.uninstall_ledger()

    def test_workspace_charges_its_pointer_arrays(self, ledger):
        g = gen.rgg2d(300, avg_degree=8, seed=1)
        ws = BisectionWorkspace(g)
        slots = sum(len(lst) for lst in ws.lists)
        assert slots == 2 * g.n + 1 + 2 * g.num_directed_edges
        before = ledger.current_bytes
        live = {a.name: a.charged_bytes for a in ledger.live_allocations()}
        assert live["bisection-workspace"] == 8 * slots
        del ws
        gc.collect()
        assert ledger.current_bytes == before - 8 * slots

    def test_attempt_lists_keep_their_entry_names(self, ledger):
        g = gen.rgg2d(300, avg_degree=8, seed=1)
        total = g.total_vertex_weight
        cap = int(0.53 * total)
        before = ledger.current_bytes
        best = bipartition_portfolio(
            g, total // 2, cap, cap, np.random.default_rng(0), attempts=4
        )
        gc.collect()
        # only the winning assignment outlives the bisection
        assert ledger.current_bytes == before + best.nbytes
        # each per-vertex list is charged under the name its array had, at
        # one 8 B slot per vertex (never less than the array it replaced)
        for name in (
            "fm2way-gains",
            "fm2way-locked",
            "bipartition-in-block",
            "bipartition-blocked",
            "bipartition-gain",
            "bipartition-visited",
        ):
            assert ledger.largest[name] == 8 * g.n, name
        assert ledger.largest["bipartition-part"] == 4 * g.n

    def test_initial_phase_not_smaller_than_before(self):
        """With scratch tracking on, the initial-partitioning phase of this
        run peaked at 200 290 B (83 405 B of scratch) while the loops still
        held arrays; holding lists must not make it look cheaper."""
        import dataclasses

        from repro.core.partitioner import partition

        g = gen.rgg2d(3000, avg_degree=8, seed=4)
        cfg = dataclasses.replace(
            presets.terapart(seed=1),
            obs=presets.ObsConfig(enabled=True, track_scratch=True),
        )
        tracker = MemoryTracker()
        result = partition(g, 8, cfg, tracker=tracker)
        assert int(result.cut) == 201
        phase = tracker.phases()["partition/initial-partitioning"]
        assert phase.peak_bytes >= 200_290
        assert phase.peak_breakdown["scratch"] >= 83_405
