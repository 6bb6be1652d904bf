"""Initial partitioning on the bisection workspace.

Everything here runs on the compiled searches (``bisection_kernel.c``), and
the pool and ledger tests also on the Python loops of ``tests/oracles.py``
installed in their place; ``tests/test_initial_kernel.py`` holds the two
equal over the same matrix.

BFS growth, random assignment, the gain / cut kernels and the workspace
itself are bit-identical to the loops as they were, and are held to that
differentially (``scalar_*`` in ``tests/scalar_reference.py``).  2-way FM,
greedy graph growing and the bipartitioner pool work on what can still
improve -- boundary-seeded queue, adaptive stopping rule, adaptive pool --
so no second implementation describes them; they are held to what must be
true of any such search (properties), to golden pins re-recorded when the
contract changed, and to the degenerate inputs.
"""

from __future__ import annotations

import gc
import hashlib
import sys
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
from repro.core import config as presets
from repro.core.initial.bipartition import (
    bfs_bipartition,
    greedy_graph_growing_bipartition,
    random_bipartition,
)
from repro.core.initial.fm2way import fm2way_refine
from repro.core.initial import recursive
from repro.core.initial.recursive import POOL, initial_partition
from repro.core.initial.workspace import KIND_CODES, BisectionKernels, BisectionWorkspace
from repro.core.kernels import two_way_cut, two_way_gains
from repro.graph import generators as gen
from repro.graph.access import full_adjacency
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.memory import scratch
from repro.memory.tracker import MemoryTracker
from scalar_reference import (
    scalar_bfs_bipartition,
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
# what must hold of any FM pass / any greedy growth
# --------------------------------------------------------------------- #
class RecordingPart(np.ndarray):
    """A partition array that remembers the index list of every write
    (``writes`` is set on the view after it is made)."""

    def __setitem__(self, index, value):
        self.writes.append(list(index))
        super().__setitem__(index, value)


def side_weights(graph, part):
    weights = np.zeros(2, dtype=np.int64)
    np.add.at(weights, part, np.asarray(graph.vwgt))
    return weights.tolist()


def exact_cut(ws, side) -> int:
    """The cut in Python integers (``two_way_cut`` wraps past 2**63)."""
    xadj, adj, wgt, _, _charge = oracles.lists(ws)
    return sum(
        wgt[e]
        for u in range(ws.n)
        for e in range(xadj[u], xadj[u + 1])
        if side[adj[e]] != side[u]
    ) // 2


#: the searches under test: the compiled ones, or ``oracles`` for the loops
KERNELS = sys.modules[__name__]


def check_fm2way(graph, start, max_weights, rounds=2, on=KERNELS):
    """Run ``fm2way_refine`` from ``start`` and replay what it wrote."""
    ws = BisectionWorkspace(graph)
    xadj, adj, wgt, vwgt, _charge = oracles.lists(ws)
    part = start.copy().view(RecordingPart)
    part.writes = []
    refined = on.fm2way_refine(ws, part, max_weights, rounds=rounds)
    assert refined is part
    assert set(np.unique(part).tolist()) <= {0, 1}
    assert len(part.writes) <= rounds  # one write a pass: its kept prefix

    side = start.tolist()
    weight = side_weights(graph, start)
    feasible = all(w <= cap for w, cap in zip(weight, max_weights))
    cut = before = exact_cut(ws, side)
    for kept in part.writes:
        assert len(set(kept)) == len(kept)
        reachable = {
            u for u in range(ws.n)
            if any(side[v] != side[u] for v in adj[xadj[u] : xadj[u + 1]])
        }
        gains = []
        for u in kept:
            # seeded from the boundary; the interior enters behind a mover
            assert u in reachable
            nbrs = range(xadj[u], xadj[u + 1])
            gains.append(sum(wgt[e] if side[adj[e]] != side[u] else -wgt[e] for e in nbrs))
            weight[side[u]] -= vwgt[u]
            side[u] = 1 - side[u]
            weight[side[u]] += vwgt[u]
            assert weight[side[u]] <= max_weights[side[u]]  # every move fit
            reachable.update(adj[e] for e in nbrs)
        # the kept prefix is the walk's first best point, so it ends above
        # every earlier point of itself and its gains are the cut it saved
        assert all(point < sum(gains) for point in [0, *accumulate(gains)][:-1])
        now = exact_cut(ws, side)
        assert cut - now == sum(gains)
        cut = now
    assert part.tolist() == side  # nothing but the kept prefixes was written
    assert cut <= before
    if feasible:
        assert all(w <= cap for w, cap in zip(side_weights(graph, part), max_weights))
    return np.asarray(part)


def check_ggg(graph, target, cap, seed, on=KERNELS):
    """Run greedy graph growing; the block is in range unless nothing fits."""
    rng = np.random.default_rng(seed)
    part = on.greedy_graph_growing_bipartition(graph, target, cap, rng)
    assert part.dtype == np.int32 and set(np.unique(part).tolist()) <= {0, 1}
    vwgt = np.asarray(graph.vwgt)
    weight0 = int(vwgt[part == 0].sum())
    assert weight0 <= cap
    if weight0 < target:  # every vertex left outside was blocked by the cap
        assert np.all(weight0 + vwgt[part == 1] > cap)
    again = on.greedy_graph_growing_bipartition(graph, target, cap, np.random.default_rng(seed))
    assert np.array_equal(part, again)
    return part


# --------------------------------------------------------------------- #
# (a) the unchanged loops == the loops as they were; the searches hold
#     their properties on the same matrix
# --------------------------------------------------------------------- #
class TestDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeding_heuristics(self, coarsest, seed):
        total = coarsest.total_vertex_weight
        target, cap = total // 2, int(0.53 * total)
        for new, ref in (
            (bfs_bipartition, scalar_bfs_bipartition),
            (random_bipartition, scalar_random_bipartition),
        ):
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = new(coarsest, target, rng_new)
            want = ref(coarsest, target, rng_ref)
            assert got.dtype == want.dtype and np.array_equal(got, want), new.__name__
            # same number of draws: the streams stay in step afterwards
            assert rng_new.integers(1 << 30) == rng_ref.integers(1 << 30)
        check_ggg(coarsest, target, cap, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rounds", [1, 2])
    @pytest.mark.parametrize("slack", [1.0, 1.2], ids=["tight", "loose"])
    def test_fm2way(self, coarsest, seed, rounds, slack):
        total = coarsest.total_vertex_weight
        start = scalar_random_bipartition(
            coarsest, total // 2, np.random.default_rng(seed)
        )
        cap = int(slack * -(-total // 2))
        got = check_fm2way(coarsest, start, (cap, cap), rounds=rounds)
        again = fm2way_refine(coarsest, start.copy(), (cap, cap), rounds=rounds)
        assert np.array_equal(got, again)

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
        xadj, adj, wgt, vwgt, _charge = oracles.lists(ws)
        assert vwgt == np.asarray(coarsest.vwgt).tolist()
        for u in range(coarsest.n):
            nbrs, wgts = coarsest.neighbors_and_weights(u)
            assert adj[xadj[u] : xadj[u + 1]] == np.asarray(nbrs).tolist()
            assert wgt[xadj[u] : xadj[u + 1]] == np.asarray(wgts).tolist()

    def test_both_sides_from_one_workspace(self, coarsest):
        left = np.random.default_rng(1).random(coarsest.n) < 0.5
        shared = list(oracles.extract_subgraphs(BisectionWorkspace(coarsest), (left, ~left)))
        for (sub, ids), mask in zip(shared, (left, ~left)):
            ((alone, alone_ids),) = oracles.extract_subgraphs(coarsest, [mask])
            assert np.array_equal(ids, alone_ids) and np.array_equal(ids, np.flatnonzero(mask))
            assert np.array_equal(sub.indptr, alone.indptr)
            assert np.array_equal(sub.adjncy, alone.adjncy)
            assert np.array_equal(sub.adjwgt, alone.adjwgt)
            assert np.array_equal(sub.vwgt, alone.vwgt)
            sub.validate()


# --------------------------------------------------------------------- #
# the pool: every kind once, never more than ``attempts``, best feasible
# --------------------------------------------------------------------- #
def on_each_path():
    """Yield ``"kernel"`` and ``"oracle"``, the latter with the Python loops
    of ``tests/oracles.py`` installed in the compiled searches' place."""
    yield "kernel"
    with oracles.installed("bisection"):
        yield "oracle"


def watched_portfolio(monkeypatch, graph, target, caps, seed, attempts):
    """``bipartition_portfolio`` on each path (see :func:`on_each_path`), as
    ``{path: (best, outcomes, rng state after)}``; ``outcomes`` lists every
    attempt that ran as ``(kind, infeasibility, cut)`` of its post-FM
    assignment.  The kernel path reads them from the pool's stats rows; the
    oracle path watches its seeds and ``fm2way_refine``."""
    runs = {}
    for path in on_each_path():
        outcomes: list[tuple[str, int, int]] = []
        with monkeypatch.context() as m:
            if path == "kernel":
                pool = BisectionKernels.pool

                def watched(self, *args):
                    pooled = pool(self, *args)
                    for kind, ran, over, cut, *_ in pooled[1].tolist():
                        if ran:
                            outcomes.append((KIND_CODES[kind], over, cut))
                    return pooled

                m.setattr(BisectionKernels, "pool", watched)
            else:
                kinds: list[str] = []
                for kind, name in (
                    ("ggg", "greedy_graph_growing_bipartition"),
                    ("bfs", "bfs_bipartition"),
                    ("random", "random_bipartition"),
                ):
                    def seeded(*args, _kind=kind, _seed=getattr(oracles, name)):
                        kinds.append(_kind)
                        return _seed(*args)

                    m.setattr(oracles, name, seeded)

                def refined(ws, part, max_weights, rounds, _refine=oracles.fm2way_refine):
                    part = _refine(ws, part, max_weights, rounds=rounds)
                    over = [
                        max(0, w - cap) for w, cap in zip(side_weights(ws, part), max_weights)
                    ]
                    outcomes.append((kinds[-1], sum(over), two_way_cut(ws, part)))
                    return part

                m.setattr(oracles, "fm2way_refine", refined)
            rng = np.random.default_rng(seed)
            best = recursive.bipartition_portfolio(graph, target, *caps, rng, attempts=attempts)
            if path == "oracle":
                assert len(kinds) == len(outcomes)
        runs[path] = (best, outcomes, rng.bit_generator.state)
    # both paths: one answer, one attempt sequence, one stream position
    first = next(iter(runs.values()))
    for best, outcomes, state in runs.values():
        assert np.array_equal(best, first[0]) and best.dtype == first[0].dtype
        assert (outcomes, state) == first[1:]
    return runs


class TestPortfolio:
    @pytest.mark.parametrize("attempts", [1, 4, 8, 24])
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_pool(self, coarsest, seed, attempts, monkeypatch):
        total = coarsest.total_vertex_weight
        target, cap = total // 2, int(0.53 * total)
        runs = watched_portfolio(monkeypatch, coarsest, target, (cap, cap), seed, attempts)
        for path in on_each_path():
            best, outcomes, _ = runs[path]
            assert 1 <= len(outcomes) <= attempts, path
            # slot i belongs to kind POOL[i % 4]; a kind's first slot always runs
            assert {kind for kind, _, _ in outcomes} == set(POOL[:attempts]), path
            # the answer is the best attempt: feasible whenever one was
            over = sum(max(0, w - cap) for w in side_weights(coarsest, best))
            assert (over, two_way_cut(coarsest, best)) == min(o[1:] for o in outcomes), path
            # a skipped slot's kind had fallen behind the best feasible cut
            if len(outcomes) < attempts:
                assert any(o[1] == 0 for o in outcomes), path
            again = recursive.bipartition_portfolio(
                coarsest, target, cap, cap, np.random.default_rng(seed), attempts=attempts
            )
            assert np.array_equal(best, again), path  # deterministic in rng

    def test_losing_kind_is_dropped(self, monkeypatch):
        """On a mesh, random + FM lands far above greedy growing: its second
        slot is skipped while greedy growing keeps every slot it has."""
        g = gen.rgg2d(600, avg_degree=8, seed=2)
        total = g.total_vertex_weight
        cap = int(0.53 * total)
        runs = watched_portfolio(monkeypatch, g, total // 2, (cap, cap), 1, 8)
        for path, (_, outcomes, _) in runs.items():
            kinds = [kind for kind, _, _ in outcomes]
            assert kinds.count("random") == 1 and kinds.count("ggg") == 4, path

    def test_infeasible_attempts_lose_to_a_feasible_one(self, monkeypatch):
        """One vertex outweighs side 1's cap: only an attempt that puts it on
        side 0 is feasible, and the pool returns such an attempt if it made one."""
        g = from_edges(
            6,
            np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]),
            vwgt=np.array([1, 1, 9, 1, 1, 1]),
        )
        for seed in range(8):
            runs = watched_portfolio(monkeypatch, g, 10, (11, 4), seed, 8)
            for path, (best, outcomes, _) in runs.items():
                if any(over == 0 for _, over, _ in outcomes):
                    assert side_weights(g, best)[1] <= 4 and best[2] == 0, path


@st.composite
def small_bisections(draw):
    n = draw(st.integers(0, 12))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v]
    weights = draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges)))
    vwgt = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    start = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    graph = from_edges(
        n,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        np.array(weights, dtype=np.int64),
        np.array(vwgt, dtype=np.int64),
    )
    slack = draw(st.integers(0, 6))
    return graph, np.array(start, dtype=np.int32), slack, draw(st.integers(0, 1 << 16))


@settings(max_examples=150, deadline=None)
@given(small_bisections())
def test_searches_hold_their_properties_on_arbitrary_small_graphs(case):
    graph, start, slack, seed = case
    total = graph.total_vertex_weight
    cap = -(-total // 2) + slack
    check_fm2way(graph, start, (cap, cap))
    check_fm2way(graph, check_ggg(graph, total // 2, cap, seed), (cap, cap), rounds=1)


# --------------------------------------------------------------------- #
# (b) golden pins, re-recorded once when FM went boundary-seeded with the
#     adaptive stopping rule and the pool went adaptive (old -> new cuts in
#     CHANGES.md, PR 17); the two deep pins did not move
# --------------------------------------------------------------------- #
GOLDEN_GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(900, avg_degree=8, seed=31),
    "weblike": lambda: gen.weblike(800, avg_degree=10, seed=7),
    "rhg": lambda: gen.rhg(900, avg_degree=10, seed=5),
}

# (family, k, seed) -> sha1 of initial_partition(g, k, 0.03, default_rng(seed))
GOLDEN_INITIAL = {
    ("rgg2d", 2, 1): "a518861d861409d1095135a904cd62ff49612b1b",
    ("rgg2d", 2, 2): "31f10009ba79773f1b693bde55b9bcd344e4c498",
    ("rgg2d", 7, 1): "b1eb3f0c65374fcdec35373e3663de9bc5d56a92",
    ("rgg2d", 7, 2): "e510f87dc2265d8f31d7bbdeee1e20dfd484b6ad",
    ("rgg2d", 64, 1): "4bb14c66055dcf0811ba3686d6cb9ae7417f9076",
    ("rgg2d", 64, 2): "96d66865e670b8fa8447861a8dbeb60e7baae657",
    ("weblike", 2, 1): "c4b902fd7ecd1b6e1d4831bee98740c454411ec8",
    ("weblike", 2, 2): "c4b902fd7ecd1b6e1d4831bee98740c454411ec8",
    ("weblike", 7, 1): "501029d82bdb40aadca209c3dc92e10434bfc0ef",
    ("weblike", 7, 2): "f3711a51172e3b2e56457149095c9a91bffc2e86",
    ("weblike", 64, 1): "0d47780dc7ead9efeee49bc7d7b20c02a21ec0e3",
    ("weblike", 64, 2): "60a76653e744117243c12a384cf8b5de37136b39",
    ("rhg", 2, 1): "cee1ddb3bbca4c60cfe6a0ae840c42c945c340c4",
    ("rhg", 2, 2): "c4e859e5cc8d3d0cddab7efb5f548296a0dc25cd",
    ("rhg", 7, 1): "aac1a35346c4881e95b3198dd62874cd74021f2c",
    ("rhg", 7, 2): "aa51c5e1d93d9ea3ce44f30fe7eaf6867f4c3f12",
    ("rhg", 64, 1): "9930abbe2c41909dd7a94f5433a9fc928c877c73",
    ("rhg", 64, 2): "16851903c09a5960d63e8c349b8ba45203c577be",
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
def _all_heuristics(graph, target, cap, seed=0, on=KERNELS):
    """Every loop on one (degenerate) graph: the unchanged ones against
    their references, the searches against their properties."""
    limits = (cap, max(cap, graph.total_vertex_weight - target))
    for new, ref in (
        (on.bfs_bipartition, scalar_bfs_bipartition),
        (random_bipartition, scalar_random_bipartition),
    ):
        got = new(graph, target, np.random.default_rng(seed))
        want = ref(graph, target, np.random.default_rng(seed))
        assert np.array_equal(got, want), new.__name__
        check_fm2way(graph, got, limits, on=on)
    check_fm2way(graph, check_ggg(graph, target, cap, seed, on=on), limits, on=on)


class TestEdges:
    @pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny(self, n, compressed):
        g = from_edges(n, np.zeros((0, 2), dtype=np.int64))
        g = compress_graph(g) if compressed else g
        ws = BisectionWorkspace(g)
        assert oracles.lists(ws)[:4] == ([0] * (n + 1), [], [], [1] * n)
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
        assert part.tolist() == [0, 1, 1, 1, 2, 1, 0, 0, 2]  # unchanged since before the lists

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
        assert part.tolist() == want  # unchanged since before the lists

    def test_huge_edge_weights_agree_with_int64(self):
        """2**61 per edge, at most three edges per vertex: every gain fits
        int64, so the exact list arithmetic of the Python loops and the int64
        gains kernel must tell the same story, and the stopping rule's sums
        of squared gains (2**124 and up) must not overflow anything.  The
        compiled searches take W (the summed |edge weights|) below 2**62
        only: they refuse the graph by name."""
        big = 1 << 61
        edges = np.array([[i, i + 1] for i in range(11)] + [[0, 6], [3, 9]])
        g = from_edges(12, edges, np.full(len(edges), big, dtype=np.int64))
        assert int(np.bincount(full_adjacency(g)[0]).max()) == 3
        with pytest.raises(ValueError, match=r"\|edge weights\| \d+ are not below 2\^62"):
            BisectionWorkspace(g).kernels()
        for seed in range(4):
            _all_heuristics(g, 6, 7, seed, on=oracles)
        lone = np.zeros(12, dtype=np.int32)
        lone[3] = 1  # all three neighbors across: the largest gain there is
        assert np.array_equal(two_way_gains(g, lone), scalar_two_way_gains(g, lone))
        assert int(two_way_gains(g, lone)[3]) == 3 * big
        part = np.array([0, 1] * 6, dtype=np.int32)
        start = part.copy()
        refined = oracles.fm2way_refine(g, part, (7, 7))
        assert np.array_equal(refined, check_fm2way(g, start, (7, 7), on=oracles))
        ws = BisectionWorkspace(g)
        assert exact_cut(ws, refined.tolist()) < exact_cut(ws, start.tolist())
        # one crossing edge: 2 * 2**61 directed weight still fits (a cut
        # whose directed weight passes 2**63 wraps in the bulk kernel, as it
        # always has on CSR graphs)
        leaf = np.zeros(12, dtype=np.int32)
        leaf[11] = 1
        assert two_way_cut(g, leaf) == scalar_two_way_cut(g, leaf) == big


# --------------------------------------------------------------------- #
# ledger: what each path holds is charged, under the names the arrays had
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
        """The lists are the oracle's: charged while held, not before."""
        g = gen.rgg2d(300, avg_degree=8, seed=1)
        before = ledger.current_bytes
        ws = BisectionWorkspace(g)
        assert ledger.current_bytes == before + ws.xadj.nbytes
        *lists, charge = oracles.lists(ws)
        slots = sum(len(lst) for lst in lists)
        assert slots == 2 * g.n + 1 + 2 * g.num_directed_edges
        live = {a.name: a.charged_bytes for a in ledger.live_allocations()}
        assert live["bisection-workspace"] == 8 * slots
        assert ledger.current_bytes == before + ws.xadj.nbytes + 8 * slots
        del ws, lists, charge
        gc.collect()
        assert ledger.current_bytes == before

    def test_attempt_lists_keep_their_entry_names(self, ledger, monkeypatch):
        g = gen.rgg2d(300, avg_degree=8, seed=1)
        n, m = g.n, g.num_directed_edges
        total = g.total_vertex_weight
        cap = int(0.53 * total)
        flags = ("fm2way-locked", "bipartition-in-block", "bipartition-blocked", "bipartition-visited")
        gains = ("fm2way-gains", "bipartition-gain")
        answers = []
        for path in on_each_path():
            ledger.largest.clear()
            before = ledger.current_bytes
            best = recursive.bipartition_portfolio(
                g, total // 2, cap, cap, np.random.default_rng(0), attempts=4
            )
            gc.collect()
            # only the winning assignment outlives the bisection
            assert ledger.current_bytes == before + best.nbytes
            answers.append(best)
            # per-vertex state keeps the entry names it had as arrays; the
            # oracle's lists cost one 8 B slot a vertex, the kernel's arrays
            # what they are
            for name in gains:
                assert ledger.largest[name] == 8 * n, (path, name)
            for name in flags:
                assert ledger.largest[name] == (n if path == "kernel" else 8 * n), (path, name)
            assert ledger.largest["bipartition-part"] == 4 * n
            kernel_only = {
                "bisection-heap": 24 * (n + m),
                "bipartition-grown": 8 * n,
                "fm2way-side": n,
                "fm2way-moves": 8 * 2 * n,
                "fm2way-kept": 8 * 2,
                # the pool's own: every order drawn, the best side, a row a slot
                "bisection-orders": 8 * 4 * n,
                "bisection-best-side": n,
                "bisection-pool-stats": 8 * 4 * 7,
            }
            if path == "kernel":
                assert "bisection-workspace" not in ledger.largest
                for name, nbytes in kernel_only.items():
                    assert ledger.largest[name] == nbytes, name
            else:
                assert ledger.largest["bisection-workspace"] == 8 * (2 * n + 1 + 2 * m)
                assert not kernel_only.keys() & ledger.largest.keys()
            del best
        assert all(np.array_equal(answers[0], other) for other in answers)

    def test_initial_phase_not_smaller_than_before(self):
        """With scratch tracking on, the initial-partitioning phase of this
        run peaked at 200 290 B (83 405 B of scratch) while the loops still
        held arrays; neither the oracle's lists (239 601 / 122 716 B) nor the
        kernel's arrays and heap (267 722 / 150 837 B) may make it look
        cheaper."""
        import dataclasses

        from repro.core.partitioner import partition

        g = gen.rgg2d(3000, avg_degree=8, seed=4)
        cfg = dataclasses.replace(
            presets.terapart(seed=1),
            obs=presets.ObsConfig(enabled=True, track_scratch=True),
        )
        for path in on_each_path():
            tracker = MemoryTracker()
            result = partition(g, 8, cfg, tracker=tracker)
            assert int(result.cut) == 234, path
            phase = tracker.phases()["partition/initial-partitioning"]
            assert phase.peak_bytes >= 200_290, path
            assert phase.peak_breakdown["scratch"] >= 83_405, path
