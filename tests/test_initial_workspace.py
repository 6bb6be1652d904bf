"""Initial partitioning on the compiled bisection bound to a graph.

Everything here runs on the compiled searches (``bisection_kernel.c``), and
the pool and ledger tests also on the Python loops of ``tests/oracles.py``
installed in their place; ``tests/test_initial_kernel.py`` holds the two
equal over the same matrix.

The pool's BFS growth and random assignment (their loops in
``tests/oracles.py``), the gain / cut kernels and the bound arrays are
bit-identical to the loops as they were, and are held to that
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
from repro.core.initial.bipartition import greedy_graph_growing_bipartition
from repro.core.initial.fm2way import fm2way_refine
from repro.core.initial import recursive
from repro.core.initial.recursive import POOL, POOL_SIGMAS, initial_partition
from repro.core.initial.workspace import KIND_CODES, BisectionTree, _Scratch, fm_patience
from repro.core.kernels import two_way_cut, two_way_gains
from repro.graph import _native
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


def compiled_pool(
    graph, target0, max0, max1, rng, attempts=8, fm_rounds=2, *,
    kinds=recursive._POOL_CODES, sigmas=POOL_SIGMAS,
):  # fmt: skip
    """``(best assignment, its tree)`` of one bisection's compiled pool: a
    one-node ``repro_bisect_depth`` call (k = 2 from block 0, seed 0 of one
    64-bit draw from ``rng``), the attempts counted on the tracer as
    ``initial_partition`` counts them.  ``tree.rows[0]`` holds the pool's
    stats rows, ``tree.work`` its work counters.  A refusal leaves ``rng``
    where it was."""
    tree = BisectionTree(graph, kinds, max(1, attempts), fm_rounds, sigmas)
    part = scratch.tracked_empty(tree.n, np.int32, name="bipartition-part")
    caps = map(_native.clamp_weight, (target0, max0, max1))
    node = [*tree.root(2)[:-1], *caps, fm_patience(tree.n)]
    before = rng.bit_generator.state
    try:
        seeds = np.array([rng.bit_generator.random_raw()], dtype=np.uint64)
        tree.depth([node], seeds, part)
    except ValueError:
        rng.bit_generator.state = before
        raise
    recursive.report_attempts(tree)
    return part, tree


def bipartition(path, graph, target0, max0, max1, rng, attempts=8):
    """One bisection's best assignment on ``path``: ``"kernel"`` (the
    compiled pool) or ``"oracle"`` (the Python one)."""
    if path == "kernel":
        return compiled_pool(graph, target0, max0, max1, rng, attempts)[0]
    return oracles.bipartition_portfolio(graph, target0, max0, max1, rng, attempts=attempts)


def short_heap(monkeypatch, entries: int = 1) -> None:
    """Every queue buffer the kernels are handed holds ``entries`` entries."""
    get = _Scratch.get

    def short(self, name, size, dtype):
        array, at = get(self, name, size, dtype)
        return (array[: 3 * entries], at) if name == "bisection-heap" else (array, at)

    monkeypatch.setattr(_Scratch, "get", short)


def side_weights(graph, part):
    weights = np.zeros(2, dtype=np.int64)
    np.add.at(weights, part, np.asarray(graph.vwgt))
    return weights.tolist()


def exact_cut(graph, side) -> int:
    """The cut in Python integers (``two_way_cut`` wraps past 2**63)."""
    xadj, adj, wgt, _, _charge = oracles.lists(graph)
    return sum(
        wgt[e]
        for u in range(graph.n)
        for e in range(xadj[u], xadj[u + 1])
        if side[adj[e]] != side[u]
    ) // 2


#: the searches under test: the compiled ones, or ``oracles`` for the loops
KERNELS = sys.modules[__name__]


def check_fm2way(graph, start, max_weights, rounds=2, on=KERNELS):
    """Run ``fm2way_refine`` from ``start`` and replay what it wrote."""
    xadj, adj, wgt, vwgt, _charge = oracles.lists(graph)
    part = start.copy().view(RecordingPart)
    part.writes = []
    refined = on.fm2way_refine(graph, part, max_weights, rounds=rounds)
    assert refined is part
    assert set(np.unique(part).tolist()) <= {0, 1}
    assert len(part.writes) <= rounds  # one write a pass: its kept prefix

    side = start.tolist()
    weight = side_weights(graph, start)
    feasible = all(w <= cap for w, cap in zip(weight, max_weights))
    cut = before = exact_cut(graph, side)
    for kept in part.writes:
        assert len(set(kept)) == len(kept)
        reachable = {
            u for u in range(graph.n)
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
        now = exact_cut(graph, side)
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
            (oracles.bfs_bipartition, scalar_bfs_bipartition),
            (oracles.random_bipartition, scalar_random_bipartition),
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
        assert np.array_equal(two_way_gains(coarsest, part), scalar_two_way_gains(coarsest, part))
        assert two_way_cut(coarsest, part) == scalar_two_way_cut(coarsest, part)

    def test_workspace_matches_accessor(self, coarsest):
        """The oracle's lists and the arrays a tree binds are the graph's rows."""
        xadj, adj, wgt, vwgt, _charge = oracles.lists(coarsest)
        assert vwgt == np.asarray(coarsest.vwgt).tolist()
        bound_xadj, bound_adj, bound_wgt, bound_vwgt = BisectionTree(coarsest)._arrays
        assert bound_xadj.tolist() == xadj and bound_adj.tolist() == adj
        assert (bound_wgt is None) == all(w == 1 for w in wgt)
        assert bound_wgt is None or bound_wgt.tolist() == wgt
        assert (bound_vwgt is None) == all(w == 1 for w in vwgt)
        assert bound_vwgt is None or bound_vwgt.tolist() == vwgt
        for u in range(coarsest.n):
            nbrs, wgts = coarsest.neighbors_and_weights(u)
            assert adj[xadj[u] : xadj[u + 1]] == np.asarray(nbrs).tolist()
            assert wgt[xadj[u] : xadj[u + 1]] == np.asarray(wgts).tolist()

    def test_both_sides_from_one_workspace(self, coarsest):
        """Both masks from one flattening are each mask alone."""
        left = np.random.default_rng(1).random(coarsest.n) < 0.5
        shared = list(oracles.extract_subgraphs(coarsest, (left, ~left)))
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
    """One bisection on each path (see :func:`bipartition`), as ``{path:
    (best, outcomes, rng state after)}``; ``outcomes`` lists every attempt
    that ran as ``(kind, infeasibility, cut)`` of its post-FM assignment.
    The kernel path reads them from the pool's stats rows; the oracle path
    watches its seeds and ``fm2way_refine``."""
    runs = {}
    for path in ("kernel", "oracle"):
        outcomes: list[tuple[str, int, int]] = []
        rng = np.random.default_rng(seed)
        if path == "kernel":
            best, tree = compiled_pool(graph, target, *caps, rng, attempts)
            for kind, ran, over, cut, *_ in tree.rows[0].tolist():
                if ran:
                    outcomes.append((KIND_CODES[kind], over, cut))
        else:
            with monkeypatch.context() as m:
                kinds: list[str] = []
                for kind, name in (
                    ("ggg", "grow_greedy"),
                    ("bfs", "grow_bfs"),
                    ("random", "random_walk"),
                ):
                    def seeded(*args, _kind=kind, _seed=getattr(oracles, name)):
                        kinds.append(_kind)
                        return _seed(*args)

                    m.setattr(oracles, name, seeded)

                def refined(g, part, max_weights, rounds, _refine=oracles.fm2way_refine):
                    part = _refine(g, part, max_weights, rounds=rounds)
                    over = [
                        max(0, w - cap) for w, cap in zip(side_weights(g, part), max_weights)
                    ]
                    outcomes.append((kinds[-1], sum(over), two_way_cut(g, part)))
                    return part

                m.setattr(oracles, "fm2way_refine", refined)
                best = bipartition(path, graph, target, *caps, rng, attempts=attempts)
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
        for path in ("kernel", "oracle"):
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
            again = bipartition(
                path, coarsest, target, cap, cap, np.random.default_rng(seed), attempts=attempts
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
# (b) golden pins, re-recorded when FM went boundary-seeded with the
#     adaptive stopping rule and the pool went adaptive (the two deep pins
#     did not move then), and again, all of them, when each pool slot's
#     order came from (seed, slot); old -> new cuts in CHANGES.md
# --------------------------------------------------------------------- #
GOLDEN_GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(900, avg_degree=8, seed=31),
    "weblike": lambda: gen.weblike(800, avg_degree=10, seed=7),
    "rhg": lambda: gen.rhg(900, avg_degree=10, seed=5),
}

# (family, k, seed) -> sha1 of initial_partition(g, k, 0.03, default_rng(seed))
GOLDEN_INITIAL = {
    ("rgg2d", 2, 1): "ca03b7f81853c9be42b9caa07c76de7105eaecee",
    ("rgg2d", 2, 2): "164e5941ed10252fe6d4a89d971b62d1609afdcc",
    ("rgg2d", 7, 1): "9c964ce3a5bb3220abd1dfcf0c1b9d76ab6d8d4b",
    ("rgg2d", 7, 2): "ce83c889bbc7192ab0e6ea957ddf63df92964bc3",
    ("rgg2d", 64, 1): "dca479513d2dacfd804937b0edfc6b2135f79aa6",
    ("rgg2d", 64, 2): "a6203a097d98b7eaac49560c555f774d5e908d29",
    ("weblike", 2, 1): "4a3ce3794ea8bf20cbd0e9436d4e715b8a989c27",
    ("weblike", 2, 2): "aa040d493536ce2193c1b588e4c81dcf0e2cc6c1",
    ("weblike", 7, 1): "1fa718e1d58aa1f00a819fedffd219cab1d352e3",
    ("weblike", 7, 2): "43fed5a0e0155c61f961a6b93b4ca05db3a7ded0",
    ("weblike", 64, 1): "69ed6f83c7d2a119e413c87ddb9477369ada8562",
    ("weblike", 64, 2): "a1a257292dfe5329d0f7b7d8da463c564f09a65c",
    ("rhg", 2, 1): "e619ed905b7453a3b6a138e5cb9bf504c7898306",
    ("rhg", 2, 2): "f5efdee7cfa955fa2350542cf66f99611f7b21df",
    ("rhg", 7, 1): "a617aadd5b260ca4f547f2124c94fdbfee5bce5b",
    ("rhg", 7, 2): "d6423583c541cf6e278973e1c161428ad6ba565f",
    ("rhg", 64, 1): "78ac1107fa0c3bf1e302aa72fa4a612171028813",
    ("rhg", 64, 2): "729c3863467459f4f505124237a634a78e95d3af",
}

# name -> (graph, k, sha1 of the partition, cut) of partition(g, k,
# terapart_deep(seed=1)); the second graph is too small for k at the finest
# level, so blocks are still bisected on the compressed input graph
GOLDEN_DEEP = {
    "weblike-k16": (
        lambda: gen.weblike(6000, avg_degree=10, seed=3),
        16,
        "869fb003b60f2857b3661d81cae99bb946f82a20",
        8848,
    ),
    "rgg2d-k48": (
        lambda: gen.rgg2d(1000, avg_degree=8, seed=9),
        48,
        "9875961e4456d1841df957ca3b242694e0908838",
        806,
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
    """Every loop on one (degenerate) graph: the pool's unchanged seeds
    against their references, the searches against their properties."""
    limits = (cap, max(cap, graph.total_vertex_weight - target))
    for new, ref in (
        (oracles.bfs_bipartition, scalar_bfs_bipartition),
        (oracles.random_bipartition, scalar_random_bipartition),
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
        assert oracles.lists(g)[:4] == ([0] * (n + 1), [], [], [1] * n)
        assert BisectionTree(g)._arrays[0].tolist() == [0] * (n + 1)
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
        assert part.tolist() == [2, 1, 0, 0, 2, 1, 1, 0, 2]  # re-recorded for the (seed, slot) orders

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
        "seed, want", [(1, [11, 15, 3, 9, 7, 1]), (2, [7, 11, 9, 3, 1, 15])]
    )
    def test_k_larger_than_n(self, seed, want):
        """6 vertices, 16 blocks: subgraphs run empty on the way down."""
        part = initial_partition(gen.grid2d(2, 3), 16, 0.03, np.random.default_rng(seed))
        assert part.tolist() == want  # re-recorded for the (seed, slot) orders

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
            BisectionTree(g)
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
        assert exact_cut(g, refined.tolist()) < exact_cut(g, start.tolist())
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
        *lists, charge = oracles.lists(g)
        slots = sum(len(lst) for lst in lists)
        assert slots == 2 * g.n + 1 + 2 * g.num_directed_edges
        live = {a.name: a.charged_bytes for a in ledger.live_allocations()}
        assert live["bisection-workspace"] == 8 * slots
        assert ledger.current_bytes == before + 8 * slots
        del lists, charge
        gc.collect()
        assert ledger.current_bytes == before

    def test_a_csr_bind_shares_the_graphs_arrays(self, ledger):
        """A tree binds a CSR graph's own arrays, nothing copied or charged;
        a compressed graph is decoded once, and the copy is charged while
        the tree holds it."""
        g = reweighted(gen.rgg2d(300, avg_degree=8, seed=1), edge_weights=True, vertex_weights=True)
        before = ledger.current_bytes
        tree = BisectionTree(g)
        assert ledger.current_bytes == before
        xadj, adj, wgt, vwgt = tree._arrays
        for bound, own in ((xadj, g.indptr), (adj, g.adjncy), (wgt, g.adjwgt), (vwgt, g.vwgt)):
            assert np.shares_memory(bound, own)
        del tree
        gc.collect()
        compressed = compress_graph(g)
        compressed.degrees  # the graph's own cache, charged when first read
        before = ledger.current_bytes
        tree = BisectionTree(compressed)
        # xadj, and the decoded neighbours and weights
        m = compressed.num_directed_edges
        assert ledger.current_bytes - before == 8 * (compressed.n + 1) + 2 * 8 * m
        assert np.array_equal(tree._arrays[1], g.adjncy)
        del tree
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
        for path in ("kernel", "oracle"):
            ledger.largest.clear()
            before = ledger.current_bytes
            best = bipartition(path, g, total // 2, cap, cap, np.random.default_rng(0), attempts=4)
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
                # the pool's own: the running slot's order, the best side, a row a slot
                "bisection-orders": 8 * n,
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
        kernel's arrays and heap (313 311 / 196 426 B, one order row a
        recursion) may make it look cheaper."""
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
            assert int(result.cut) == 222, path
            phase = tracker.phases()["partition/initial-partitioning"]
            assert phase.peak_bytes >= 200_290, path
            assert phase.peak_breakdown["scratch"] >= 83_405, path
