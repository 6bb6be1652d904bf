"""Recursive bisection into k blocks on the coarsest graph.

Each bisection splits the remaining block budget ``k`` into
``k0 = ceil(k/2)`` / ``k1 = floor(k/2)`` with target weight proportional to
the budget; the per-bisection imbalance allowance is relaxed to
``(1+eps)^(1/ceil(log2 k)) - 1`` so the final k-way partition lands inside
the global constraint (the standard recursive-bisection correction).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.initial.bipartition import (
    bfs_bipartition,
    greedy_graph_growing_bipartition,
    random_bipartition,
)
from repro.core.initial.fm2way import fm2way_refine
from repro.core.initial.workspace import RAN, KIND_CODES, BisectionWorkspace
from repro.core.kernels import two_way_cut
from repro.core.kernels.gains import flat_adjacency
from repro.graph.access import installed_tracer
from repro.graph.csr import CSRGraph
from repro.memory.scratch import tracked_full, tracked_zeros

# which bipartitioner seeds slot i of a bisection's portfolio, cyclically
POOL = ("ggg", "ggg", "bfs", "random")
POOL_SIGMAS = 2.0
_POOL_CODES = np.array([KIND_CODES.index(kind) for kind in POOL], dtype=np.int64)


def extract_subgraphs(graph, masks):
    """Yield ``(induced subgraph, original_ids)`` per vertex mask, all from one
    flattened adjacency of ``graph`` (a graph or a :class:`BisectionWorkspace`)."""
    src, dst, weight = flat_adjacency(graph)
    vwgt = np.asarray(graph.vwgt)
    local = tracked_full(graph.n, -1, np.int64, name="subgraph-local-ids")
    for mask in masks:
        ids = np.flatnonzero(mask)
        nsub = len(ids)
        local[ids] = np.arange(nsub, dtype=np.int64)
        keep = mask[src] & mask[dst]
        s, d, w = local[src[keep]], local[dst[keep]], weight[keep]
        order = np.lexsort((d, s))
        s, d, w = s[order], d[order], w[order]
        indptr = tracked_zeros(nsub + 1, np.int64, name="subgraph-indptr")
        np.cumsum(np.bincount(s, minlength=nsub), out=indptr[1:])
        unit = bool(len(w) == 0 or np.all(w == 1))
        yield CSRGraph(indptr, d, None if unit else w, vwgt[ids]), ids


def split(ws: BisectionWorkspace, labels, label_count: int, blocks, ids=None):
    """``(subgraph, ids)`` per label of ``blocks``, the subgraph its vertices
    induce in the workspace ``ws`` and their ``ids`` (their indices in ``ws``
    when ``ids`` is ``None``): one ``repro_split`` call writing the next
    workspaces, else :func:`extract_subgraphs`' CSR graphs, lazily."""
    kernels = ws.kernels()
    if kernels is not None:
        return kernels.split(labels, label_count, blocks, ids)
    subgraphs = extract_subgraphs(ws, (labels == b for b in blocks))
    return ((sub, local if ids is None else ids[local]) for sub, local in subgraphs)


def bipartition_portfolio(
    graph,
    target_weight0: int,
    max_weight0: int,
    max_weight1: int,
    rng: np.random.Generator,
    attempts: int = 8,
    fm_rounds: int = 2,
) -> np.ndarray:
    """Best-of-at-most-``attempts`` bipartition: GGG/BFS/random seeds + 2-way
    FM, all on one :class:`BisectionWorkspace` (``graph`` may already be one).

    The pool is adaptive as in KaMinPar's initial partitioner: a slot is
    skipped once its kind of bipartitioner has run and the mean of its
    post-FM cuts lies more than ``POOL_SIGMAS`` standard deviations above
    the best feasible cut found so far.  The compiled pool runs it in one
    call; :func:`_portfolio` is its oracle, same answer, same draws."""
    ws = BisectionWorkspace.of(graph)
    attempts = max(1, attempts)
    kernels = ws.kernels()
    pooled = kernels and kernels.pool(
        _POOL_CODES, target_weight0, max_weight0, max_weight1, rng, attempts, fm_rounds,
        POOL_SIGMAS,
    )  # fmt: skip
    if pooled is not None:
        best, rows = pooled
        ran = int(np.count_nonzero(rows[:, RAN]))
    else:
        best, ran = _portfolio(
            ws, target_weight0, max_weight0, max_weight1, rng, attempts, fm_rounds
        )
    tracer = installed_tracer()
    if tracer is not None:
        tracer.add("initial.attempts_run", ran)
        tracer.add("initial.attempts_skipped", attempts - ran)
    return best


def _portfolio(ws, target_weight0, max_weight0, max_weight1, rng, attempts, fm_rounds):
    """``(best assignment, attempts run)``: the pool as Python loops."""
    best: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    total = ws.total_vertex_weight
    ran = 0
    # per kind: runs, sum and sum of squares of the post-FM cuts
    stats = dict.fromkeys(POOL, (0, 0, 0))
    for attempt in range(attempts):
        kind = POOL[attempt % len(POOL)]
        runs, cuts, squares = stats[kind]
        if runs and best_key is not None and best_key[0] == 0:
            mean = cuts / runs
            variance = (squares - cuts * mean) / (runs - 1) if runs > 1 else 0.0
            if mean - POOL_SIGMAS * math.sqrt(max(variance, 0.0)) > best_key[1]:
                continue
        if kind == "random":
            part = random_bipartition(ws, target_weight0, rng)
        elif kind == "bfs":
            part = bfs_bipartition(ws, target_weight0, rng)
        else:
            part = greedy_graph_growing_bipartition(
                ws, target_weight0, max_weight0, rng
            )
        part = fm2way_refine(
            ws, part, (max_weight0, max_weight1), rounds=fm_rounds
        )
        w0 = int(ws.vwgt[part == 0].sum())
        w1 = total - w0
        infeasible = int(max(0, w0 - max_weight0) + max(0, w1 - max_weight1))
        cut = two_way_cut(ws, part)
        stats[kind] = (runs + 1, cuts + cut, squares + cut * cut)
        ran += 1
        if best_key is None or (infeasible, cut) < best_key:
            best_key, best = (infeasible, cut), part
    assert best is not None
    return best, ran


def initial_partition(
    graph,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    attempts: int = 8,
    fm_rounds: int = 2,
) -> np.ndarray:
    """k-way partition of (the coarsest) ``graph`` via recursive bisection."""
    part = tracked_zeros(graph.n, np.int32, name="recursive-part")
    if k <= 1:
        return part
    depth = max(1, math.ceil(math.log2(k)))
    eps_b = (1.0 + epsilon) ** (1.0 / depth) - 1.0

    def recurse(g, ids: np.ndarray, k_here: int, block_offset: int) -> None:
        if k_here == 1:
            part[ids] = block_offset
            return
        k0 = (k_here + 1) // 2
        k1 = k_here - k0
        total = g.total_vertex_weight
        target0 = int(round(total * k0 / k_here))
        max0 = max(target0, int((1.0 + eps_b) * total * k0 / k_here))
        max1 = max(total - target0, int((1.0 + eps_b) * total * k1 / k_here))
        ws = BisectionWorkspace.of(g)
        bp = bipartition_portfolio(
            ws, target0, max0, max1, rng, attempts=attempts, fm_rounds=fm_rounds
        )
        if k_here == 2:  # both sides are blocks
            part[ids] = block_offset + bp
            return
        (sub0, ids0), (sub1, ids1) = split(ws, bp, 2, (0, 1), ids)
        del ws, g  # one bisection's workspace does not outlive it
        recurse(sub0, ids0, k0, block_offset)
        recurse(sub1, ids1, k1, block_offset + k0)

    recurse(graph, np.arange(graph.n, dtype=np.int64), k, 0)
    return part
