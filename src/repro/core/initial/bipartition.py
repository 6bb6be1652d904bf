"""Greedy graph growing bipartitioning.

Grows block 0 from a random seed vertex by repeatedly absorbing the frontier
vertex with the highest gain (weight of edges into the grown block minus
weight of edges to the outside), until the block reaches its target weight.
Classic GGG as used by KaMinPar's initial-partitioning portfolio.
"""

from __future__ import annotations

from heapq import heappop, heappush
from collections import deque

import numpy as np

from repro.core.initial.workspace import BisectionWorkspace
from repro.memory.scratch import tracked_ones, tracked_slots


def greedy_graph_growing_bipartition(
    graph,
    target_weight0: int,
    max_weight0: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a 0/1 block assignment with ``w(V_0)`` close to the target.

    ``target_weight0`` steers growth; ``max_weight0`` is the hard cap (the
    bisection-adjusted balance constraint).  ``graph`` is a graph or the
    :class:`BisectionWorkspace` of one.
    """
    ws = BisectionWorkspace.of(graph)
    n = ws.n
    part = tracked_ones(n, np.int32, name="bipartition-part")
    order = rng.permutation(n)
    kernels = ws.kernels()
    if kernels is not None:
        part[kernels.grow_greedy(order, target_weight0, max_weight0)] = 0
        return part
    # the oracle: the same search over the workspace's lists
    xadj, adj, wgt, vwgt = ws.lists
    in_block = [False] * n
    # a vertex that once exceeded the cap can never fit later (the block
    # only grows), so block it permanently to guarantee termination
    blocked = [False] * n
    gain = [0] * n
    names = ("bipartition-in-block", "bipartition-blocked", "bipartition-gain")
    charges = [tracked_slots(n, name) for name in names]  # held for the attempt
    heap: list[tuple[int, int, int]] = []
    counter = 0
    weight0 = 0
    grown: list[int] = []

    unassigned = order.tolist()
    up = 0

    while weight0 < target_weight0:
        if not heap:
            # (re)start from a fresh random seed (handles disconnected graphs)
            while up < n and (in_block[unassigned[up]] or blocked[unassigned[up]]):
                up += 1
            if up >= n:
                break
            heappush(heap, (0, counter, unassigned[up]))
            counter += 1
        # gains only grow and the largest is popped first, so the first entry
        # of an unassigned vertex to surface carries its current gain; its
        # older entries surface after it is assigned
        u = heappop(heap)[2]
        if in_block[u] or blocked[u]:
            continue
        w = vwgt[u]
        if weight0 + w > max_weight0:
            blocked[u] = True
            continue
        in_block[u] = True
        grown.append(u)
        weight0 += w
        lo, hi = xadj[u], xadj[u + 1]
        for v, ew in zip(adj[lo:hi], wgt[lo:hi]):
            if in_block[v]:
                continue
            g = gain[v] + 2 * ew  # edge flips from cut to internal
            gain[v] = g
            heappush(heap, (-g, counter, v))
            counter += 1
    part[grown] = 0
    return part


def random_bipartition(
    graph, target_weight0: int, rng: np.random.Generator
) -> np.ndarray:
    """Random balanced assignment (portfolio diversity / fallback)."""
    part = tracked_ones(graph.n, np.int32, name="bipartition-part")
    perm = rng.permutation(graph.n)
    w = np.asarray(graph.vwgt)[perm]
    # block 0 takes the vertices whose preceding weight is below the target
    part[perm[: np.searchsorted(np.cumsum(w) - w, target_weight0)]] = 0
    return part


def bfs_bipartition(
    graph, target_weight0: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain BFS growth (portfolio diversity)."""
    ws = BisectionWorkspace.of(graph)
    n = ws.n
    part = tracked_ones(n, np.int32, name="bipartition-part")
    order = rng.permutation(n)
    kernels = ws.kernels()
    if kernels is not None:
        part[kernels.grow_bfs(order, target_weight0)] = 0
        return part
    xadj, adj, _, vwgt = ws.lists
    visited = [False] * n
    charge = tracked_slots(n, "bipartition-visited")
    weight0 = 0
    grown: list[int] = []
    order = order.tolist()
    oi = 0
    q: deque[int] = deque()
    while weight0 < target_weight0:
        if not q:
            while oi < n and visited[order[oi]]:
                oi += 1
            if oi >= n:
                break
            q.append(order[oi])
            visited[order[oi]] = True
        u = q.popleft()
        grown.append(u)
        weight0 += vwgt[u]
        for v in adj[xadj[u] : xadj[u + 1]]:
            if not visited[v]:
                visited[v] = True
                q.append(v)
    part[grown] = 0
    return part
