"""Pseudocode-faithful reference implementations of Algorithms 1 and 2.

The production clustering kernel (:mod:`repro.core.coarsening.lp_clustering`)
is vectorized per chunk for speed.  These reference implementations follow
the paper's pseudocode line by line on the *real* rating-map data
structures -- per-thread sparse arrays for Algorithm 1; fixed-capacity hash
tables, bumping, the shared atomic sparse array, per-thread non-zero buffers
``L_t`` and the ``FlushRatingMap`` contention shield for Algorithm 2 -- and
are tested to produce identical results to the vectorized kernel and to
each other.

They run one round over a given visit order (the paper's parallel visit
order is modelled by the order argument; decisions within a round read the
cluster array as it mutates, exactly like the in-place parallel updates of
``C`` in the paper).
"""

from __future__ import annotations

import numpy as np

from rating_map import (
    FixedCapacityHashTable,
    SparseArrayRatingMap,
)


def _tie_rank(rating: int, is_current: bool, cluster: int, u: int) -> int:
    """The same rating/keep-bonus/jitter ranking the vectorized kernel uses."""
    jitter = (((cluster * 0x9E3779B1) ^ (u * 0x85EBCA6B)) >> 7) & 0x3F
    return ((2 * rating + (1 if is_current else 0)) << 6) | jitter


def _select_best(
    u: int,
    keys: np.ndarray,
    vals: np.ndarray,
    clusters: np.ndarray,
    cluster_weights: np.ndarray,
    vwgt: np.ndarray,
    max_cluster_weight: int,
) -> tuple[int, int]:
    """Pick (favorite, constrained_best) from aggregated ratings."""
    favorite = -1
    fav_rank = -1
    best = -1
    best_rank = -1
    current = int(clusters[u])
    w = int(vwgt[u])
    # residual jitter collisions are broken toward the larger cluster ID,
    # matching the vectorized kernel's stable lexsort (iteration order over
    # a hash table must never influence the decision)
    for c, r in zip(keys.tolist(), vals.tolist()):
        is_cur = c == current
        rank = _tie_rank(int(r), is_cur, int(c), u)
        if rank > fav_rank or (rank == fav_rank and c > favorite):
            fav_rank, favorite = rank, int(c)
        if is_cur or cluster_weights[c] + w <= max_cluster_weight:
            if rank > best_rank or (rank == best_rank and c > best):
                best_rank, best = rank, int(c)
    return favorite, best


def lp_round_algorithm1(
    graph,
    clusters: np.ndarray,
    cluster_weights: np.ndarray,
    order: np.ndarray,
    max_cluster_weight: int,
    num_threads: int = 4,
) -> int:
    """One round of classic label propagation (Algorithm 1).

    Each virtual thread owns a full sparse-array rating map; vertices are
    processed in ``order`` with chunk-of-512 round-robin thread assignment
    (matching the production scheduler).  Returns the number of moves.
    """
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    maps = [SparseArrayRatingMap(n, num_threads=1) for _ in range(num_threads)]
    moves = 0
    for ci, start in enumerate(range(0, len(order), 512)):
        tid = ci % num_threads
        rating = maps[tid]
        for u in order[start : start + 512].tolist():
            nbrs, wgts = graph.neighbors_and_weights(u)
            for v, w in zip(np.asarray(nbrs).tolist(), np.asarray(wgts).tolist()):
                rating.add(0, int(clusters[v]), int(w))  # R[C[v]] += w(uv)
            keys = rating.nonzero_clusters()
            vals = rating.array[keys]
            _, best = _select_best(
                u, keys, vals, clusters, cluster_weights, vwgt, max_cluster_weight
            )
            rating.reset()
            if best >= 0 and best != clusters[u]:
                w = int(vwgt[u])
                if cluster_weights[best] + w <= max_cluster_weight:
                    cluster_weights[clusters[u]] -= w
                    cluster_weights[best] += w
                    clusters[u] = best
                    moves += 1
    return moves


def lp_round_algorithm2(
    graph,
    clusters: np.ndarray,
    cluster_weights: np.ndarray,
    order: np.ndarray,
    max_cluster_weight: int,
    t_bump: int,
    num_threads: int = 4,
) -> tuple[int, int]:
    """One round of two-phase label propagation (Algorithm 2).

    First phase: fixed-capacity hash tables; a vertex whose table reaches
    ``t_bump`` distinct clusters is bumped.  Second phase: bumped vertices
    are processed one at a time; their edges are split across virtual
    threads, each aggregating into its own hash table and flushing into the
    shared atomic sparse array ``A`` (``FlushRatingMap``); only the thread
    whose fetch-add raised a slot from zero records the cluster in its
    ``L_t``.  Returns ``(moves, bumped)``.
    """
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    tables = [FixedCapacityHashTable(t_bump) for _ in range(num_threads)]
    bumped: list[int] = []
    moves = 0

    # ---------------- first phase ---------------- #
    for ci, start in enumerate(range(0, len(order), 512)):
        tid = ci % num_threads
        table = tables[tid]
        for u in order[start : start + 512].tolist():
            table.clear()
            overflow = False
            nbrs, wgts = graph.neighbors_and_weights(u)
            for v, w in zip(np.asarray(nbrs).tolist(), np.asarray(wgts).tolist()):
                if not table.insert_add(int(clusters[v]), int(w)) or len(
                    table
                ) >= t_bump:
                    overflow = True
                    break
            if overflow:
                bumped.append(u)  # bump u and continue with next vertex
                continue
            keys, vals = table.items()
            _, best = _select_best(
                u, keys, vals, clusters, cluster_weights, vwgt, max_cluster_weight
            )
            if best >= 0 and best != clusters[u]:
                w = int(vwgt[u])
                if cluster_weights[best] + w <= max_cluster_weight:
                    cluster_weights[clusters[u]] -= w
                    cluster_weights[best] += w
                    clusters[u] = best
                    moves += 1

    # ---------------- second phase ---------------- #
    shared = SparseArrayRatingMap(n, num_threads=num_threads)
    for u in bumped:
        nbrs, wgts = graph.neighbors_and_weights(u)
        nbrs = np.asarray(nbrs)
        wgts = np.asarray(wgts)
        # parallelism over the edges: thread t takes slice t::num_threads
        for tid in range(num_threads):
            table = tables[tid]
            table.clear()
            for v, w in zip(
                nbrs[tid::num_threads].tolist(), wgts[tid::num_threads].tolist()
            ):
                if not table.insert_add(int(clusters[v]), int(w)):
                    shared.flush_table(tid, table)  # table full: flush early
                    table.insert_add(int(clusters[v]), int(w))
            shared.flush_table(tid, table)
        keys = shared.nonzero_clusters()
        vals = shared.array[keys]
        _, best = _select_best(
            u, keys, vals, clusters, cluster_weights, vwgt, max_cluster_weight
        )
        shared.reset()  # A[c] <- 0 for all tracked c
        if best >= 0 and best != clusters[u]:
            w = int(vwgt[u])
            if cluster_weights[best] + w <= max_cluster_weight:
                cluster_weights[clusters[u]] -= w
                cluster_weights[best] += w
                clusters[u] = best
                moves += 1
    return moves, len(bumped)
