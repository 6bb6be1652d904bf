"""Label propagation clustering: classic (Algorithm 1) and two-phase
(Algorithm 2).

Both variants make *identical clustering decisions* -- the paper verifies
that two-phase LP does not change solution quality (Fig. 4 right; average
cuts within 0.03%).  What differs is the auxiliary memory and the load
balance:

* classic: every virtual thread owns a full ``n``-entry sparse-array rating
  map (plus its non-zero list) -> ``O(n*p)`` bytes, and a single high-degree
  vertex serializes on one thread (the paper's load-balance bottleneck).
* two-phase: threads use fixed-capacity hash tables; vertices whose
  neighborhood touches ``>= T_bump`` distinct clusters are *bumped* and
  processed in a second phase with **one** shared sparse array and
  parallelism over edges -> ``O(n + p*T_bump)`` bytes.

The decision kernel itself runs per chunk: one call into the compiled rating
map (:mod:`repro.core.kernels.lp_chunk`) or, as its oracle and fallback, the
vectorized pipeline of :mod:`repro.graph.access`; the variant determines what
gets charged to the memory ledger and how work is attributed to the cost
model.  The rating-map classes in :mod:`repro.core.coarsening.rating_map`
implement the real structures and are unit-tested for equivalence with the
vectorized kernel.  Under the conflict detector the driver records the
shared accesses of whichever step runs, so fuzzing checks the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.context import PartitionContext
from repro.core.kernels import (
    bulk_size_constrained_commit,
    cluster_leaders,
    segment_best_last,
)
from repro.core.kernels.lp_chunk import clustering_step
from repro.graph.access import chunk_adjacency, segment_reduce_ratings, traversal_cost
from repro.memory.scratch import tracked_zeros
from repro.verify.declarations import recorder_for


@dataclass
class ClusteringResult:
    """Outcome of one clustering pass over a level's graph."""

    clusters: np.ndarray  # cluster leader ID per vertex (values in [0, n))
    cluster_weights: np.ndarray  # weight per leader ID (size n, sparse)
    num_clusters: int
    moves_per_round: list[int] = field(default_factory=list)
    bumped_per_round: list[int] = field(default_factory=list)
    favorites: np.ndarray | None = None  # best neighbor cluster (for two-hop)


def _charge_rating_maps(
    graph, ctx: PartitionContext, two_phase: bool, t_bump: int
) -> list[int]:
    """Register the clustering working set with the ledger; return handles."""
    tracker = ctx.tracker
    p = ctx.runtime.p
    n = graph.n
    handles = [tracker.alloc("cluster-array", 8 * n, "clustering")]
    handles.append(tracker.alloc("cluster-weights", 8 * n, "clustering"))
    if two_phase:
        # per-thread fixed-capacity hash tables (keys+values, pow2-padded),
        # sized by the bump threshold
        table_bytes = 16 * (1 << max(1, (2 * t_bump - 1).bit_length()))
        handles.append(
            tracker.alloc("first-phase-hash-tables", p * table_bytes, "clustering")
        )
        # one shared sparse array + per-thread non-zero buffers
        handles.append(tracker.alloc("shared-sparse-array", 8 * n, "clustering"))
        handles.append(
            tracker.alloc("nonzero-buffers", p * 8 * t_bump, "clustering")
        )
    else:
        # one sparse array (values) + non-zero list per thread
        handles.append(
            tracker.alloc("thread-rating-maps", p * 16 * n, "clustering")
        )
    return handles


def _oracle_step(graph, clusters, cluster_weights, max_cluster_weight):
    """The numpy pipeline of one chunk: ``step(chunk)`` with the contract of
    :func:`repro.core.kernels.lp_chunk.clustering_step`, which it is the
    oracle and fallback of."""
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    none = np.empty(0, dtype=np.int64)

    def step(chunk):
        owner, nbrs, wgts = chunk_adjacency(graph, chunk)
        if len(owner) == 0:
            return None
        pair_owner, pair_cluster, pair_rating = segment_reduce_ratings(
            owner, clusters[nbrs], wgts, n
        )
        # nc(u): distinct neighbor clusters per chunk vertex
        nc = np.bincount(pair_owner, minlength=len(chunk))

        u_of_pair = chunk[pair_owner]
        fits = cluster_weights[pair_cluster] + vwgt[u_of_pair] <= max_cluster_weight
        is_current = pair_cluster == clusters[u_of_pair]
        # rank: rating first, keep-bonus on ties, then a seeded
        # pseudo-random jitter -- LP must break remaining ties
        # randomly or mesh clusters snake toward extreme IDs
        jitter = (
            ((pair_cluster * 0x9E3779B1) ^ (u_of_pair * 0x85EBCA6B)) >> 7
        ) & 0x3F
        rank = ((2 * pair_rating + is_current) << 6) | jitter

        # unconstrained favorite per owner
        fav_pairs = segment_best_last(pair_owner, rank)
        fav_us, fav = u_of_pair[fav_pairs], pair_cluster[fav_pairs]

        # constrained best per owner over the same segments:
        # ranks are >= 0, so a pair that does not fit wins only
        # where none fits, and that owner has no target
        ok = fits | is_current
        best = segment_best_last(pair_owner, np.where(ok, rank, -1))
        best = best[ok[best]]
        if len(best) == 0:
            return len(owner), fav_us, fav, nc, 0, none
        best_cluster = pair_cluster[best]

        # commit sequentially (atomic weight updates in the
        # paper); re-check the cap because earlier commits in
        # this chunk may have filled the target cluster
        us = u_of_pair[best]
        cur = clusters[us]
        want_move = best_cluster != cur
        # safe-target commits apply with one scatter-add;
        # contended targets replay in order inside the kernel
        mv_us = us[want_move]
        mv_tgt = best_cluster[want_move]
        acc = bulk_size_constrained_commit(
            mv_tgt,
            cur[want_move],
            vwgt[mv_us],
            cluster_weights,
            max_cluster_weight,
        )
        acc_us = mv_us[acc]
        clusters[acc_us] = mv_tgt[acc]
        return len(owner), fav_us, fav, nc, len(best), acc_us

    return step


def _recording(step, rec, graph, clusters, t_bump):
    """``step`` with each chunk's shared accesses recorded, read off the
    chunk and the step's outputs, so the kernel and the oracle record the
    same sets: the neighbours' labels, the movers' labels, the old and new
    clusters of the movers' weights and, in two-phase LP (``t_bump > 0``),
    the labels bumped vertices flush into the shared sparse array."""

    def recorded(chunk):
        owner, nbrs, _ = chunk_adjacency(graph, chunk)
        seen, before = clusters[nbrs], clusters[chunk]
        out = step(chunk)
        if out is None:
            return None
        nc, targets, moved = out[3:]
        rec.read("clusters", nbrs)
        rec.atomic("clusters", moved)
        old = before[np.isin(chunk, moved)]
        rec.atomic("cluster-weights", np.concatenate([old, clusters[moved]]))
        if t_bump and targets:
            rec.atomic("shared-sparse-array", seen[(nc >= t_bump)[owner]])
        return out

    return recorded


def label_propagation_clustering(
    graph,
    ctx: PartitionContext,
    max_cluster_weight: int,
) -> ClusteringResult:
    """Run ``lp_rounds`` of size-constrained label propagation.

    The driver owns the rounds: visiting order, schedule, favorites, bump
    counts, cost records and counters.  What happens to one chunk -- rate,
    pick, commit -- is a *step*: one call into ``lp_kernel.c`` when the
    compiled library is there, else the numpy pipeline of
    :func:`_oracle_step`, bit-identical.  An attached conflict detector
    hears the step's shared accesses from :func:`_recording`, whichever
    step runs.
    """
    n = graph.n
    cc = ctx.config.coarsening
    two_phase = cc.two_phase_lp
    runtime = ctx.runtime
    rng = ctx.rng

    clusters = np.arange(n, dtype=np.int64)
    cluster_weights = np.asarray(graph.vwgt).astype(np.int64).copy()
    favorites = np.arange(n, dtype=np.int64)

    t_bump = ctx.effective_t_bump(n)
    edge_bytes, work_factor = traversal_cost(graph)
    max_degree = graph.max_degree if not two_phase else 0
    handles = _charge_rating_maps(graph, ctx, two_phase, t_bump)
    phase_name = "clustering-2p" if two_phase else "clustering-classic"
    # verify layer: the synchronization classes of every shared array this
    # kernel touches live in repro.verify.declarations ("lp-clustering");
    # the recorder refuses anything outside that declaration set, and the
    # static `repro lint` pass cross-references the same registry.
    rec = recorder_for(ctx.detector, "lp-clustering")
    # the sparse array and non-zero buffers charged just above, for real:
    # slot, seen and rating rows of the kernel's rating map
    step = clustering_step(
        graph, clusters, cluster_weights, max_cluster_weight,
        np.zeros((3, n), dtype=np.int64),
    ) or _oracle_step(graph, clusters, cluster_weights, max_cluster_weight)  # fmt: skip
    if rec.active:
        step = _recording(step, rec, graph, clusters, t_bump if two_phase else 0)
    tracer = ctx.tracer
    result = ClusteringResult(
        clusters, cluster_weights, n, favorites=favorites
    )
    try:
        for _round in range(cc.lp_rounds):
            order = rng.permutation(n).astype(np.int64)
            moves = 0
            bumped_total = 0
            with tracer.span(f"{phase_name}-round{_round}"):
                sched = runtime.schedule(order)
                chunk_weights = None
                if runtime.schedule_policy == "heavy-first":
                    degs = np.asarray(graph.degrees)
                    chunk_weights = np.array(
                        [int(degs[c].sum()) for c in sched.chunks],
                        dtype=np.int64,
                    )
                with runtime.region(f"{phase_name}-round{_round}"):
                    for _tid, chunk in runtime.execute(
                        sched, weights=chunk_weights, phase=phase_name
                    ):
                        out = step(chunk)
                        if out is None:  # no edge in this chunk
                            continue
                        edges, fav_us, fav, nc, targets, moved = out
                        bumped_mask = nc >= t_bump
                        bumped_total += int(bumped_mask.sum())
                        # record favorites (unconstrained best) for two-hop
                        # matching
                        favorites[fav_us] = fav
                        # per-owner slots: disjoint plain stores by design
                        rec.write("favorites", fav_us)
                        if not targets:
                            continue
                        runtime.record(
                            phase_name,
                            work=float(edges) * work_factor,
                            bytes_moved=edge_bytes * edges,
                            # second-phase atomics: only bumped vertices'
                            # rating flushes hit the shared sparse array
                            atomic_ops=int(nc[bumped_mask].sum()) if two_phase else 0,
                        )
                        moves += len(moved)
                # straggler span for classic LP: the largest neighborhood is
                # scanned by a single thread (two-phase parallelizes it)
                if not two_phase:
                    runtime.record(
                        phase_name,
                        work=0.0,
                        span=float(max_degree),
                        sequential=False,
                    )
            tracer.add("lp.rounds", 1)
            tracer.add("lp.moves", moves)
            tracer.add("lp.bumped", bumped_total)
            result.moves_per_round.append(moves)
            result.bumped_per_round.append(bumped_total)
            if moves == 0:
                break
    finally:
        for h in handles:
            ctx.tracker.free(h)

    result.num_clusters = len(cluster_leaders(clusters))
    return result


def cluster_sizes(clusters: np.ndarray) -> np.ndarray:
    """Number of member vertices per leader ID (size n, sparse)."""
    sizes = tracked_zeros(len(clusters), np.int64, name="cluster-sizes")
    np.add.at(sizes, clusters, 1)
    return sizes
