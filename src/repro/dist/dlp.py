"""Batch-synchronous distributed label propagation (dKaMinPar style).

Coarsening clustering and refinement both run label propagation in
synchronous vertex batches: within a batch every rank decides moves against
the labels as the batch found them (exactly the semantics of dKaMinPar's
bulk-synchronous rounds), then the moves are committed and the label
changes of boundary vertices are exchanged with the ranks holding them as
ghosts.  Cluster/block weights are tracked approximately between batches via
an allreduce of deltas, so the balance constraint can be transiently
violated -- repaired by the explicit rebalancing step, as in the paper.

Both drivers run their rounds through one batch loop, :func:`_lp_round`.
What one rank decides for one batch is a *pick*: one call into
``lp_kernel.c``'s pick entry (:mod:`repro.core.kernels.lp_chunk`'s
``cluster_pick_step`` / ``refine_pick_step``), the rating map of
shared-memory LP without its commit, which rates the rank's batch -- a
compressed shard straight from its byte stream -- and returns the movers
and their targets.  The commit stays the driver's own.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import bulk_size_constrained_commit
from repro.core.kernels.lp_chunk import cluster_pick_step, refine_pick_step
from repro.dist.dgraph import DistributedGraph
from repro.memory.scratch import tracked_zeros
from repro.obs.dist.cluster import NULL_CLUSTER_OBSERVER


def _ghost_update_payload(
    dgraph: DistributedGraph,
    changes: list[tuple[np.ndarray, np.ndarray]],
) -> list[list[np.ndarray]]:
    """Route each rank's label changes only to ranks holding them as ghosts.

    ``changes[src]`` is ``(vertices, labels)`` moved by rank ``src`` this
    batch.  Rank ``dst`` needs the update for vertex ``v`` iff ``v`` is in
    ``dst``'s ghost set -- sending anything more would inflate traffic
    quadratically in the rank count (and ruin weak scaling).
    """
    size = dgraph.comm.size
    payload: list[list[np.ndarray]] = []
    for src in range(size):
        us = changes[src][0]
        row: list[np.ndarray] = []
        for dst in range(size):
            if src == dst or len(us) == 0:
                row.append(np.empty(0, dtype=np.int64))
                continue
            ghosts = dgraph.shards[dst].ghosts
            pos = np.searchsorted(ghosts, us)
            pos = np.minimum(pos, max(0, len(ghosts) - 1))
            is_ghost = len(ghosts) > 0
            mask = (
                (ghosts[pos] == us)
                if is_ghost
                else tracked_zeros(len(us), bool, name="ghost-mask")
            )
            row.append(us[mask])
        payload.append(row)
    return payload


def _count_ghost_updates(tracer, payload: list[list[np.ndarray]]) -> None:
    """Per-rank + cluster-wide ghost-update counters for one exchange."""
    if not tracer.enabled:
        return
    total = 0
    for src, row in enumerate(payload):
        sent = sum(len(us) for us in row)
        if sent:
            tracer.rank_add(src, "dlp.ghost_updates_sent", sent)
        total += sent
    tracer.add("dlp.ghost_updates", total)


def _lp_round(
    dgraph: DistributedGraph, pick, commit, batches: int, *, tracer, level
) -> int:
    """One round of ``batches`` batches; returns the moves kept.

    In batch ``b`` every rank picks its vertices ``v`` with ``v % batches ==
    b``: ``pick(vertices)`` returns ``(movers, targets)`` and writes
    nothing, so every rank reads the labels as the batch found them.  The
    picks travel to the ghost holders (alltoallv), then ``commit(movers,
    targets)`` applies their concatenation in rank order and returns how
    many moves it kept.
    """
    moved = 0
    for batch in range(batches):
        changes = []
        for s in dgraph.shards:
            first = s.lo + (batch - s.lo) % batches
            changes.append(pick(np.arange(first, s.hi, batches, dtype=np.int64)))
        with tracer.span("ghost-exchange", level=level):
            payload = _ghost_update_payload(dgraph, changes)
            dgraph.comm.alltoallv(payload)  # label updates to ghost holders only
        moved += commit(*(np.concatenate(c) for c in zip(*changes)))
        _count_ghost_updates(tracer, payload)
    return moved


def distributed_lp_clustering(
    dgraph: DistributedGraph,
    max_cluster_weight: int,
    rounds: int,
    batches: int,
    *,
    tracer=NULL_CLUSTER_OBSERVER,
    level: int | None = None,
) -> np.ndarray:
    """Cluster all vertices; returns global leader labels (size n).

    The simulation holds labels in one global array but performs reads and
    updates with the batch-synchronous protocol: decisions inside a batch
    see only labels from the previous batch boundary, matching the stale
    reads a real distributed run exhibits.  Per-rank ledgers are charged for
    the per-rank label + ghost-label + weight-table working set.

    ``tracer`` (a :class:`~repro.obs.dist.cluster.ClusterObserver` or the
    shared null observer) gets one kernel span per round, a
    ``ghost-exchange`` span around every boundary-label alltoallv, the
    per-round contention count (moves the stale weight table rejected at
    apply time), and per-rank ghost-update counters.  It never influences
    the computation.
    """
    comm = dgraph.comm
    graph = dgraph.graph
    n = dgraph.n
    labels = np.arange(n, dtype=np.int64)
    vwgt = np.asarray(graph.vwgt)
    weights = vwgt.copy()

    # per-rank working set: local labels, ghost labels, active-cluster table
    aids = []
    for rank, shard in enumerate(dgraph.shards):
        aids.append(
            comm.trackers[rank].alloc(
                f"dlp-working-set-{rank}",
                8 * shard.n_local + 16 * len(shard.ghosts) + 16 * shard.n_local,
                "clustering",
            )
        )

    maps = tracked_zeros((3, n), name="dlp-rating-map")
    pick = cluster_pick_step(graph, labels, weights, max_cluster_weight, maps)

    def commit(us, ls):
        # in rank order; a target the batch overfilled rejects the late
        # arrivals (weight table refreshed between batches)
        accepted = bulk_size_constrained_commit(
            ls, labels[us], vwgt[us], weights, max_cluster_weight
        )
        labels[us[accepted]] = ls[accepted]
        kept = int(accepted.sum())
        tracer.add("dlp.contention", len(us) - kept)
        return kept

    for rnd in range(rounds):
        with tracer.span(f"dist-lp-round{rnd}", level=level):
            moved = _lp_round(dgraph, pick, commit, batches, tracer=tracer, level=level)
            comm.allreduce([np.array([moved], dtype=np.int64) for _ in range(comm.size)])
            tracer.add("dlp.moves", moved)
        if moved == 0:
            break
    for rank, aid in enumerate(aids):
        comm.trackers[rank].free(aid)
    return labels


def distributed_lp_refine(
    dgraph: DistributedGraph,
    partition: np.ndarray,
    block_weights: np.ndarray,
    max_block_weight: int,
    rounds: int,
    batches: int,
    *,
    tracer=NULL_CLUSTER_OBSERVER,
    level: int | None = None,
) -> int:
    """Batch-synchronous size-constrained LP refinement; returns move count."""
    comm = dgraph.comm
    graph = dgraph.graph
    vwgt = np.asarray(graph.vwgt)
    pick = refine_pick_step(graph, partition, block_weights, max_block_weight)

    def commit(us, bs):
        # the stale weight check may overfill; the rebalancer repairs it
        # afterwards (paper Section II-B)
        w = vwgt[us]
        np.subtract.at(block_weights, partition[us], w)
        np.add.at(block_weights, bs, w)
        partition[us] = bs
        return len(us)

    total = 0
    for rnd in range(rounds):
        with tracer.span(f"dist-refine-round{rnd}", level=level):
            moved = _lp_round(dgraph, pick, commit, batches, tracer=tracer, level=level)
            comm.allreduce([block_weights.copy() for _ in range(comm.size)], op="max")
            tracer.add("dlp.refine_moves", moved)
        total += moved
        if moved == 0:
            break
    return total
