"""Batch-synchronous distributed label propagation (dKaMinPar style).

Coarsening clustering and refinement both run label propagation in
synchronous vertex batches: within a batch every rank decides moves against
the *stale* labels snapshotted at batch start (exactly the semantics of
dKaMinPar's bulk-synchronous rounds), then label changes of boundary
vertices are exchanged with the ranks holding them as ghosts.  Cluster/block
weights are tracked approximately between batches via an allreduce of
deltas, so the balance constraint can be transiently violated -- repaired by
the explicit rebalancing step, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import (
    bulk_size_constrained_commit,
    move_gains,
    segment_best_last,
)
from repro.dist.dgraph import DistributedGraph
from repro.graph.access import segment_reduce_ratings
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


def distributed_lp_clustering(
    dgraph: DistributedGraph,
    max_cluster_weight: int,
    rounds: int,
    batches: int,
    rng: np.random.Generator,
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
    n = dgraph.n
    labels = np.arange(n, dtype=np.int64)
    weights = np.zeros(n, dtype=np.int64)
    for shard in dgraph.shards:
        weights[shard.lo : shard.hi] = shard.vwgt

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

    vwgt_global = weights.copy()
    for rnd in range(rounds):
        moved = 0
        with tracer.span(f"dist-lp-round{rnd}", level=level):
            for batch in range(batches):
                snapshot = labels.copy()  # batch-start label view (stale reads)
                all_changes: list[tuple[np.ndarray, np.ndarray]] = []
                for shard in dgraph.shards:
                    local = np.arange(shard.lo, shard.hi, dtype=np.int64)
                    mine = local[local % batches == batch]
                    owner, nbr, w = shard.adjacency(mine - shard.lo)
                    po, pl, ratings = segment_reduce_ratings(
                        owner, snapshot[nbr], w, n
                    )
                    # ties favor the current label, then jitter
                    is_current = pl == snapshot[mine][po]
                    jitter = ((pl * 0x9E3779B1) ^ (po * 0x85EBCA6B)) >> 7 & 0x3F
                    best = segment_best_last(
                        po, ((2 * ratings + is_current) << 6) | jitter
                    )
                    po, pl = po[best], pl[best]
                    us = mine[po]
                    cur = snapshot[us]
                    fits = weights[pl] + vwgt_global[us] <= max_cluster_weight
                    move = (pl != cur) & fits
                    all_changes.append((us[move], pl[move]))
                # apply moves + exchange boundary label updates (alltoallv)
                # in rank order; a target the batch overfilled rejects the
                # late arrivals (weight table refreshed between batches)
                us = np.concatenate([c[0] for c in all_changes])
                ls = np.concatenate([c[1] for c in all_changes])
                accepted = bulk_size_constrained_commit(
                    ls, labels[us], vwgt_global[us], weights, max_cluster_weight
                )
                labels[us[accepted]] = ls[accepted]
                contended = len(us) - int(accepted.sum())
                moved += len(us) - contended
                with tracer.span("ghost-exchange", level=level):
                    payload = _ghost_update_payload(dgraph, all_changes)
                    comm.alltoallv(payload)  # label updates to ghost holders only
                tracer.add("dlp.contention", contended)
                _count_ghost_updates(tracer, payload)
            comm.allreduce(
                [np.array([moved], dtype=np.int64) for _ in range(comm.size)]
            )
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
    k: int,
    max_block_weight: int,
    rounds: int,
    batches: int,
    *,
    tracer=NULL_CLUSTER_OBSERVER,
    level: int | None = None,
) -> int:
    """Batch-synchronous size-constrained LP refinement; returns move count."""
    comm = dgraph.comm
    vwgt = tracked_zeros(dgraph.n, np.int64, name="dlp-global-vwgt")
    for shard in dgraph.shards:
        vwgt[shard.lo : shard.hi] = shard.vwgt
    total_moves = 0
    for rnd in range(rounds):
        moved = 0
        with tracer.span(f"dist-refine-round{rnd}", level=level):
            for batch in range(batches):
                snapshot = partition.copy()
                all_changes: list[tuple[np.ndarray, np.ndarray]] = []
                for shard in dgraph.shards:
                    local = np.arange(shard.lo, shard.hi, dtype=np.int64)
                    mine = local[local % batches == batch]
                    owner, nbr, w = shard.adjacency(mine - shard.lo)
                    po, pb, ratings = segment_reduce_ratings(
                        owner, snapshot[nbr], w, k
                    )
                    gain, is_cur = move_gains(
                        po, pb, ratings, snapshot[mine], len(mine)
                    )
                    fits = block_weights[pb] + vwgt[mine[po]] <= max_block_weight
                    ok = fits & ~is_cur & (gain > 0)
                    po2, pb2 = po[ok], pb[ok]
                    best = segment_best_last(po2, gain[ok])
                    all_changes.append((mine[po2[best]], pb2[best]))
                # batch-synchronous: the stale weight check may overfill;
                # the rebalancer repairs it afterwards (paper Section II-B)
                us = np.concatenate([c[0] for c in all_changes])
                bs = np.concatenate([c[1] for c in all_changes])
                w = vwgt[us]
                np.subtract.at(block_weights, partition[us], w)
                np.add.at(block_weights, bs, w)
                partition[us] = bs
                moved += len(us)
                with tracer.span("ghost-exchange", level=level):
                    payload = _ghost_update_payload(dgraph, all_changes)
                    comm.alltoallv(payload)
                _count_ghost_updates(tracer, payload)
            comm.allreduce(
                [block_weights.copy() for _ in range(comm.size)], op="max"
            )
            tracer.add("dlp.refine_moves", moved)
        total_moves += moved
        if moved == 0:
            break
    return total_moves
