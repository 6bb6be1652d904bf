"""Rebalancer: repairs balance violations after projection/refinement.

Greedy: repeatedly take the lightest-loss boundary vertex of an overloaded
block and move it to the feasible adjacent (or, failing that, lightest)
block.  Mirrors (d)KaMinPar's rebalancing step that repairs violations
introduced by batched parallel moves.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.kernels import segment_best_last
from repro.core.partition import PartitionedGraph
from repro.graph.access import chunk_adjacency, segment_reduce_ratings
from repro.memory.scratch import tracked_full, tracked_zeros


def rebalance(pgraph: PartitionedGraph, max_block_weight, *, tracer=None) -> int:
    """Move vertices until every block fits; returns number of moves.

    ``max_block_weight`` may be a scalar or a per-block array.  ``tracer``
    (obs layer) receives the move count and overloaded-block count.
    """
    g = pgraph.graph
    vwgt = np.asarray(g.vwgt)
    part = pgraph.partition
    moves = 0
    max_block_weight = np.broadcast_to(
        np.asarray(max_block_weight, dtype=np.int64), (pgraph.k,)
    )

    overloaded = [
        b for b in range(pgraph.k) if pgraph.block_weights[b] > max_block_weight[b]
    ]
    if not overloaded:
        return 0
    if tracer is not None and tracer.enabled:
        tracer.add("balancer.overloaded_blocks", len(overloaded))

    for b in overloaded:
        # candidates: vertices of b, by loss (= cut increase when leaving:
        # affinity to b itself minus the strongest external affinity)
        members = np.flatnonzero(part == b)
        owner, nbrs, wgts = chunk_adjacency(g, members)
        po, pb, pa = segment_reduce_ratings(
            owner, part[nbrs].astype(np.int64), wgts, pgraph.k
        )
        loss = tracked_zeros(len(members), np.int64, name="rebalance-loss")
        best_target = tracked_full(
            len(members), -1, np.int64, name="rebalance-target"
        )
        internal = pb == b
        loss[po[internal]] = pa[internal]
        eo, eb, ea = po[~internal], pb[~internal], pa[~internal]
        # blocks ascend within a member, so the kernel's "latest wins"
        # breaks affinity ties toward the larger block id
        win = segment_best_last(eo, ea)
        loss[eo[win]] -= ea[win]
        best_target[eo[win]] = eb[win]
        heap = list(
            zip(
                loss.tolist(),
                range(len(members)),
                members.tolist(),
                best_target.tolist(),
            )
        )
        heapq.heapify(heap)

        while pgraph.block_weights[b] > max_block_weight[b] and heap:
            _, _, u, target = heapq.heappop(heap)
            if part[u] != b:
                continue
            w = int(vwgt[u])
            if (
                target >= 0
                and pgraph.block_weights[target] + w <= max_block_weight[target]
            ):
                pgraph.move(u, target)
                moves += 1
                continue
            # fall back to the block with the most headroom
            headroom = max_block_weight - pgraph.block_weights
            lightest = int(np.argmax(headroom))
            if (
                lightest != b
                and pgraph.block_weights[lightest] + w <= max_block_weight[lightest]
            ):
                pgraph.move(u, lightest)
                moves += 1
    if tracer is not None and tracer.enabled:
        tracer.add("balancer.moves", moves)
    return moves
