"""Size-constrained label propagation refinement [14].

KaMinPar's default refinement: starting from the projected partition, each
vertex may move to the adjacent block with the highest positive gain,
subject to the balance constraint ``w(V_i) <= L_max``.  Memory is
proportional to ``k`` rather than ``n`` (the paper notes it is negligible),
so no ledger charges beyond block weights are needed.

One step per chunk like LP clustering (compiled rating map, or the
vectorized pipeline as oracle and fallback); moves commit sequentially with
a re-check of the target block's weight.  Under the conflict detector the
driver records each chunk's shared accesses around whichever step runs.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import PartitionContext
from repro.core.kernels import (
    bulk_size_constrained_commit,
    move_gains,
    segment_best_last,
)
from repro.core.kernels.lp_chunk import refinement_step
from repro.core.partition import PartitionedGraph
from repro.graph.access import chunk_adjacency, segment_reduce_ratings
from repro.verify.declarations import recorder_for


def lp_refine(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    max_block_weight,
    rounds: int | None = None,
    seeds=None,
) -> int:
    """Run LP refinement rounds; returns the total number of moves.

    ``max_block_weight`` may be a scalar or a per-block array (the latter is
    used by deep multilevel, where block budgets differ mid-uncoarsening).

    With ``seeds`` (vertex ids) only an active set is visited: round 0 the
    seeds, every later round the vertices moved in the round before plus
    their neighbours, until that frontier is empty.  A warm start passes the
    vertices its delta named; ``seeds=None`` sweeps all of ``V`` each round.

    What happens to one chunk -- rate, pick, commit -- is a *step*: one call
    into ``lp_kernel.c`` when the compiled library is there, else the numpy
    pipeline of :func:`_oracle_step`, bit-identical; :func:`_recording`
    tells an attached conflict detector what either one touched.
    """
    k = pgraph.k
    if k > np.iinfo(np.int32).max:
        raise ValueError(f"k={k} does not fit the int32 block ids of a partition")
    max_block_weight = np.broadcast_to(
        np.asarray(max_block_weight, dtype=np.int64), (k,)
    )
    g = pgraph.graph
    n = g.n
    runtime = ctx.runtime
    rounds = ctx.config.lp_refinement_rounds if rounds is None else rounds
    total_moves = 0
    # shared accesses declared in repro.verify.declarations ("lp-refinement")
    rec = recorder_for(ctx.detector, "lp-refinement")
    step = refinement_step(
        g, pgraph.partition, pgraph.block_weights, max_block_weight
    ) or _oracle_step(pgraph, max_block_weight)
    if rec.active:
        step = _recording(step, rec, g, pgraph.partition)

    frontier = None if seeds is None else np.unique(np.asarray(seeds, np.int64))
    for _round in range(rounds):
        if frontier is None:
            order = ctx.rng.permutation(n).astype(np.int64)
        else:
            order = ctx.rng.permutation(frontier)
        moved_chunks = []
        sched = runtime.schedule(order)
        with runtime.region(f"lp-refinement-round{_round}"):
            for _tid, chunk in runtime.execute(sched, phase="lp-refinement"):
                out = step(chunk)
                if out is None:  # no edge in this chunk
                    continue
                edges, moved = out
                runtime.record(
                    "lp-refinement",
                    work=float(edges),
                    bytes_moved=float(16 * edges),
                )
                moved_chunks.append(moved)
        moves = sum(map(len, moved_chunks))
        total_moves += moves
        ctx.tracer.add("refine.lp_rounds", 1)
        ctx.tracer.add("refine.lp_visited", len(order))
        if moves == 0:
            break
        if frontier is not None:
            moved = np.concatenate(moved_chunks)
            frontier = np.union1d(moved, chunk_adjacency(g, moved)[1])
    ctx.tracer.add("refine.lp_moves", total_moves)
    return total_moves


def _recording(step, rec, graph, part):
    """``step`` with each chunk's shared accesses recorded, read off the
    chunk and the step's outputs, so the kernel and the oracle record the
    same sets: the neighbours' blocks, the movers' blocks and the weights of
    their old and new blocks."""

    def recorded(chunk):
        nbrs = chunk_adjacency(graph, chunk)[1]
        before = part[chunk]
        out = step(chunk)
        if out is None:
            return None
        moved = out[1]
        rec.read("partition", nbrs)
        rec.atomic("partition", moved)
        old = before[np.isin(chunk, moved)]
        rec.atomic("block-weights", np.concatenate([old, part[moved]]))
        return out

    return recorded


def _oracle_step(pgraph, max_block_weight):
    """The numpy pipeline of one chunk: ``step(chunk)`` with the contract of
    :func:`repro.core.kernels.lp_chunk.refinement_step`, which it is the
    oracle and fallback of."""
    g = pgraph.graph
    k = pgraph.k
    part = pgraph.partition
    vwgt = np.asarray(g.vwgt)
    none = np.empty(0, dtype=np.int64)

    def step(chunk):
        owner, nbrs, wgts = chunk_adjacency(g, chunk)
        if len(owner) == 0:
            return None
        po, pb, pr = segment_reduce_ratings(
            owner, part[nbrs].astype(np.int64), wgts, k
        )
        us = chunk[po]
        # gain of moving owner to block pb = pr - affinity(current block)
        cur_of_owner = part[chunk].astype(np.int64)
        gain, is_current = move_gains(po, pb, pr, cur_of_owner, len(chunk))
        fits = pgraph.block_weights[pb] + vwgt[us] <= max_block_weight[pb]
        ok = fits & ~is_current & (gain > 0)
        if not np.any(ok):
            return len(owner), none
        po2, pb2, g2 = po[ok], pb[ok], gain[ok]
        best = segment_best_last(po2, g2)
        # commit against the real block-weight array; the kernel replays
        # contended blocks in candidate order
        mv_us = chunk[po2[best]]
        mv_tgt = pb2[best]
        acc = bulk_size_constrained_commit(
            mv_tgt,
            part[mv_us].astype(np.int64),
            vwgt[mv_us],
            pgraph.block_weights,
            max_block_weight,
        )
        acc_us = mv_us[acc]
        part[acc_us] = mv_tgt[acc].astype(np.int32)
        return len(owner), acc_us

    return step
