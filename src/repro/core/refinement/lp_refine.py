"""Size-constrained label propagation refinement [14].

KaMinPar's default refinement: starting from the projected partition, each
vertex may move to the adjacent block with the highest positive gain,
subject to the balance constraint ``w(V_i) <= L_max``.  Memory is
proportional to ``k`` rather than ``n`` (the paper notes it is negligible),
so no ledger charges beyond block weights are needed.

One compiled call per round like LP clustering (or the vectorized pipeline
chunk by chunk, as oracle and fallback); moves commit sequentially with a
re-check of the target block's weight.  Under the conflict detector the
driver runs one chunk a call and records its shared accesses around
whichever step runs.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import PartitionContext
from repro.core.kernels import (
    bulk_size_constrained_commit,
    move_gains,
    segment_best_last,
)
from repro.core.kernels.lp_chunk import EDGES, MOVES, NANOS, refinement_round
from repro.core.partition import PartitionedGraph
from repro.graph.access import chunk_adjacency, segment_reduce_ratings
from repro.memory.scratch import tracked_empty
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

    A round -- every chunk rated, picked and committed in execution order --
    is one call into ``lp_kernel.c`` when the compiled library is there,
    else the numpy pipeline of :func:`_oracle_step`, chunk by chunk,
    bit-identical; under a conflict detector one chunk a call, and
    :func:`_recording` tells it what either step touched.
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
    kernel = refinement_round(g, pgraph.partition, pgraph.block_weights, max_block_weight)
    step = kernel.step if kernel is not None else _oracle_step(pgraph, max_block_weight)
    if rec.active:
        step = _recording(step, rec, g, pgraph.partition)
        kernel = None

    frontier = None if seeds is None else np.unique(np.asarray(seeds, np.int64))
    for _round in range(rounds):
        if frontier is None:
            order = ctx.rng.permutation(n).astype(np.int64, copy=False)
        else:
            order = ctx.rng.permutation(frontier)
        with runtime.region(f"lp-refinement-round{_round}"):
            if kernel is not None:
                bounds, tids = runtime.chunk_bounds(len(order))
                # the movers only feed the next round's frontier
                moved = None if frontier is None else tracked_empty(len(order), name="lp-moved")
                stats = kernel(order, bounds, moved)
                items = bounds[:, 1] - bounds[:, 0]
                runtime.record_chunks("lp-refinement", tids, items, stats[:, NANOS] * 1e-9)
                rows = stats[:, [EDGES, MOVES]].tolist()
            else:
                chunks = runtime.execute(runtime.schedule(order), phase="lp-refinement")
                # a chunk without an edge records nothing
                done = [out for out in (step(chunk) for _tid, chunk in chunks) if out]
                rows = [(edges, len(movers)) for edges, movers in done]
                moved = [movers for _, movers in done]
        moves = 0
        for edges, chunk_moves in rows:
            if not edges:  # no edge in this chunk
                continue
            runtime.record(
                "lp-refinement",
                work=float(edges),
                bytes_moved=float(16 * edges),
            )
            moves += chunk_moves
        total_moves += moves
        ctx.tracer.add("refine.lp_rounds", 1)
        ctx.tracer.add("refine.lp_visited", len(order))
        if moves == 0:
            break
        if frontier is not None:
            moved = moved[:moves] if kernel is not None else np.concatenate(moved)
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
    the ``step`` of :func:`repro.core.kernels.lp_chunk.refinement_round`, whose
    round it is the oracle and fallback of, looped chunk by chunk."""
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
