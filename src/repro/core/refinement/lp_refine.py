"""Size-constrained label propagation refinement [14].

KaMinPar's default refinement: starting from the projected partition, each
vertex may move to the adjacent block with the highest positive gain,
subject to the balance constraint ``w(V_i) <= L_max``.  Memory is
proportional to ``k`` rather than ``n`` (the paper notes it is negligible),
so no ledger charges beyond block weights are needed.

One compiled call per round like LP clustering; moves commit sequentially
with a re-check of the target block's weight.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import PartitionContext
from repro.core.kernels.lp_chunk import EDGES, MOVES, NANOS, refinement_round
from repro.core.partition import PartitionedGraph
from repro.graph.access import chunk_adjacency
from repro.memory.scratch import tracked_empty


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

    A round -- every chunk rated, picked and committed in issue order -- is
    one call into ``lp_kernel.c``.
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
    part, vwgt = pgraph.partition, g.vwgt
    kernel = refinement_round(g, vwgt, part, pgraph.block_weights, max_block_weight)

    frontier = None if seeds is None else np.unique(np.asarray(seeds, np.int64))
    for _round in range(rounds):
        if frontier is None:
            order = ctx.rng.permutation(n).astype(np.int64, copy=False)
        else:
            order = ctx.rng.permutation(frontier)
        bounds, tids = runtime.chunk_bounds(len(order))
        # the movers feed the next round's frontier
        moved = None if frontier is None else tracked_empty(len(order), name="lp-moved")
        stats = kernel(order, bounds, moved)
        edges = int(stats[:, EDGES].sum())
        runtime.record_chunks(
            "lp-refinement", tids, bounds[:, 1] - bounds[:, 0], stats[:, NANOS] * 1e-9,
            work=float(edges),
            bytes_moved=float(16 * edges),
        )
        moves = int(stats[:, MOVES].sum())
        total_moves += moves
        ctx.tracer.add("refine.lp_rounds", 1)
        ctx.tracer.add("refine.lp_visited", len(order))
        if moves == 0:
            break
        if frontier is not None:
            moved = moved[:moves]
            frontier = np.union1d(moved, chunk_adjacency(g, moved)[1])
    ctx.tracer.add("refine.lp_moves", total_moves)
    return total_moves

