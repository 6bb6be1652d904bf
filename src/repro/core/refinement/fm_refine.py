"""Localized k-way FM refinement with pluggable gain tables (Section V).

Structure follows shared-memory parallel localized FM [4], [15]: searches
are seeded from boundary vertices, a priority queue orders candidate moves
by gain, moves respect the balance constraint, and each pass keeps the best
prefix of its move sequence (rollback of the unprofitable tail).  Gains are
served by one of the three gain-table strategies of
:mod:`repro.core.refinement.gain_table`, which is the memory/time trade-off
Figure 7 measures.

A pass runs as one compiled call (:mod:`repro.core.refinement.fm_kernel`)
where the library loads; :func:`_fm_pass` and :func:`_best_move` are its
oracle and the fallback, bit-identical move for move.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.config import FMConfig
from repro.core.context import PartitionContext
from repro.core.kernels import segment_best_last
from repro.core.partition import PartitionedGraph
from repro.core.refinement import fm_kernel
from repro.core.refinement.gain_table import gain_table_for_round
from repro.graph.access import count_edges
from repro.memory.scratch import tracked_zeros


def _best_move(table, pgraph: PartitionedGraph, u: int, max_block_weight: int):
    """Highest-gain feasible move for ``u``; returns (gain, target) or None."""
    blocks, gains = table.gains(u)
    if len(blocks) == 0:
        return None
    cur = int(pgraph.partition[u])
    w = int(pgraph.graph.vwgt[u])
    best = None
    for b, g in zip(blocks.tolist(), gains.tolist()):
        if b == cur:
            continue
        if pgraph.block_weights[b] + w > max_block_weight:
            continue
        if best is None or g > best[0]:
            best = (int(g), int(b))
    return best


def fm_refine(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    max_block_weight: int,
    fm_config: FMConfig | None = None,
) -> int:
    """Run FM rounds; returns the total cut improvement achieved."""
    cfg = fm_config or ctx.config.fm
    runtime = ctx.runtime
    total_improvement = 0

    for _ in range(cfg.max_rounds):
        with gain_table_for_round(cfg.gain_table, pgraph, ctx) as table:
            improvement = _pass(pgraph, ctx, table, max_block_weight, cfg)
            if ctx.config.debug.validation_level >= 2:
                # after a pass (moves + rollback) the incrementally
                # maintained table must still match a recompute
                from repro.verify.invariants import check_gain_table_vs_recompute

                check_gain_table_vs_recompute(
                    table, pgraph, sample=64, phase="fm-gain-table"
                )
        recompute = getattr(table, "recompute_edges", 0)
        runtime.record(
            "fm-refinement",
            work=float(pgraph.graph.num_directed_edges + 4 * recompute),
            bytes_moved=float(16 * (pgraph.graph.num_directed_edges + 4 * recompute)),
        )
        total_improvement += improvement
        if improvement == 0:
            break
    return total_improvement


def _pass(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    table,
    max_block_weight: int,
    cfg: FMConfig,
) -> int:
    """One FM pass in one compiled call (``fm_kernel.c``), or
    :func:`_fm_pass` where the kernel does not run."""
    kernel = fm_kernel.bind(pgraph, table, max_block_weight, slack=_abort_slack(pgraph))
    if kernel is None:
        return _fm_pass(pgraph, ctx, table, max_block_weight, cfg)
    seeds = pgraph.boundary_vertices()
    if len(seeds) == 0:
        return 0
    if table.kind == "none":  # the seeds' neighbourhoods, read as gains_many reads them
        count_edges(pgraph.graph, pgraph.graph.degrees[seeds])
    locked = tracked_zeros(pgraph.graph.n, bool, name="fm-locked")
    improvement, moves, rolled_back, _ = kernel(
        seeds, locked, localized=False, max_fruitless=cfg.max_fruitless_moves
    )
    tracer = ctx.tracer
    tracer.add("fm.moves", moves)
    tracer.add("fm.rollback_moves", rolled_back)
    tracer.add("fm.improvement", improvement)
    return improvement


def _fm_pass(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    table,
    max_block_weight: int,
    cfg: FMConfig,
) -> int:
    seeds = pgraph.boundary_vertices()
    if len(seeds) == 0:
        return 0
    heap: list[tuple[int, int, int, int]] = []  # (-gain, tiebreak, u, target)
    counter = 0
    in_moves: list[tuple[int, int, int]] = []  # (u, src, dst)
    locked = tracked_zeros(pgraph.graph.n, bool, name="fm-locked")

    # score every seed in one batched pass; winners surface in seed
    # order, which fixes the heap tiebreak counters
    po, pb, pg = table.gains_many(seeds)
    cur = pgraph.partition[seeds].astype(np.int64)
    w = np.asarray(pgraph.graph.vwgt)[seeds]
    feasible = (pb != cur[po]) & (
        pgraph.block_weights[pb] + w[po] <= max_block_weight
    )
    po2, pb2, pg2 = po[feasible], pb[feasible], pg[feasible]
    # max gain, then smallest block -- _best_move's strict-> scan order
    best = segment_best_last(po2, pg2, tiebreak=-pb2)
    for o, b, gn in zip(
        po2[best].tolist(), pb2[best].tolist(), pg2[best].tolist()
    ):
        heapq.heappush(heap, (-int(gn), counter, int(seeds[o]), int(b)))
        counter += 1

    cumulative = 0
    best_cumulative = 0
    best_prefix = 0
    fruitless = 0

    while heap and fruitless < cfg.max_fruitless_moves:
        neg_g, _, u, target = heapq.heappop(heap)
        if locked[u]:
            continue
        mv = _best_move(table, pgraph, u, max_block_weight)
        if mv is None:
            continue
        gain, target = mv
        if gain != -neg_g:
            heapq.heappush(heap, (-gain, counter, u, target))
            counter += 1
            continue
        src = int(pgraph.partition[u])
        # stop descending into deeply negative territory
        if gain < 0 and cumulative + gain < best_cumulative - _abort_slack(pgraph):
            break
        locked[u] = True
        pgraph.move(u, target)
        table.apply_move(u, src, target)
        cumulative += gain
        in_moves.append((u, src, target))
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(in_moves)
            fruitless = 0
        else:
            fruitless += 1
        # requeue affected neighbors
        for v in np.asarray(pgraph.graph.neighbors(u)).tolist():
            if locked[v]:
                continue
            mv = _best_move(table, pgraph, int(v), max_block_weight)
            if mv is not None:
                heapq.heappush(heap, (-mv[0], counter, int(v), mv[1]))
                counter += 1

    # rollback tail
    for u, src, dst in reversed(in_moves[best_prefix:]):
        pgraph.move(u, src)
        table.apply_move(u, dst, src)
    tracer = ctx.tracer
    tracer.add("fm.moves", best_prefix)
    tracer.add("fm.rollback_moves", len(in_moves) - best_prefix)
    tracer.add("fm.improvement", best_cumulative)
    return best_cumulative


def _abort_slack(pgraph: PartitionedGraph) -> int:
    """Allowance for temporarily-negative move chains (hill climbing).

    Ten average-weight edges' worth of slack: enough for FM to cross small
    ridges without chasing hopeless descents.
    """
    g = pgraph.graph
    avg_edge_weight = g.total_edge_weight // max(1, g.num_directed_edges)
    return 10 * max(1, int(avg_edge_weight))
