"""Localized multi-search k-way FM ([4], [15] -- the scheme the paper's
"shared-memory parallel localized k-way FM refinement" refers to).

Instead of one global priority queue, many small *searches* run, each
seeded from one boundary vertex and expanding a bounded region around it:
a search holds its own priority queue, moves vertices inside its region
(locking them against other searches), tracks the best prefix of its move
sequence, and rolls back the tail when it stops.  Searches are executed by
virtual threads; because vertices are locked, concurrent searches never
fight over a vertex -- the mechanism that makes the real algorithm safe in
parallel, reproduced literally here.

Shares the gain-table strategies of :mod:`repro.core.refinement.gain_table`
(the memory story of Section V applies unchanged), and the compiled pass of
:mod:`repro.core.refinement.fm_kernel`: one call runs every search of a
pass, with :func:`_run_search` as its oracle and fallback.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.config import FMConfig
from repro.core.context import PartitionContext
from repro.core.partition import PartitionedGraph
from repro.core.refinement import fm_kernel
from repro.core.refinement.fm_refine import _best_move
from repro.core.refinement.gain_table import gain_table_for_round
from repro.memory.scratch import tracked_zeros


def fm_refine_localized(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    max_block_weight: int,
    fm_config: FMConfig | None = None,
    *,
    max_region: int = 64,
) -> int:
    """Run localized FM rounds; returns total cut improvement."""
    cfg = fm_config or ctx.config.fm
    total = 0
    for _ in range(cfg.max_rounds):
        with gain_table_for_round(cfg.gain_table, pgraph, ctx) as table:
            improvement = _localized_pass(
                pgraph, ctx, table, max_block_weight, cfg, max_region
            )
        ctx.runtime.record(
            "fm-localized",
            work=float(pgraph.graph.num_directed_edges),
            bytes_moved=float(16 * pgraph.graph.num_directed_edges),
        )
        total += improvement
        if improvement == 0:
            break
    return total


def _localized_pass(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    table,
    max_block_weight: int,
    cfg: FMConfig,
    max_region: int,
) -> int:
    g = pgraph.graph
    kernel = fm_kernel.bind(pgraph, table, max_block_weight)
    locked = tracked_zeros(g.n, bool, name="fm-locked")
    seeds = pgraph.boundary_vertices()
    if len(seeds) == 0:
        return 0
    seeds = seeds[ctx.rng.permutation(len(seeds))]
    if kernel is not None:  # every search in one compiled call
        improvement, committed, rolled_back, searches = kernel(
            seeds, locked, localized=True, max_region=max_region
        )
    else:
        improvement = searches = committed = rolled_back = 0
        for seed in seeds.tolist():
            if locked[seed]:
                continue
            gain, kept, rolled = _run_search(
                pgraph, table, int(seed), locked, max_block_weight, max_region
            )
            improvement += gain
            searches += 1
            committed += kept
            rolled_back += rolled
    tracer = ctx.tracer
    tracer.add("fm.searches", searches)
    tracer.add("fm.moves", committed)
    tracer.add("fm.rollback_moves", rolled_back)
    tracer.add("fm.improvement", improvement)
    return improvement


def _run_search(
    pgraph: PartitionedGraph,
    table,
    seed: int,
    locked: np.ndarray,
    max_block_weight: int,
    max_region: int,
) -> tuple[int, int, int]:
    """One localized search: expand from ``seed``, keep the best prefix.

    Returns ``(improvement, kept_moves, rolled_back_moves)``.
    """
    heap: list[tuple[int, int, int, int]] = []
    counter = 0
    touched: list[int] = []  # vertices this search acquired

    def push(u: int) -> None:
        nonlocal counter
        mv = _best_move(table, pgraph, u, max_block_weight)
        if mv is not None:
            heapq.heappush(heap, (-mv[0], counter, u, mv[1]))
            counter += 1

    push(seed)
    moves: list[tuple[int, int, int]] = []
    cumulative = 0
    best = 0
    best_prefix = 0

    while heap and len(moves) < max_region:
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
        if gain < 0 and cumulative + gain < best - 2:
            break  # this search has gone sour
        locked[u] = True  # acquire: other searches skip u from now on
        touched.append(u)
        src = int(pgraph.partition[u])
        pgraph.move(u, target)
        table.apply_move(u, src, target)
        cumulative += gain
        moves.append((u, src, target))
        if cumulative > best:
            best = cumulative
            best_prefix = len(moves)
        for v in np.asarray(pgraph.graph.neighbors(u)).tolist():
            if not locked[v]:
                push(int(v))

    for u, src, dst in reversed(moves[best_prefix:]):
        pgraph.move(u, src)
        table.apply_move(u, dst, src)
    return best, best_prefix, len(moves) - best_prefix
