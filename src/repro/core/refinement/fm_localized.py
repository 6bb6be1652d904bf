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
pass.
"""

from __future__ import annotations

from repro.core.config import FMConfig
from repro.core.context import PartitionContext
from repro.core.partition import PartitionedGraph
from repro.core.refinement import fm_kernel
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
    seeds = table.seeds
    if len(seeds) == 0:
        return 0
    seeds = seeds[ctx.rng.permutation(len(seeds))]
    # every search in one compiled call
    improvement, committed, rolled_back, searches = kernel(
        seeds, locked, localized=True, max_region=max_region
    )
    tracer = ctx.tracer
    tracer.add("fm.searches", searches)
    tracer.add("fm.moves", committed)
    tracer.add("fm.rollback_moves", rolled_back)
    tracer.add("fm.improvement", improvement)
    return improvement
