"""Localized k-way FM refinement with pluggable gain tables (Section V).

Structure follows shared-memory parallel localized FM [4], [15]: searches
are seeded from boundary vertices, a priority queue orders candidate moves
by gain, moves respect the balance constraint, and each pass keeps the best
prefix of its move sequence (rollback of the unprofitable tail).  Gains are
served by one of the three gain-table strategies of
:mod:`repro.core.refinement.gain_table`, which is the memory/time trade-off
Figure 7 measures.

A pass runs as one compiled call (:mod:`repro.core.refinement.fm_kernel`).
"""

from __future__ import annotations

from repro.core.config import FMConfig
from repro.core.context import PartitionContext
from repro.core.partition import PartitionedGraph
from repro.core.refinement import fm_kernel
from repro.core.refinement.gain_table import gain_table_for_round
from repro.memory.scratch import tracked_zeros


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
    """One FM pass in one compiled call (``fm_kernel.c``)."""
    kernel = fm_kernel.bind(pgraph, table, max_block_weight, slack=_abort_slack(pgraph))
    seeds = table.seeds
    if len(seeds) == 0:
        return 0
    locked = tracked_zeros(pgraph.graph.n, bool, name="fm-locked")
    improvement, moves, rolled_back, _ = kernel(
        seeds, locked, localized=False, max_fruitless=cfg.max_fruitless_moves
    )
    tracer = ctx.tracer
    tracer.add("fm.moves", moves)
    tracer.add("fm.rollback_moves", rolled_back)
    tracer.add("fm.improvement", improvement)
    return improvement


def _abort_slack(pgraph: PartitionedGraph) -> int:
    """Allowance for temporarily-negative move chains (hill climbing).

    Ten average-weight edges' worth of slack: enough for FM to cross small
    ridges without chasing hopeless descents.
    """
    g = pgraph.graph
    avg_edge_weight = g.total_edge_weight // max(1, g.num_directed_edges)
    return 10 * max(1, int(avg_edge_weight))
