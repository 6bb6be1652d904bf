"""The coarsening level loop.

Repeatedly clusters and contracts until the graph is small enough for
initial partitioning (``n <= contraction_limit``), the shrink factor stalls
(even after two-hop matching), or the level cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coarsening.contraction import contract_buffered
from repro.core.coarsening.lp_clustering import label_propagation_clustering
from repro.core.coarsening.one_pass_contraction import contract_one_pass
from repro.core.coarsening.two_hop import two_hop_match
from repro.core.context import MIN_SHRINK_FACTOR, PartitionContext


@dataclass
class CoarseLevel:
    """One level of the multilevel hierarchy (below the input graph)."""

    graph: object
    fine_to_coarse: np.ndarray  # maps the *previous* level's vertices here
    graph_aid: int
    stats: dict = field(default_factory=dict)


def coarsen_hierarchy(graph, ctx: PartitionContext) -> list[CoarseLevel]:
    """Build the hierarchy ``G_1, G_2, ...`` (``G_0`` is the input graph)."""
    cc = ctx.config.coarsening
    limit = ctx.contraction_limit()
    levels: list[CoarseLevel] = []
    current = graph
    for level in range(cc.max_levels):
        if current.n <= limit:
            break
        with ctx.phase(f"coarsening-level{level}", level=level):
            cap = ctx.max_cluster_weight(current.n)
            with ctx.phase("clustering", level=level):
                result = label_propagation_clustering(current, ctx, cap)
            shrink = current.n / max(result.num_clusters, 1)
            if shrink < MIN_SHRINK_FACTOR:
                two_hop_match(result, np.asarray(current.vwgt), cap)
                shrink = current.n / max(result.num_clusters, 1)
                ctx.tracer.add("coarsening.two_hop_matches", 1)
            if shrink < MIN_SHRINK_FACTOR:
                break  # coarsening stalled; go to initial partitioning
            with ctx.phase("contraction", level=level):
                contract = (
                    contract_one_pass if cc.one_pass_contraction else contract_buffered
                )
                out = contract(
                    current, result.clusters, result.cluster_weights, ctx
                )
        levels.append(
            CoarseLevel(
                out.coarse,
                out.fine_to_coarse,
                out.graph_aid,
                stats={
                    "shrink": shrink,
                    "n": out.coarse.n,
                    "m": out.coarse.m,
                    "bumped": result.bumped_per_round,
                },
            )
        )
        current = out.coarse
    return levels
