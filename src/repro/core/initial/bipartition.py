"""Greedy graph growing bipartitioning.

Grows block 0 from a random seed vertex by repeatedly absorbing the frontier
vertex with the highest gain (weight of edges into the grown block minus
weight of edges to the outside), until the block reaches its target weight.
Classic GGG as used by KaMinPar's initial-partitioning portfolio.  The
growth is one call into ``bisection_kernel.c`` on a
:class:`~repro.core.initial.workspace.BisectionTree` bound to the graph.
"""

from __future__ import annotations

import numpy as np

from repro.core.initial.workspace import BisectionTree
from repro.memory.scratch import tracked_ones


def greedy_graph_growing_bipartition(
    graph,
    target_weight0: int,
    max_weight0: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a 0/1 block assignment with ``w(V_0)`` close to the target.

    ``target_weight0`` steers growth; ``max_weight0`` is the hard cap (the
    bisection-adjusted balance constraint).
    """
    tree = BisectionTree(graph)
    part = tracked_ones(tree.n, np.int32, name="bipartition-part")
    order = rng.permutation(tree.n)
    part[tree.grow_greedy(order, target_weight0, max_weight0)] = 0
    return part
