"""Greedy graph growing bipartitioning.

Grows block 0 from a random seed vertex by repeatedly absorbing the frontier
vertex with the highest gain (weight of edges into the grown block minus
weight of edges to the outside), until the block reaches its target weight.
Classic GGG as used by KaMinPar's initial-partitioning portfolio.  Both
growths are one call into ``bisection_kernel.c`` on the graph's
:class:`~repro.core.initial.workspace.BisectionWorkspace`.
"""

from __future__ import annotations

import numpy as np

from repro.core.initial.workspace import BisectionWorkspace
from repro.memory.scratch import tracked_ones


def greedy_graph_growing_bipartition(
    graph,
    target_weight0: int,
    max_weight0: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a 0/1 block assignment with ``w(V_0)`` close to the target.

    ``target_weight0`` steers growth; ``max_weight0`` is the hard cap (the
    bisection-adjusted balance constraint).  ``graph`` is a graph or the
    :class:`BisectionWorkspace` of one.
    """
    ws = BisectionWorkspace.of(graph)
    n = ws.n
    part = tracked_ones(n, np.int32, name="bipartition-part")
    order = rng.permutation(n)
    part[ws.kernels().grow_greedy(order, target_weight0, max_weight0)] = 0
    return part


def random_bipartition(
    graph, target_weight0: int, rng: np.random.Generator
) -> np.ndarray:
    """Random balanced assignment (portfolio diversity / fallback)."""
    part = tracked_ones(graph.n, np.int32, name="bipartition-part")
    perm = rng.permutation(graph.n)
    w = np.asarray(graph.vwgt)[perm]
    # block 0 takes the vertices whose preceding weight is below the target
    part[perm[: np.searchsorted(np.cumsum(w) - w, target_weight0)]] = 0
    return part


def bfs_bipartition(
    graph, target_weight0: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain BFS growth (portfolio diversity)."""
    ws = BisectionWorkspace.of(graph)
    n = ws.n
    part = tracked_ones(n, np.int32, name="bipartition-part")
    order = rng.permutation(n)
    part[ws.kernels().grow_bfs(order, target_weight0)] = 0
    return part
