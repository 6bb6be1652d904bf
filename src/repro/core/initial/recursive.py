"""Recursive bisection into k blocks on the coarsest graph.

Each bisection splits the remaining block budget ``k`` into
``k0 = ceil(k/2)`` / ``k1 = floor(k/2)`` with target weight proportional to
the budget; the per-bisection imbalance allowance is relaxed to
``(1+eps)^(1/ceil(log2 k)) - 1`` so the final k-way partition lands inside
the global constraint (the standard recursive-bisection correction).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.initial.workspace import RAN, KIND_CODES, BisectionWorkspace
from repro.graph.access import installed_tracer
from repro.memory.scratch import tracked_zeros

# which bipartitioner seeds slot i of a bisection's portfolio, cyclically
POOL = ("ggg", "ggg", "bfs", "random")
POOL_SIGMAS = 2.0
_POOL_CODES = np.array([KIND_CODES.index(kind) for kind in POOL], dtype=np.int64)


def split(ws: BisectionWorkspace, labels, label_count: int, blocks, ids=None):
    """``(subgraph, ids)`` per label of ``blocks``, the subgraph its vertices
    induce in the workspace ``ws`` and their ``ids`` (their indices in ``ws``
    when ``ids`` is ``None``): one ``repro_split`` call writing the next
    workspaces."""
    return ws.kernels().split(labels, label_count, blocks, ids)


def bipartition_portfolio(
    graph,
    target_weight0: int,
    max_weight0: int,
    max_weight1: int,
    rng: np.random.Generator,
    attempts: int = 8,
    fm_rounds: int = 2,
) -> np.ndarray:
    """Best-of-at-most-``attempts`` bipartition: GGG/BFS/random seeds + 2-way
    FM, all on one :class:`BisectionWorkspace` (``graph`` may already be one).

    The pool is adaptive as in KaMinPar's initial partitioner: a slot is
    skipped once its kind of bipartitioner has run and the mean of its
    post-FM cuts lies more than ``POOL_SIGMAS`` standard deviations above
    the best feasible cut found so far.  The compiled pool runs it in one
    call."""
    ws = BisectionWorkspace.of(graph)
    attempts = max(1, attempts)
    best, rows = ws.kernels().pool(
        _POOL_CODES, target_weight0, max_weight0, max_weight1, rng, attempts, fm_rounds,
        POOL_SIGMAS,
    )  # fmt: skip
    ran = int(np.count_nonzero(rows[:, RAN]))
    tracer = installed_tracer()
    if tracer is not None:
        tracer.add("initial.attempts_run", ran)
        tracer.add("initial.attempts_skipped", attempts - ran)
    return best


def initial_partition(
    graph,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    attempts: int = 8,
    fm_rounds: int = 2,
) -> np.ndarray:
    """k-way partition of (the coarsest) ``graph`` via recursive bisection."""
    part = tracked_zeros(graph.n, np.int32, name="recursive-part")
    if k <= 1:
        return part
    depth = max(1, math.ceil(math.log2(k)))
    eps_b = (1.0 + epsilon) ** (1.0 / depth) - 1.0

    def recurse(g, ids: np.ndarray, k_here: int, block_offset: int) -> None:
        if k_here == 1:
            part[ids] = block_offset
            return
        k0 = (k_here + 1) // 2
        k1 = k_here - k0
        total = g.total_vertex_weight
        target0 = int(round(total * k0 / k_here))
        max0 = max(target0, int((1.0 + eps_b) * total * k0 / k_here))
        max1 = max(total - target0, int((1.0 + eps_b) * total * k1 / k_here))
        ws = BisectionWorkspace.of(g)
        bp = bipartition_portfolio(
            ws, target0, max0, max1, rng, attempts=attempts, fm_rounds=fm_rounds
        )
        if k_here == 2:  # both sides are blocks
            part[ids] = block_offset + bp
            return
        (sub0, ids0), (sub1, ids1) = split(ws, bp, 2, (0, 1), ids)
        del ws, g  # one bisection's workspace does not outlive it
        recurse(sub0, ids0, k0, block_offset)
        recurse(sub1, ids1, k1, block_offset + k0)

    recurse(graph, np.arange(graph.n, dtype=np.int64), k, 0)
    return part
