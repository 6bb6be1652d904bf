"""Recursive bisection into k blocks on the coarsest graph.

Each bisection splits the remaining block budget ``k`` into
``k0 = ceil(k/2)`` / ``k1 = floor(k/2)`` with target weight proportional to
the budget; the per-bisection imbalance allowance is relaxed to
``(1+eps)^(1/ceil(log2 k)) - 1`` so the final k-way partition lands inside
the global constraint (the standard recursive-bisection correction).

The tree runs a depth at a time: one ``repro_bisect_depth`` call runs every
bisection of a depth and writes the subgraphs of the next
(:class:`~repro.core.initial.workspace.BisectionTree`); only the caps of
each bisection are computed here, from its subgraph's total weight.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.initial.workspace import KIND_CODES, NODE_FIELDS, BisectionTree, fm_patience
from repro.graph._native import clamp_weight
from repro.graph.access import installed_tracer
from repro.memory.scratch import tracked_zeros

# which bipartitioner seeds slot i of a bisection's portfolio, cyclically
POOL = ("ggg", "ggg", "bfs", "random")
POOL_SIGMAS = 2.0
_POOL_CODES = np.array([KIND_CODES.index(kind) for kind in POOL], dtype=np.int64)
_K = NODE_FIELDS.index("k")


def bisection_epsilon(epsilon: float, k: int) -> float:
    """The imbalance each bisection of a ``k``-way recursion may take,
    ``(1 + epsilon)^(1 / ceil(log2 k)) - 1``: a block that went through
    ``ceil(log2 k)`` of them lands inside ``1 + epsilon``."""
    return (1.0 + epsilon) ** (1.0 / max(1, math.ceil(math.log2(max(2, k))))) - 1.0


def bisection_caps(total: int, k: int, eps_b: float) -> list[int]:
    """``[target0, max0, max1]`` of a bisection of weight ``total`` whose
    sides make ``ceil(k/2)`` and ``floor(k/2)`` of its ``k`` blocks, each
    side allowed ``1 + eps_b`` times its share, as the kernels compare them."""
    k0 = (k + 1) // 2
    k1 = k - k0
    target0 = int(round(total * k0 / k))
    max0 = max(target0, int((1.0 + eps_b) * total * k0 / k))
    max1 = max(total - target0, int((1.0 + eps_b) * total * k1 / k))
    return [clamp_weight(weight) for weight in (target0, max0, max1)]


def initial_partition(
    graph,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    attempts: int = 8,
    fm_rounds: int = 2,
) -> np.ndarray:
    """k-way partition of (the coarsest) ``graph`` via recursive bisection.

    The k - 1 bisections draw their seeds in one ``random_raw(k - 1)``, the
    i-th bisection of the depth-first preorder taking seed i, as one draw a
    bisection in that order would.  A refusal leaves ``rng`` where it was."""
    part = tracked_zeros(graph.n, np.int32, name="recursive-part")
    if k <= 1:
        return part
    eps_b = bisection_epsilon(epsilon, k)
    tree = BisectionTree(graph, _POOL_CODES, max(1, attempts), fm_rounds, POOL_SIGMAS)
    before = rng.bit_generator.state
    try:
        seeds = rng.bit_generator.random_raw(k - 1)
        level = [tree.root(k)]  # the subgraphs of one depth, with their blocks
        while level:
            level = tree.depth(
                [
                    [*node, *bisection_caps(total, node[_K], eps_b), fm_patience(node[0])]
                    for *node, total in level
                ],
                seeds,
                part,
            )
    except ValueError:
        rng.bit_generator.state = before
        raise
    report_attempts(tree)
    return part


def report_attempts(tree: BisectionTree) -> None:
    """Count the pool slots ``tree`` ran and skipped on the installed tracer."""
    tracer = installed_tracer()
    if tracer is not None:
        tracer.add("initial.attempts_run", tree.ran)
        tracer.add("initial.attempts_skipped", tree.slots - tree.ran)
