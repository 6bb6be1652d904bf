"""Deep multilevel partitioning (Gottesbüren et al., ESA 2021 [3]).

KaMinPar's defining scheme, referenced throughout the paper: instead of
stopping coarsening at ``O(k)`` vertices and computing a full k-way
partition there (classic multilevel), *deep* multilevel coarsens to a
constant size, bipartitions once, and then **extends the partition during
uncoarsening**: whenever the current graph is large enough to support more
blocks, every block is bisected in place, doubling the block count until
``k`` is reached.  This makes the work per level independent of ``k`` and
is what lets KaMinPar handle k = 30 000 gracefully.

Block budgets handle non-power-of-two ``k``: block ``b`` is responsible for
``budget[b]`` final blocks and is split proportionally ``ceil/floor`` until
every budget is 1.

This module provides the two driver hooks:

* :func:`deep_initial_partition` -- partition the coarsest graph into the
  number of blocks its size supports (possibly < k), with budgets.
* :func:`extend_partition` -- split blocks on a finer level until the block
  count matches what the level supports (or ``k``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.initial.recursive import (
    _POOL_CODES,
    POOL_SIGMAS,
    bisection_caps,
    bisection_epsilon,
    report_attempts,
)
from repro.core.initial.workspace import BisectionTree, fm_patience
from repro.core.partition import PartitionedGraph
from repro.memory.scratch import tracked_zeros


@dataclass
class DeepState:
    """Carries the evolving block structure through uncoarsening."""

    k_target: int
    budgets: np.ndarray  # budgets[b] = number of final blocks block b owns
    epsilon: float

    @property
    def k_current(self) -> int:
        return len(self.budgets)

    def done(self) -> bool:
        return self.k_current >= self.k_target


def supported_block_count(n: int, k_target: int, factor: int) -> int:
    """How many blocks a graph with ``n`` vertices supports: ``n // factor``,
    clamped to ``[1, k_target]``."""
    return max(1, min(k_target, n // max(1, factor)))


def deep_initial_partition(
    coarsest,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    *,
    factor: int = 32,
    attempts: int = 8,
    fm_rounds: int = 2,
) -> tuple[np.ndarray, DeepState]:
    """Partition the coarsest graph into as many blocks as it supports."""
    state = DeepState(
        k_target=k,
        budgets=np.array([k], dtype=np.int64),
        epsilon=epsilon,
    )
    part = tracked_zeros(coarsest.n, np.int32, name="deep-initial-part")
    pgraph = PartitionedGraph(coarsest, max(1, k), part)
    _split_until(
        pgraph,
        state,
        supported_block_count(coarsest.n, k, factor),
        rng,
        attempts=attempts,
        fm_rounds=fm_rounds,
    )
    return pgraph.partition, state


def extend_partition(
    pgraph: PartitionedGraph,
    state: DeepState,
    rng: np.random.Generator,
    *,
    factor: int = 32,
    attempts: int = 4,
    fm_rounds: int = 1,
) -> int:
    """Split blocks on the current level until it supports no more.

    Returns the number of bisections performed.  ``pgraph.k`` must be the
    *target* k (labels simply grow into the preallocated range).
    """
    want = supported_block_count(pgraph.graph.n, state.k_target, factor)
    return _split_until(
        pgraph, state, want, rng, attempts=attempts, fm_rounds=fm_rounds
    )


def _split_until(
    pgraph: PartitionedGraph,
    state: DeepState,
    want: int,
    rng: np.random.Generator,
    *,
    attempts: int,
    fm_rounds: int,
) -> int:
    splits = 0
    if state.k_current >= want or state.done():
        return splits
    # the level bound once: every round splits it by the current labels
    tree = BisectionTree(pgraph.graph, _POOL_CODES, max(1, attempts), fm_rounds, POOL_SIGMAS)
    # defensive: every round doubles the block count, and k_target < 2^64
    while splits <= 64 and state.k_current < want and not state.done():
        if not _split_round(pgraph, state, rng, tree):
            break
        splits += 1
    return splits


def _split_round(
    pgraph: PartitionedGraph,
    state: DeepState,
    rng: np.random.Generator,
    tree: BisectionTree,
) -> bool:
    """Bisect every block with budget > 1 and two vertices or more once, on
    ``tree`` (bound to the level graph); returns True if any split.

    Two kernel calls whatever the block count: one ``repro_split`` writes
    the blocks' subgraphs, one ``repro_bisect_depth`` bisects them all, one
    ``k = 2`` node a block, node i taking seed i of the round's one
    ``random_raw``.  Side 0 keeps block b's label (budget ``ceil``), side 1
    takes a fresh label at the end (budget ``floor``).  Nothing is written
    before the depth call returns: a refusal leaves the partition, the block
    weights, the budgets and ``rng`` as they were."""
    budgets = state.budgets.tolist()
    k_old = len(budgets)
    part = pgraph.partition
    eps_b = bisection_epsilon(state.epsilon, state.k_target)
    sides = tracked_zeros(len(part), np.int32, name="deep-round-sides")
    blocks = [b for b in range(k_old) if budgets[b] > 1]
    nodes, split = [], []
    for b, (n, *child, total) in zip(blocks, tree.split(part, k_old, blocks)):
        if n < 2:
            continue  # cannot split a sub-2-vertex block
        caps = bisection_caps(total, budgets[b], eps_b)
        nodes.append([n, *child[:5], 2, 0, len(nodes), *caps, fm_patience(n)])
        split.append(b)
    if not split:
        return False
    before = rng.bit_generator.state
    try:
        tree.depth(nodes, rng.bit_generator.random_raw(len(nodes)), sides)
    except ValueError:
        rng.bit_generator.state = before
        raise
    report_attempts(tree)

    fresh = np.zeros(k_old, dtype=np.int32)
    fresh[split] = np.arange(k_old, k_old + len(split))
    movers = np.flatnonzero(sides)
    old = part[movers]
    moved = np.zeros(k_old, dtype=np.int64)
    np.add.at(moved, old, np.asarray(pgraph.graph.vwgt)[movers])
    part[movers] = fresh[old]
    pgraph.block_weights[split] -= moved[split]
    pgraph.block_weights[k_old : k_old + len(split)] += moved[split]
    for b in split:
        budgets.append(budgets[b] // 2)
        budgets[b] -= budgets[-1]
    state.budgets = np.array(budgets, dtype=np.int64)
    return True
