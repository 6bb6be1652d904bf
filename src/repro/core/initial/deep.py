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

from repro.core.initial.recursive import bipartition_portfolio, split
from repro.core.initial.workspace import BisectionWorkspace
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
    """How many blocks a graph with ``n`` vertices supports (``n/factor``),
    clamped to ``[1, k_target]`` and rounded to keep splits productive."""
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
    guard = 0
    while state.k_current < want and not state.done():
        if not _split_round(pgraph, state, rng, attempts, fm_rounds):
            break
        splits += 1
        guard += 1
        if guard > 64:  # defensive: k_target <= 2^64 splits anyway
            break
    return splits


def _split_round(
    pgraph: PartitionedGraph,
    state: DeepState,
    rng: np.random.Generator,
    attempts: int,
    fm_rounds: int,
) -> bool:
    """Bisect every block with budget > 1 once; returns True if any split."""
    k_old = len(state.budgets)
    # positions 0..k_old-1 keep their (possibly halved) budgets; each split
    # appends its second half as a brand-new label at the end
    new_budgets: list[int] = [int(b) for b in state.budgets]
    part = pgraph.partition
    eps_b = (1.0 + state.epsilon) ** (
        1.0 / max(1, int(np.ceil(np.log2(max(2, state.k_target)))))
    ) - 1.0
    any_split = False

    # blocks are disjoint and fresh labels start at k_old, so the subgraphs
    # (written up front, or extracted lazily) never see this round's earlier
    # splits
    blocks = [b for b in range(k_old) if new_budgets[b] > 1]
    subgraphs = split(BisectionWorkspace(pgraph.graph), part, k_old, blocks)
    for b, (sub, ids) in zip(blocks, subgraphs):
        if sub.n < 2:
            continue  # cannot split a sub-2-vertex block
        budget = new_budgets[b]
        b0 = (budget + 1) // 2
        b1 = budget - b0
        sub_total = sub.total_vertex_weight
        target0 = int(round(sub_total * b0 / budget))
        max0 = max(target0, int((1.0 + eps_b) * sub_total * b0 / budget))
        max1 = max(
            sub_total - target0, int((1.0 + eps_b) * sub_total * b1 / budget)
        )
        bp = bipartition_portfolio(
            sub, target0, max0, max1, rng, attempts=attempts, fm_rounds=fm_rounds
        )
        # side 0 keeps label b (budget b0); side 1 gets a fresh label
        next_label = len(new_budgets)
        movers = bp == 1
        moved = int(sub.vwgt[movers].sum())
        part[ids[movers]] = next_label
        pgraph.block_weights[b] -= moved
        pgraph.block_weights[next_label] += moved
        new_budgets[b] = b0
        new_budgets.append(b1)
        any_split = True

    if any_split:
        state.budgets = np.array(new_budgets, dtype=np.int64)
    return any_split
