"""Independent answer checker of the ladder benchmark.

Recomputes cut and block weights from the raw CSR arrays the benchmark
generated -- never through ``PartitionedGraph`` or any other code of the
program under test -- so a bug in the program's own bookkeeping cannot
vouch for itself.  Feeds ``fail_ratio`` and ``cut``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPSILON = 0.03


@dataclass(frozen=True)
class RawGraph:
    """The benchmark's own copy of one input: plain CSR arrays.

    ``weights`` / ``vweights`` are ``None`` for unit weights.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    vweights: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def directed_edges(self) -> int:
        return len(self.indices)

    @classmethod
    def of(cls, graph) -> "RawGraph":
        """Copy the arrays out of a generated ``CSRGraph`` (compactly: the
        serve workload keeps one of these per delta)."""
        n = len(graph.indptr) - 1
        idx_t = np.int32 if n < 2**31 else np.int64
        return cls(
            indptr=np.array(graph.indptr, dtype=np.int64),
            indices=np.array(graph.adjncy, dtype=idx_t),
            weights=(
                np.array(graph.adjwgt, dtype=np.int64)
                if graph.has_edge_weights
                else None
            ),
            vweights=(
                np.array(graph.vwgt, dtype=np.int64)
                if graph.has_vertex_weights
                else None
            ),
        )


@dataclass(frozen=True)
class Verdict:
    ok: bool
    cut: int | None  # recomputed; None when the answer is malformed
    reason: str = ""


def recompute_cut(raw: RawGraph, partition: np.ndarray) -> int:
    """Total weight of edges whose endpoints lie in different blocks."""
    src = np.repeat(np.arange(raw.n, dtype=np.int64), np.diff(raw.indptr))
    crossing = partition[src] != partition[raw.indices]
    if raw.weights is None:
        twice = int(np.count_nonzero(crossing))
    else:
        twice = int(raw.weights[crossing].sum())
    return twice // 2  # every undirected edge is stored in both directions


def block_weights(raw: RawGraph, partition: np.ndarray, k: int) -> np.ndarray:
    if raw.vweights is None:
        return np.bincount(partition, minlength=k)
    return np.bincount(partition, weights=raw.vweights, minlength=k).astype(
        np.int64
    )


def check_answer(
    raw: RawGraph,
    k: int,
    partition,
    reported_cut: int,
    *,
    epsilon: float = EPSILON,
) -> Verdict:
    """An answer is correct when it assigns every vertex a block in
    ``[0, k)``, no block exceeds ``(1+epsilon) * ceil(W/k)``, and the cut
    the program reported equals the recomputed one."""
    part = np.asarray(partition)
    if part.ndim != 1 or len(part) != raw.n:
        return Verdict(False, None, f"length {part.shape} != n={raw.n}")
    if not np.issubdtype(part.dtype, np.integer):
        return Verdict(False, None, f"non-integer dtype {part.dtype}")
    if raw.n and (part.min() < 0 or part.max() >= k):
        return Verdict(
            False, None, f"block id outside [0, {k}): [{part.min()}, {part.max()}]"
        )
    cut = recompute_cut(raw, part)
    weights = block_weights(raw, part, k)
    total = raw.n if raw.vweights is None else int(raw.vweights.sum())
    ceiling = (1.0 + epsilon) * math.ceil(total / k)
    if weights.max(initial=0) > ceiling:
        return Verdict(
            False, cut, f"block weight {int(weights.max())} > {ceiling:.1f}"
        )
    if int(reported_cut) != cut:
        return Verdict(False, cut, f"reported cut {reported_cut} != {cut}")
    return Verdict(True, cut)
