"""Partition representation and quality metrics.

Terminology follows the paper: blocks ``V_1..V_k`` must satisfy the balance
constraint ``w(V_i) <= L_max := (1+eps) * ceil(w(V)/k)`` and the objective is
the total weight of cut edges.
"""

from __future__ import annotations

import numpy as np

from repro.graph.access import crossing_weight
from repro.memory.scratch import tracked_zeros


def max_block_weight(total_weight: int, k: int, epsilon: float) -> int:
    """The balance ceiling ``L_max = (1+eps) * ceil(w(V)/k)``."""
    return int((1.0 + epsilon) * -(-total_weight // k))


class PartitionedGraph:
    """A graph plus a block assignment.

    Maintains block weights incrementally under :meth:`move`, which is the
    operation refinement algorithms hammer on.
    """

    def __init__(self, graph, k: int, partition: np.ndarray) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        partition = np.ascontiguousarray(partition, dtype=np.int32)
        if len(partition) != graph.n:
            raise ValueError("partition must assign every vertex")
        if graph.n and (partition.min() < 0 or partition.max() >= k):
            raise ValueError("partition contains out-of-range block IDs")
        self.graph = graph
        self.k = k
        self.partition = partition
        self.block_weights = tracked_zeros(k, np.int64, name="block-weights")
        np.add.at(self.block_weights, partition, np.asarray(graph.vwgt))

    # ------------------------------------------------------------------ #
    def block(self, u: int) -> int:
        return int(self.partition[u])

    def move(self, u: int, target: int) -> None:
        """Move ``u`` to block ``target``, updating block weights."""
        src = self.partition[u]
        if src == target:
            return
        w = int(self.graph.vwgt[u])
        self.block_weights[src] -= w
        self.block_weights[target] += w
        self.partition[u] = target

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def cut_weight(self) -> int:
        """Total weight of edges crossing blocks (each undirected edge once)."""
        return crossing_weight(self.graph, self.partition) // 2

    def cut_fraction(self) -> float:
        tw = self.graph.total_edge_weight // 2
        return self.cut_weight() / tw if tw else 0.0

    def imbalance(self) -> float:
        """``max_i w(V_i) / (w(V)/k) - 1`` (0 = perfectly balanced)."""
        avg = self.graph.total_vertex_weight / self.k
        if avg == 0:
            return 0.0
        return float(self.block_weights.max()) / avg - 1.0

    def is_balanced(self, epsilon: float) -> bool:
        lmax = max_block_weight(self.graph.total_vertex_weight, self.k, epsilon)
        return bool(self.block_weights.max() <= lmax)

    def nonempty_blocks(self) -> int:
        return int(np.count_nonzero(np.bincount(self.partition, minlength=self.k)))

    def boundary_vertices(self) -> np.ndarray:
        """Vertices with at least one neighbor in a different block,
        ascending: one compiled scan (``fm_kernel.c``)."""
        from repro.core.refinement import fm_kernel

        return fm_kernel.boundary_vertices(self)

    def validate(self) -> None:
        """Check invariants: weights consistent, assignment in range."""
        bw = tracked_zeros(self.k, np.int64, name="validate-block-weights")
        np.add.at(bw, self.partition, np.asarray(self.graph.vwgt))
        if not np.array_equal(bw, self.block_weights):
            raise AssertionError("block weights out of sync with partition")

    def copy(self) -> "PartitionedGraph":
        return PartitionedGraph(self.graph, self.k, self.partition.copy())

    def __repr__(self) -> str:
        return (
            f"PartitionedGraph(k={self.k}, cut={self.cut_weight()}, "
            f"imbalance={self.imbalance():.3f})"
        )
