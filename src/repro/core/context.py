"""Shared per-run state threaded through all partitioner components."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import PartitionerConfig
from repro.memory.tracker import MemoryTracker
from repro.obs.tracer import NULL_TRACER
from repro.parallel.runtime import ParallelRuntime

#: KaMinPar's contraction limit C: coarsening stops once ``n <= C * k``, and
#: a level carrying ``k'`` blocks caps cluster weights at ``w(V) / (C * k')``
CONTRACTION_LIMIT_FACTOR = 32
#: a clustering that shrinks the level by less than this has stalled:
#: two-hop matching gets one try, then coarsening ends
MIN_SHRINK_FACTOR = 1.05


@dataclass
class PartitionContext:
    """Everything a partitioner component needs besides the graph itself."""

    config: PartitionerConfig
    k: int
    total_vertex_weight: int
    tracker: MemoryTracker = field(default_factory=MemoryTracker)
    runtime: ParallelRuntime = None  # type: ignore[assignment]
    rng: np.random.Generator = None  # type: ignore[assignment]
    # span tracer (obs layer); the shared no-op singleton when disabled
    tracer: object = NULL_TRACER

    def __post_init__(self) -> None:
        if self.runtime is None:
            dbg = self.config.debug
            self.runtime = ParallelRuntime(
                self.config.p,
                schedule_policy=dbg.schedule_policy,
                schedule_seed=dbg.schedule_seed,
            )
        if self.rng is None:
            self.rng = np.random.default_rng(self.config.seed)
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def epsilon(self) -> float:
        return self.config.epsilon

    @property
    def debug(self):
        """The verify-layer knobs (``config.debug``)."""
        return self.config.debug

    @property
    def detector(self):
        """The attached conflict detector, or None."""
        return self.runtime.detector

    def phase(self, name: str, *, level: int | None = None):
        """Scope one algorithm phase: ledger phase + (if tracing) a span.

        With tracing disabled this is exactly ``tracker.phase(name)``; with
        tracing enabled the span's peak memory is read back from the
        ledger's per-phase peak, so trace and memory report agree.
        """
        return self.tracer.phase(name, self.tracker, level=level)

    def max_block_weight(self) -> int:
        from repro.core.partition import max_block_weight

        return max_block_weight(self.total_vertex_weight, self.k, self.epsilon)

    def max_cluster_weight(self, n: int | None = None) -> int:
        """Weight cap for coarsening clusters.

        Clusters become coarse vertices; capping their weight at
        ``w(V) / (CONTRACTION_LIMIT_FACTOR * k')`` guarantees the level
        retains enough vertices for a balanced partition into the ``k'``
        blocks it will carry.  Classic multilevel uses ``k' = k`` at every
        level; deep multilevel [3] lets ``k'`` shrink with the level
        (``k' = min(k, n / C)``), so coarsening can proceed to constant
        size -- KaMinPar's adaptive cluster-weight limit.
        """
        C = CONTRACTION_LIMIT_FACTOR
        if self.config.initial.scheme == "deep" and n is not None:
            k_here = max(1, min(self.k, n // C))
        else:
            k_here = self.k
        return max(1, self.total_vertex_weight // max(C * k_here, 1))

    def contraction_limit(self) -> int:
        """Stop coarsening once ``n`` falls below this."""
        C = CONTRACTION_LIMIT_FACTOR
        if self.config.initial.scheme == "deep":
            return max(2 * C, 64)
        return max(2 * self.k, C * self.k)

    def effective_t_bump(self, n: int) -> int:
        """Resolve the bump threshold for a graph with ``n`` vertices.

        ``t_bump == 0`` auto-scales so that ``p * T_bump << n`` holds at
        benchmark scale, the regime the paper's constant 10 000 occupies on
        billion-vertex graphs with 96 cores.
        """
        t = self.config.coarsening.t_bump
        if t > 0:
            return t
        return int(min(10_000, max(128, n // (8 * self.runtime.p))))

    def effective_buffer_capacity(self, n: int) -> int:
        """Resolve the dual-counter batching buffer size ``B_t`` (entries).

        Auto-scales like :meth:`effective_t_bump`: the paper's fixed buffer
        is a constant-size structure negligible next to ``n``; keep it so.
        """
        return int(min(4_096, max(32, n // (8 * self.runtime.p))))
