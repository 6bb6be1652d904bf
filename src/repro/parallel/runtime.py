"""Deterministic virtual-thread scheduler.

All "parallel" loops in this reproduction run through
:class:`ParallelRuntime`.  The runtime splits a work order into chunks and
assigns chunks to ``p`` virtual threads round-robin, exactly like a static
TBB partitioner would.  Execution is sequential (one virtual thread at a
time), but:

* per-thread scratch structures are allocated once per virtual thread
  through :meth:`ParallelRuntime.thread_locals`, so the memory ledger sees
  the true ``O(n*p)`` footprint of the classic algorithms;
* chunk assignment is a pure function of ``(p, chunk_size, order)``, so runs
  are reproducible regardless of ``p``;
* every loop reports work/span/bytes-moved into :class:`WorkStats`, which the
  cost model converts into modelled parallel running times;
* the *execution order* of chunks is pluggable (:data:`SCHEDULE_POLICIES`):
  by default chunks run in issue order, but a policy can replay the same
  loop under reversed, seeded-random, or adversarial heavy-first
  interleavings.  Kernels iterate via :meth:`ParallelRuntime.execute`, which
  also announces the current virtual thread to an attached
  :class:`~repro.verify.conflicts.ConflictDetector` -- the schedule-fuzzing
  substrate of the verify layer.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

T = TypeVar("T")

#: Recognized chunk-execution orders.  ``issue`` is the model default (the
#: order chunks are created, i.e. a static TBB partitioner with no work
#: stealing); ``reversed`` models the last-issued chunks finishing first;
#: ``random`` is a seeded arbitrary interleaving (fresh permutation per
#: parallel region); ``heavy-first`` is the adversarial order that runs the
#: heaviest chunks (most edges / members) first, maximizing the overlap
#: window of high-contention work.
SCHEDULE_POLICIES = ("issue", "reversed", "random", "heavy-first")


@dataclass
class WorkStats:
    """Accumulated cost measurements for one named parallel phase.

    ``span`` records *irreducible* critical-path work units beyond the
    ``work / p`` division (e.g. one straggler thread scanning a huge
    neighborhood); ``max_parallelism`` caps how many threads the phase can
    use (e.g. initial partitioning parallelizes over at most ``k`` blocks).
    """

    name: str
    work: float = 0.0  # total work units (e.g. edges scanned)
    span: float = 0.0  # irreducible critical-path work units
    bytes_moved: float = 0.0  # memory traffic estimate
    atomic_ops: int = 0
    sequential_work: float = 0.0  # work that ran on one thread only
    max_parallelism: float = float("inf")

    def merge(self, other: "WorkStats") -> None:
        self.work += other.work
        self.span += other.span
        self.bytes_moved += other.bytes_moved
        self.atomic_ops += other.atomic_ops
        self.sequential_work += other.sequential_work
        self.max_parallelism = min(self.max_parallelism, other.max_parallelism)


def balanced_cuts(prefix: np.ndarray, target: float) -> np.ndarray:
    """Boundaries cutting items ``0..n-1`` into runs of about ``target`` weight.

    ``prefix`` is the ``n+1``-entry running weight total with ``prefix[0] ==
    0`` (a CSR ``indptr`` is one).  A run ends at the first item boundary at
    or past each multiple of ``target``: one ``searchsorted``, no per-item
    loop.  Returns strictly increasing boundaries from ``0`` to ``n``; a
    run without its last item weighs less than ``target``.  The compression
    packets of every entry point (in-memory, virtual-thread, file) are cut
    here.
    """
    marks = np.arange(target, prefix[-1], target)
    cuts = np.searchsorted(prefix, marks, side="left")
    return np.unique(np.concatenate(([0], cuts, [len(prefix) - 1])))


@dataclass
class ChunkSchedule:
    """A static assignment of chunks to virtual threads."""

    chunks: list[np.ndarray]
    owner: list[int]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        return iter(zip(self.owner, self.chunks))

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)


class ParallelRuntime:
    """Virtual-thread runtime with ``p`` threads.

    ``p`` plays the role of the paper's 96 cores: it controls how many
    thread-local structures exist and how parallel loops are chunked.
    """

    def __init__(
        self,
        p: int = 8,
        *,
        chunk_size: int = 512,
        schedule_policy: str | None = None,
        schedule_seed: int = 0,
    ) -> None:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if schedule_policy is not None and schedule_policy not in SCHEDULE_POLICIES:
            raise ValueError(
                f"unknown schedule policy {schedule_policy!r}; "
                f"know {SCHEDULE_POLICIES}"
            )
        self.p = p
        self.chunk_size = chunk_size
        self.schedule_policy = schedule_policy
        self.schedule_seed = schedule_seed
        self.detector = None  # ConflictDetector, attached by the verify layer
        self.tracer = None  # SpanTracer, attached by the obs layer
        self._region_counter = 0
        self._stats: dict[str, WorkStats] = {}

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, order: np.ndarray) -> ChunkSchedule:
        """Split ``order`` into chunks assigned round-robin to threads."""
        n = len(order)
        if n == 0:
            return ChunkSchedule([], [])
        n_chunks = -(-n // self.chunk_size)
        chunks = [
            order[i * self.chunk_size : (i + 1) * self.chunk_size]
            for i in range(n_chunks)
        ]
        owner = [i % self.p for i in range(n_chunks)]
        return ChunkSchedule(chunks, owner)

    def schedule_balanced(
        self, order: np.ndarray, weights: np.ndarray
    ) -> ChunkSchedule:
        """Chunk ``order`` so each chunk has roughly equal total ``weights``.

        This mirrors the paper's compression packets, which contain "a
        similar number of edges" rather than a similar number of vertices.
        """
        n = len(order)
        if n == 0:
            return ChunkSchedule([], [])
        prefix = np.concatenate(([0], np.cumsum(weights)))
        n_chunks = -(-n // self.chunk_size)
        cuts = balanced_cuts(prefix, max(float(prefix[-1]) / n_chunks, 1.0))
        chunks = [order[a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
        owner = [i % self.p for i in range(len(chunks))]
        return ChunkSchedule(chunks, owner)

    def thread_locals(self, factory: Callable[[int], T]) -> list[T]:
        """Build one scratch object per virtual thread."""
        return [factory(tid) for tid in range(self.p)]

    # ------------------------------------------------------------------ #
    # execution order (schedule policies)
    # ------------------------------------------------------------------ #
    def execution_order(
        self,
        sched: ChunkSchedule,
        *,
        weights: np.ndarray | None = None,
        default: np.ndarray | None = None,
    ) -> np.ndarray:
        """Chunk execution order under the configured policy.

        ``weights`` (one entry per chunk, e.g. summed degrees) drives the
        ``heavy-first`` adversarial order; chunk sizes are used when absent.
        ``default`` is the order used when no policy is configured -- kernels
        with their own modelled nondeterminism (one-pass contraction's
        bounded jitter) pass it so the model default stays untouched.
        """
        return self._policy_order(
            sched.num_chunks, weights, lambda: [len(c) for c in sched.chunks], default
        )

    def _policy_order(self, n_chunks, weights, sizes, default=None) -> np.ndarray:
        """:meth:`execution_order` over ``n_chunks`` chunks; ``sizes()``
        gives heavy-first's chunk sizes when ``weights`` is absent."""
        identity = np.arange(n_chunks, dtype=np.int64)
        policy = self.schedule_policy
        if policy is None:
            return identity if default is None else np.asarray(default, dtype=np.int64)
        if policy == "issue":
            return identity
        if policy == "reversed":
            return identity[::-1]
        if policy == "random":
            # fresh permutation per parallel region, reproducible per
            # (schedule_seed, region index)
            self._region_counter += 1
            rng = np.random.default_rng(
                [self.schedule_seed, self._region_counter]
            )
            return rng.permutation(n_chunks).astype(np.int64)
        if policy == "heavy-first":
            if weights is None:
                weights = np.asarray(sizes(), dtype=np.int64)
            return np.argsort(-np.asarray(weights), kind="stable").astype(
                np.int64
            )
        raise ValueError(f"unknown schedule policy {policy!r}")

    def chunk_bounds(
        self, count: int, *, weights: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(bounds, tids)`` of :meth:`execute` over :meth:`schedule` of an
        order of ``count`` positions, without the chunks: ``bounds[j]`` is
        the ``[lo, hi)`` of the ``j``-th chunk to run and ``tids[j]`` its
        virtual thread.  For a kernel that walks the whole loop in one call;
        it reports the chunks back through :meth:`record_chunks`.
        """
        cs = self.chunk_size
        n_chunks = -(-count // cs)

        def sizes():
            return np.minimum(count - cs * np.arange(n_chunks, dtype=np.int64), cs)

        order = self._policy_order(n_chunks, weights, sizes)
        lo = order * cs
        return np.stack([lo, np.minimum(lo + cs, count)], axis=1), order % self.p

    def record_chunks(
        self, phase: str, tids: np.ndarray, items: np.ndarray, seconds: np.ndarray
    ) -> None:
        """What :meth:`execute` tells an attached span tracer per chunk, for
        chunks a kernel ran in one call (:meth:`chunk_bounds`)."""
        tr = self.tracer
        if tr is None or not tr.enabled:
            return
        for tid, n, sec in zip(tids.tolist(), items.tolist(), seconds.tolist()):
            tr.record_chunk(phase, tid, n, sec)

    def execute(
        self,
        sched: ChunkSchedule,
        *,
        weights: np.ndarray | None = None,
        default_order: np.ndarray | None = None,
        phase: str | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(tid, chunk)`` in policy order, announcing ``tid``.

        This is the instrumented replacement for iterating a
        :class:`ChunkSchedule` directly: an attached conflict detector
        learns which virtual thread issues each subsequent shared-memory
        access, and an attached span tracer attributes each chunk's wall
        time to ``(phase, tid)`` (the time between two yields is the
        consumer's chunk processing).  With no policy, no detector and no
        tracer it degenerates to plain issue-order iteration.
        """
        order = self.execution_order(sched, weights=weights, default=default_order)
        det = self.detector
        tr = self.tracer
        if tr is not None and not tr.enabled:
            tr = None
        name = phase or "parallel-region"
        try:
            for ci in order.tolist():
                tid, chunk = sched.owner[ci], sched.chunks[ci]
                if det is not None:
                    det.current_tid = tid
                t0 = time.perf_counter()
                yield tid, chunk
                if tr is not None:
                    tr.record_chunk(name, tid, len(chunk), time.perf_counter() - t0)
        finally:
            # also after a break or a raise in the consumer's loop: the
            # sequential code that follows belongs to no virtual thread
            if det is not None:
                det.current_tid = None

    # ------------------------------------------------------------------ #
    # conflict-detector attachment
    # ------------------------------------------------------------------ #
    def attach_detector(self, detector) -> None:
        self.detector = detector

    def detach_detector(self):
        det, self.detector = self.detector, None
        return det

    # ------------------------------------------------------------------ #
    # span-tracer attachment (obs layer)
    # ------------------------------------------------------------------ #
    def attach_tracer(self, tracer) -> None:
        """Attach a span tracer for per-(phase, tid) chunk attribution."""
        self.tracer = tracer

    def detach_tracer(self):
        tr, self.tracer = self.tracer, None
        return tr

    @contextmanager
    def region(self, phase: str):
        """Scope one parallel region (loop between barriers) for detection.

        Accesses recorded inside one region by different virtual threads may
        conflict; the region boundary is a synchronization barrier, so maps
        are cleared on entry.
        """
        if self.detector is not None:
            self.detector.begin_region(phase)
        try:
            yield
        finally:
            if self.detector is not None:
                self.detector.end_region()

    # ------------------------------------------------------------------ #
    # cost accounting
    # ------------------------------------------------------------------ #
    def stats(self, name: str) -> WorkStats:
        return self._stats.setdefault(name, WorkStats(name))

    def record(
        self,
        name: str,
        *,
        work: float = 0.0,
        span: float | None = None,
        bytes_moved: float = 0.0,
        atomic_ops: int = 0,
        sequential: bool = False,
        max_parallelism: float | None = None,
    ) -> None:
        """Record cost for phase ``name``.

        ``sequential=True`` work runs on one thread regardless of ``p``;
        ``span`` adds irreducible critical-path work on top of the
        ``work / p`` division; ``max_parallelism`` caps usable threads.
        """
        s = self.stats(name)
        if sequential:
            s.sequential_work += work
        if span is not None:
            s.span += span
        s.work += work
        s.bytes_moved += bytes_moved
        s.atomic_ops += atomic_ops
        if max_parallelism is not None:
            s.max_parallelism = min(s.max_parallelism, max_parallelism)

    def all_stats(self) -> dict[str, WorkStats]:
        return dict(self._stats)

    def reset_stats(self) -> None:
        self._stats.clear()

