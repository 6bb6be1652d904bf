"""Deterministic virtual-thread scheduler.

All "parallel" loops in this reproduction run through
:class:`ParallelRuntime`.  The runtime splits a loop over ``count``
positions into chunks of ``chunk_size`` and assigns chunks to ``p`` virtual
threads round-robin, exactly like a static TBB partitioner would.  There is
one chunk walk, :meth:`ParallelRuntime.chunk_bounds`: the ``[lo, hi)``
bounds of every chunk in issue order (the order they are created, a
static TBB partitioner with no work stealing), with their virtual threads.
Execution is sequential (one virtual thread at a time), but:

* chunk assignment is a pure function of ``(p, chunk_size, count)``, and
  ``p`` decides only which virtual thread owns a chunk, never the order
  chunks run in: a partition depends on the graph, ``k``, the preset and
  its seed alone -- not on ``p``, and not on which memory optimisations
  (two-phase LP, compression, one-pass contraction) the preset turns on.
  What ``p`` changes is the ledger: thread-local structures, modelled
  times and thread slices;
* the runtime keeps the one cost ledger of a run: every loop reports
  work/span/bytes-moved into :class:`WorkStats`, which the cost model
  converts into modelled parallel running times, and a chunk walk reports
  once, through :meth:`ParallelRuntime.record_chunks`, which also adds its
  chunks, items and seconds to per-``(phase, tid)`` thread slices --
  traced or not (a traced run's metrics ``threads`` rows read them).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


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
    max_parallelism: float = float("inf")


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


class ParallelRuntime:
    """Virtual-thread runtime with ``p`` threads.

    ``p`` plays the role of the paper's 96 cores: it controls how many
    thread-local structures exist and how parallel loops are chunked.
    """

    def __init__(self, p: int = 8, *, chunk_size: int = 512) -> None:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.p = p
        self.chunk_size = chunk_size
        self.clear_ledger()

    # ------------------------------------------------------------------ #
    # scheduling: the one chunk walk
    # ------------------------------------------------------------------ #
    def chunk_bounds(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(bounds, tids)`` of a loop over ``count`` positions, in issue
        order: ``bounds[i]`` is the ``[lo, hi)`` of chunk ``i`` (positions
        ``i * chunk_size`` on) and ``tids[i]`` its virtual thread, ``i % p``.
        The loop reports the chunks back through :meth:`record_chunks`."""
        cs = self.chunk_size
        order = np.arange(-(-count // cs), dtype=np.int64)
        lo = order * cs
        return np.stack([lo, np.minimum(lo + cs, count)], axis=1), order % self.p

    def record_chunks(
        self,
        phase: str,
        tids: np.ndarray,
        items: np.ndarray,
        seconds: np.ndarray,
        *,
        work: float = 0.0,
        bytes_moved: float = 0.0,
        atomic_ops: int = 0,
    ) -> None:
        """Report one :meth:`chunk_bounds` walk of ``phase``: each chunk's
        virtual thread, item count and seconds go to the ``(phase, tid)``
        thread slices, and the walk's summed ``work`` / ``bytes_moved`` /
        ``atomic_ops`` to the phase's :class:`WorkStats` (a walk that books
        none of them adds no entry there)."""
        if work or bytes_moved or atomic_ops:
            self.record(phase, work=work, bytes_moved=bytes_moved, atomic_ops=atomic_ops)
        walk = [np.bincount(tids, weights=w, minlength=self.p) for w in (None, items, seconds)]
        self._slices[phase] = self._slices.get(phase, 0) + np.array(walk)

    # ------------------------------------------------------------------ #
    # cost accounting
    # ------------------------------------------------------------------ #
    def record(
        self,
        name: str,
        *,
        work: float = 0.0,
        span: float | None = None,
        bytes_moved: float = 0.0,
        atomic_ops: int = 0,
        max_parallelism: float | None = None,
    ) -> None:
        """Record cost for phase ``name``.

        ``span`` adds irreducible critical-path work on top of the
        ``work / p`` division; ``max_parallelism`` caps usable threads
        (``1``: the phase runs on one thread regardless of ``p``).
        """
        s = self._stats.setdefault(name, WorkStats(name))
        if span is not None:
            s.span += span
        s.work += work
        s.bytes_moved += bytes_moved
        s.atomic_ops += atomic_ops
        if max_parallelism is not None:
            s.max_parallelism = min(s.max_parallelism, max_parallelism)

    def clear_ledger(self) -> None:
        """Start the ledger afresh: every run reads only its own costs."""
        self._stats: dict[str, WorkStats] = {}
        self._slices: dict[str, np.ndarray] = {}  # phase -> chunks/items/seconds by tid

    def all_stats(self) -> dict[str, WorkStats]:
        """Copies of the per-phase :class:`WorkStats`: later records leave
        them as they are."""
        return {name: replace(s) for name, s in self._stats.items()}

    def thread_slices(self) -> list[dict]:
        """The ``(phase, tid)`` thread slices of every chunk walk, sorted by
        ``(phase, tid)``: one ``{"phase", "tid", "chunks", "items",
        "seconds"}`` row for each virtual thread that ran a chunk."""
        return [
            {"phase": phase, "tid": tid, "chunks": int(chunks[tid]),
             "items": int(items[tid]), "seconds": float(seconds[tid])}
            for phase, (chunks, items, seconds) in sorted(self._slices.items())
            for tid in np.flatnonzero(chunks).tolist()
        ]  # fmt: skip
