"""Cluster-wide observer: one ordinary span tracer per simulated rank.

Each rank's :class:`SpanTracer` is coupled to that rank's ledger on the
:class:`SimComm`, and all share one epoch so their tracks align.  The
observer does what N tracers cannot do alone: ``observer.phase(name)``
opens the same tracker-coupled span on every rank at once, so per rank a
phase span's ``mem_peak`` equals ``tracker.phase_peak(path)``.

Traffic is not counted here: the observer attaches rank 0's tracer to the
communicator, whose ledger then tags rank 0's open span with each
collective's bytes.  Cluster counters live on rank 0's tracer too.  The
observer never touches RNG streams or algorithm state: traced and untraced
runs are bit-identical (tested).
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager

from repro.obs.tracer import NullTracer, SpanTracer


class ClusterObserver:
    """Per-rank span trees with mirrored driver spans."""

    enabled = True

    def __init__(self, comm, *, clock=time.perf_counter) -> None:
        self.comm = comm
        epoch = clock()
        self.rank_tracers: list[SpanTracer] = []
        for tracker in comm.trackers:
            tracer = SpanTracer(tracker, clock=clock)
            tracer.epoch = epoch  # shared epoch: tracks align in the trace
            self.rank_tracers.append(tracer)
        self.levels: list[dict] = []  # per-level graph footprints
        comm.tracer = self.rank_tracers[0]

    # ------------------------------------------------------------------ #
    # mirrored spans
    # ------------------------------------------------------------------ #
    def phase(self, name: str, *, level: int | None = None):
        """A ledger-coupled phase opened on every rank simultaneously."""
        return self._mirrored(name, level, coupled=True)

    def span(self, name: str, *, level: int | None = None):
        """A pure timing/counter (kernel) span mirrored on every rank."""
        return self._mirrored(name, level, coupled=False)

    @contextmanager
    def _mirrored(self, name, level, *, coupled):
        with ExitStack() as stack:
            for tracer in self.rank_tracers:
                open_span = tracer.phase if coupled else tracer.span
                stack.enter_context(open_span(name, level=level))
            yield

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    def add(self, name: str, value: float = 1) -> None:
        """Bump a cluster counter (kept on rank 0's tracer)."""
        self.rank_tracers[0].add(name, value)

    def rank_add(self, rank: int, name: str, value: float = 1) -> None:
        """Bump a counter on one rank's open span only, not a cluster one."""
        span = self.rank_tracers[rank].current_span
        if span is not None:
            span.counters[name] = span.counters.get(name, 0) + value

    # ------------------------------------------------------------------ #
    # structural notes from the driver
    # ------------------------------------------------------------------ #
    def note_level(
        self, level: int, *, n: int, m: int, shard_bytes: int, ghost_bytes: int
    ) -> None:
        """Record one hierarchy level's distributed footprint (for the
        comm/compute ratio and ghost fraction of the memory-ratio report)."""
        self.levels.append(
            {
                "level": int(level),
                "n": int(n),
                "m": int(m),
                "shard_bytes": int(shard_bytes),
                "ghost_bytes": int(ghost_bytes),
            }
        )

    def finish(self) -> None:
        """Close the rank tracers and detach rank 0's from the communicator."""
        for tracer in self.rank_tracers:
            tracer.finish()
        self.comm.tracer = None


class NullClusterObserver(NullTracer):
    """Disabled fast path: the shared-memory null tracer plus the two
    cluster-only calls, every operation a constant-time no-op."""

    __slots__ = ()

    def rank_add(self, rank: int, name: str, value: float = 1) -> None:
        pass

    def note_level(self, level: int, **kwargs) -> None:
        pass


#: Shared singleton; the distributed driver threads it when obs is off.
NULL_CLUSTER_OBSERVER = NullClusterObserver()
