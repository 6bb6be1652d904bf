"""Cluster-wide observer: one span tree + ledger view per simulated rank.

The shared-memory tracer (:mod:`repro.obs.tracer`) couples one span tree to
one :class:`~repro.memory.tracker.MemoryTracker`.  A distributed run has
``size`` trackers — one per rank, living on the :class:`SimComm` — so the
:class:`ClusterObserver` holds one :class:`SpanTracer` per rank, all sharing
a single epoch/clock so their tracks align in the merged trace.  Phases of
the distributed driver are *mirrored*: entering ``observer.phase(name)``
opens the same tracker-coupled phase span on every rank, which preserves the
PR 3 invariant per rank — a phase span's ``mem_peak`` is read back from that
rank's ledger and equals ``tracker.phase_peak(path)`` byte-for-byte.

The observer also registers itself on the communicator: every collective
reports its kind, exact raw payload bytes and message count through
:meth:`on_collective`, which tags the event with the phase/level open at
that moment and prices the same payload under the Section III varint codec
(delta + zigzag + varint per integer stream).  That yields per-phase,
per-collective raw-vs-compressed byte volumes without the communicator ever
importing the obs layer.

Like the shared-memory tracer, the observer never touches RNG streams or
algorithm state: traced and untraced runs are bit-identical (tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.varint import stream_len, zigzag_encode
from repro.obs.tracer import _NULL_CONTEXT, SpanTracer, normalize_phase


@dataclass
class CommEvent:
    """One collective, attributed to the phase that issued it."""

    kind: str  # alltoallv | allgather | allreduce | bcast | barrier
    phase: str  # "/"-joined observer phase path at call time
    name: str  # innermost phase/span name ("" outside any span)
    level: int | None  # innermost hierarchy level on the stack, if any
    t: float  # seconds from the observer epoch
    raw_bytes: int  # exact payload bytes (machine-word wire format)
    varint_bytes: int  # same payload under delta+zigzag+varint coding
    messages: int
    superstep: int


def varint_payload_nbytes(obj) -> int:
    """Price a collective payload under the Section III integer codec.

    Integer arrays are delta-coded (first value absolute), zigzag-folded
    and varint-encoded — the same scheme :mod:`repro.graph.varint` uses for
    adjacency streams.  2-D arrays are priced column-wise (each column is
    one stream, e.g. the ``(src, dst, weight)`` buckets of the distributed
    contraction).  Float buffers and raw bytes are incompressible here and
    priced at their true size.
    """
    if isinstance(obj, np.ndarray):
        if obj.size == 0:
            return 0
        if obj.dtype.kind not in "iub":
            return obj.nbytes
        if obj.ndim == 2:
            return sum(
                varint_payload_nbytes(np.ascontiguousarray(obj[:, j]))
                for j in range(obj.shape[1])
            )
        vals = obj.astype(np.int64, copy=False).ravel()
        deltas = np.empty_like(vals)
        deltas[0] = vals[0]
        np.subtract(vals[1:], vals[:-1], out=deltas[1:])
        return int(stream_len(zigzag_encode(deltas)))
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, np.bool_)):
        return 1
    if isinstance(obj, (int, np.integer)):
        return int(stream_len(zigzag_encode(np.array([int(obj)]))))
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple)):
        return sum(varint_payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(
            varint_payload_nbytes(k) + varint_payload_nbytes(v)
            for k, v in obj.items()
        )
    if obj is None:
        return 0
    return 8


class ClusterObserver:
    """Per-rank span trees + cluster-wide communication accounting."""

    enabled = True

    def __init__(self, comm, *, clock=time.perf_counter) -> None:
        self.comm = comm
        self._clock = clock
        epoch = clock()
        self.epoch = epoch
        self.rank_tracers: list[SpanTracer] = []
        for tracker in comm.trackers:
            tracer = SpanTracer(tracker, clock=clock)
            tracer.epoch = epoch  # shared epoch: tracks align in the trace
            self.rank_tracers.append(tracer)
        self.comm_events: list[CommEvent] = []
        self.counters: dict[str, float] = {}
        self.levels: list[dict] = []  # per-level graph footprints
        self._phase_stack: list[tuple[str, int | None]] = []
        comm.observer = self

    @property
    def size(self) -> int:
        return self.comm.size

    # ------------------------------------------------------------------ #
    # mirrored spans
    # ------------------------------------------------------------------ #
    def phase(self, name: str, *, level: int | None = None) -> "_ClusterSpan":
        """A ledger-coupled phase opened on every rank simultaneously."""
        return _ClusterSpan(self, name, level, coupled=True)

    def span(self, name: str, *, level: int | None = None):
        """A pure timing/counter (kernel) span mirrored on every rank."""
        return _ClusterSpan(self, name, level, coupled=False)

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    def add(self, name: str, value: float = 1) -> None:
        """Bump a cluster-global counter (also shown on the rank-0 track)."""
        self.counters[name] = self.counters.get(name, 0) + value
        self.rank_tracers[0].add(name, value)

    def rank_add(self, rank: int, name: str, value: float = 1) -> None:
        """Bump a counter on one specific rank's current span."""
        self.rank_tracers[rank].add(name, value)

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

    # ------------------------------------------------------------------ #
    # communicator hook
    # ------------------------------------------------------------------ #
    def on_collective(
        self,
        kind: str,
        nbytes: int,
        nmsgs: int,
        payload=None,
        replication: int = 1,
    ) -> None:
        varint = (
            0
            if payload is None
            else varint_payload_nbytes(payload) * int(replication)
        )
        name, level = "", None
        if self._phase_stack:
            name = self._phase_stack[-1][0]
            for _, lv in reversed(self._phase_stack):
                if lv is not None:
                    level = lv
                    break
        self.comm_events.append(
            CommEvent(
                kind=kind,
                phase="/".join(n for n, _ in self._phase_stack),
                name=name,
                level=level,
                t=self._clock() - self.epoch,
                raw_bytes=int(nbytes),
                varint_bytes=int(varint),
                messages=int(nmsgs),
                superstep=self.comm.stats.supersteps,
            )
        )
        self.counters["comm.raw_bytes"] = (
            self.counters.get("comm.raw_bytes", 0) + int(nbytes)
        )
        self.counters["comm.varint_bytes"] = (
            self.counters.get("comm.varint_bytes", 0) + int(varint)
        )
        self.counters["comm.messages"] = (
            self.counters.get("comm.messages", 0) + int(nmsgs)
        )

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def comm_totals(self) -> dict[str, dict[str, int]]:
        """Per-collective-kind totals over the whole run."""
        out: dict[str, dict[str, int]] = {}
        for ev in self.comm_events:
            e = out.setdefault(
                ev.kind,
                {"calls": 0, "messages": 0, "raw_bytes": 0, "varint_bytes": 0},
            )
            e["calls"] += 1
            e["messages"] += ev.messages
            e["raw_bytes"] += ev.raw_bytes
            e["varint_bytes"] += ev.varint_bytes
        return out

    def comm_by_level(self) -> dict[int | None, dict[str, int]]:
        """Raw/compressed traffic grouped by hierarchy level."""
        out: dict[int | None, dict[str, int]] = {}
        for ev in self.comm_events:
            e = out.setdefault(
                ev.level, {"raw_bytes": 0, "varint_bytes": 0, "messages": 0}
            )
            e["raw_bytes"] += ev.raw_bytes
            e["varint_bytes"] += ev.varint_bytes
            e["messages"] += ev.messages
        return out

    def comm_by_phase(self) -> dict[str, dict[str, int]]:
        """Traffic grouped by the normalized innermost phase name."""
        out: dict[str, dict[str, int]] = {}
        for ev in self.comm_events:
            key = normalize_phase(ev.name) if ev.name else "(untagged)"
            e = out.setdefault(
                key, {"raw_bytes": 0, "varint_bytes": 0, "messages": 0}
            )
            e["raw_bytes"] += ev.raw_bytes
            e["varint_bytes"] += ev.varint_bytes
            e["messages"] += ev.messages
        return out

    def finish(self) -> None:
        for tracer in self.rank_tracers:
            tracer.finish()


class _ClusterSpan:
    """Context manager mirroring one span across every rank tracer."""

    __slots__ = ("_obs", "_name", "_level", "_coupled", "_ctxs")

    def __init__(self, obs, name, level, *, coupled) -> None:
        self._obs = obs
        self._name = name
        self._level = level
        self._coupled = coupled

    def __enter__(self) -> "_ClusterSpan":
        self._ctxs = []
        for tracer in self._obs.rank_tracers:
            ctx = (
                tracer.phase(self._name, level=self._level)
                if self._coupled
                else tracer.span(self._name, level=self._level)
            )
            ctx.__enter__()
            self._ctxs.append(ctx)
        self._obs._phase_stack.append((self._name, self._level))
        return self

    def __exit__(self, *exc: object) -> None:
        self._obs._phase_stack.pop()
        for ctx in reversed(self._ctxs):
            ctx.__exit__(*exc)


class NullClusterObserver:
    """Disabled fast path: every operation is a constant-time no-op."""

    enabled = False
    __slots__ = ()

    def phase(self, name: str, *, level=None):
        return _NULL_CONTEXT

    def span(self, name: str, *, level=None):
        return _NULL_CONTEXT

    def add(self, name: str, value: float = 1) -> None:
        pass

    def rank_add(self, rank: int, name: str, value: float = 1) -> None:
        pass

    def note_level(self, level: int, **kwargs) -> None:
        pass

    def on_collective(self, *args, **kwargs) -> None:
        pass

    def finish(self) -> None:
        pass


#: Shared singleton; the distributed driver threads it when obs is off.
NULL_CLUSTER_OBSERVER = NullClusterObserver()
