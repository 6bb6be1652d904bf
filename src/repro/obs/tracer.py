"""Low-overhead span tracer: the telemetry spine of the partitioner.

A *span* is a named, nested interval of work (a phase, a hierarchy level, a
refinement pass).  Spans carry:

* the algorithm phase and multilevel hierarchy ``level`` they belong to,
* the virtual thread (``tid``) that opened them (0: the driver); the
  chunks of a parallel loop are no spans but the runtime's per-``(phase,
  tid)`` thread slices
  (:meth:`~repro.parallel.runtime.ParallelRuntime.record_chunks`),
* named counters (edges decoded, LP bumps, FM moves, gain-table width mix),
* memory snapshots from the :class:`~repro.memory.tracker.MemoryTracker`
  taken at every span boundary -- enter bytes, exit bytes, and the in-span
  high-water mark -- which the metrics registry turns into the per-phase
  memory waterfall of the paper's Figures 1 and 2.

Two span flavours exist:

* :meth:`SpanTracer.phase` couples the span to a ``tracker.phase`` scope, so
  the span's peak is *exactly* the ledger's per-phase peak (the numbers in
  :mod:`repro.memory.report` and the trace agree byte-for-byte);
* :meth:`SpanTracer.span` is a pure timing/counter span (kernel rounds,
  passes) whose memory fields come from boundary samples only.

When observability is disabled the partitioner threads a shared
:class:`NullTracer` through instead: every call is a constant-time no-op and
``phase`` degenerates to the plain ``tracker.phase`` context manager the
driver has always used, so the disabled path is bit-identical to a build
without the tracer (see ``tests/test_obs_differential.py``).

The tracer deliberately never touches the run's RNG streams, the schedule,
or any shared algorithm state: tracing must not perturb the computation.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

#: The closed phase vocabulary.  Every ``tracker.phase`` / tracer span name
#: in the partitioner must normalize (via :func:`normalize_phase`) to one of
#: these, so attribution reports, the run database and the ``repro lint``
#: phase-discipline pass all agree on what a phase is called.  Extend this
#: set when introducing a genuinely new pipeline stage -- never spell an
#: existing stage a second way.
KNOWN_PHASES = frozenset(
    {
        "partition",  # root span
        "compression",
        "coarsening",
        "clustering",
        "clustering-2p",
        "clustering-classic",
        "contraction",
        "contraction-aggregate",  # bulk-kernel sub-phase of contraction
        "gain-table-build",  # bulk-kernel sub-phase of FM refinement
        "initial-partitioning",
        "refinement",
        "lp-refinement",
        "fm-pass",
        # distributed driver (repro.dist, DESIGN.md §12); mirrored onto
        # every rank track by the ClusterObserver
        "dist-partition",  # distributed root span
        "dist-distribute",
        "dist-coarsening",
        "dist-lp",
        "dist-contract",
        "dist-initial",
        "dist-refinement",
        "dist-refine",  # per-round refinement kernel
        "dist-rebalance",
        "ghost-exchange",
    }
)

_LEVEL_RE = re.compile(r"(-level\d+|-round\d+|-rank\d+)$")


def normalize_phase(name: str) -> str:
    """Strip the per-level / per-round / per-rank suffix:
    ``refinement-level3`` -> ``refinement``, ``clustering-2p-round1`` ->
    ``clustering-2p``, ``dist-lp-round2`` -> ``dist-lp``,
    ``shard-load-rank3`` -> ``shard-load``."""
    return _LEVEL_RE.sub("", name)


@dataclass
class Span:
    """One recorded interval.  Times are seconds from the tracer's epoch."""

    sid: int
    parent: int  # parent span id, -1 for roots
    name: str
    category: str = "span"  # "phase" for tracker-coupled spans
    level: int | None = None  # multilevel hierarchy level, if applicable
    tid: int = 0  # owning virtual thread (0 = driver)
    t_start: float = 0.0
    t_end: float = 0.0
    mem_enter: int = 0  # ledger bytes at entry
    mem_exit: int = 0  # ledger bytes at exit
    mem_peak: int = 0  # high-water mark while the span was open
    tracker_path: str | None = None  # coupled MemoryTracker phase path
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class SpanTracer:
    """Records a tree of spans plus global counters."""

    enabled = True

    def __init__(self, tracker=None, *, clock=time.perf_counter) -> None:
        self.tracker = tracker
        self._clock = clock
        self.epoch = clock()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #
    def _open(
        self,
        name: str,
        *,
        category: str = "span",
        level: int | None = None,
        tid: int = 0,
        tracker_path: str | None = None,
    ) -> int:
        mem = self.tracker.current_bytes if self.tracker is not None else 0
        sid = len(self.spans)
        span = Span(
            sid=sid,
            parent=self._stack[-1] if self._stack else -1,
            name=name,
            category=category,
            level=level,
            tid=tid,
            t_start=self._clock() - self.epoch,
            mem_enter=mem,
            mem_peak=mem,
            tracker_path=tracker_path,
        )
        self.spans.append(span)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> Span:
        assert self._stack and self._stack[-1] == sid, "span close out of order"
        self._stack.pop()
        span = self.spans[sid]
        span.t_end = self._clock() - self.epoch
        mem = self.tracker.current_bytes if self.tracker is not None else 0
        span.mem_exit = mem
        span.mem_peak = max(span.mem_peak, span.mem_enter, mem)
        # a child's high-water mark is also the parent's
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.mem_peak = max(parent.mem_peak, span.mem_peak)
        return span

    def span(
        self, name: str, *, level: int | None = None, tid: int = 0
    ) -> "_SpanContext":
        """A pure timing/counter span (no ledger phase is entered)."""
        return _SpanContext(self, name, level=level, tid=tid)

    def phase(
        self, name: str, tracker=None, *, level: int | None = None
    ) -> "_PhaseSpanContext":
        """A span coupled to a ``MemoryTracker`` phase of the same name.

        Entering opens both the ledger phase and the span; on exit the
        span's ``mem_peak`` is read back from the ledger's per-phase peak,
        so trace and memory report agree exactly.
        """
        return _PhaseSpanContext(self, tracker or self.tracker, name, level)

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    def add(self, name: str, value: float = 1) -> None:
        """Bump counter ``name`` on the current span and globally."""
        self.counters[name] = self.counters.get(name, 0) + value
        if self._stack:
            c = self.spans[self._stack[-1]].counters
            c[name] = c.get(name, 0) + value

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def current_span(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent == -1]

    def children(self, sid: int) -> list[Span]:
        return [s for s in self.spans if s.parent == sid]

    def span_tree(self) -> list[dict]:
        """Nested ``{"name": ..., "children": [...]}`` structure (no timings).

        This is the shape golden-tested against a checked-in reference: it
        captures names and nesting only, so it is stable across machines.
        """
        kids: dict[int, list[int]] = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s.sid)

        def build(sid: int) -> dict:
            s = self.spans[sid]
            node: dict = {"name": s.name}
            ch = [build(c) for c in kids.get(sid, [])]
            if ch:
                node["children"] = ch
            return node

        return [build(s.sid) for s in self.roots()]

    def finish(self) -> None:
        """Close any spans left open (defensive; normal runs close all)."""
        while self._stack:
            self._close(self._stack[-1])


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_level", "_tid", "_sid")

    def __init__(self, tracer: SpanTracer, name: str, *, level, tid) -> None:
        self._tracer = tracer
        self._name = name
        self._level = level
        self._tid = tid

    def __enter__(self) -> Span:
        self._sid = self._tracer._open(
            self._name, level=self._level, tid=self._tid
        )
        return self._tracer.spans[self._sid]

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._sid)


class _PhaseSpanContext:
    __slots__ = ("_tracer", "_tracker", "_name", "_level", "_sid", "_pc", "_path")

    def __init__(self, tracer: SpanTracer, tracker, name: str, level) -> None:
        self._tracer = tracer
        self._tracker = tracker
        self._name = name
        self._level = level

    def __enter__(self) -> Span:
        self._pc = None
        self._path = None
        if self._tracker is not None:
            self._pc = self._tracker.phase(self._name)
            self._pc.__enter__()
            self._path = self._tracker.current_phase
        self._sid = self._tracer._open(
            self._name,
            category="phase",
            level=self._level,
            tracker_path=self._path,
        )
        return self._tracer.spans[self._sid]

    def __exit__(self, *exc: object) -> None:
        span = self._tracer._close(self._sid)
        if self._pc is not None:
            span.mem_peak = max(
                span.mem_peak, self._tracker.phase_peak(self._path)
            )
            self._pc.__exit__(*exc)


class _NullContext:
    """Shared reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled fast path: every operation is a constant-time no-op.

    ``phase`` returns the plain ``tracker.phase`` context manager, so call
    sites written as ``with ctx.phase(name):`` behave bit-identically to the
    pre-observability driver when tracing is off.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, *, level=None, tid=0):
        return _NULL_CONTEXT

    def phase(self, name: str, tracker=None, *, level=None):
        if tracker is not None:
            return tracker.phase(name)
        return _NULL_CONTEXT

    def add(self, name: str, value: float = 1) -> None:
        pass

    def finish(self) -> None:
        pass


#: Shared singleton; components may hold it without allocation cost.
NULL_TRACER = NullTracer()
