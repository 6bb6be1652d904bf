"""Unit tests for the span tracer core (obs layer)."""

from __future__ import annotations

import numpy as np

from repro.memory.tracker import MemoryTracker
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanTracer


class FakeClock:
    """Deterministic clock: advances 1.0 per reading."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


def test_spans_nest_and_record_parentage():
    tr = SpanTracer(clock=FakeClock())
    with tr.span("outer"):
        with tr.span("inner-a"):
            pass
        with tr.span("inner-b"):
            pass
    assert [s.name for s in tr.spans] == ["outer", "inner-a", "inner-b"]
    outer, a, b = tr.spans
    assert outer.parent == -1
    assert a.parent == outer.sid and b.parent == outer.sid
    assert a.t_start >= outer.t_start
    assert outer.t_end >= b.t_end
    assert outer.duration > 0


def test_counters_accumulate_globally_and_per_span():
    tr = SpanTracer()
    with tr.span("x"):
        tr.add("edges", 10)
        with tr.span("y"):
            tr.add("edges", 5)
    assert tr.counters["edges"] == 15
    assert tr.spans[0].counters["edges"] == 10  # own increments only
    assert tr.spans[1].counters["edges"] == 5


def test_phase_span_couples_to_tracker_peak():
    tracker = MemoryTracker()
    tr = SpanTracer(tracker)
    with tr.phase("work"):
        aid = tracker.alloc("buf", 1000, "scratch")
        tracker.free(aid)
    span = tr.spans[0]
    assert span.category == "phase"
    assert span.tracker_path == "work"
    # the span's peak is the ledger's per-phase peak, byte-for-byte
    assert span.mem_peak == tracker.phase_peak("work") == 1000
    assert span.mem_exit == 0


def test_child_peak_propagates_to_parent():
    tracker = MemoryTracker()
    tr = SpanTracer(tracker)
    with tr.phase("outer"):
        with tr.phase("inner"):
            aid = tracker.alloc("big", 5000, "scratch")
            tracker.free(aid)
    outer, inner = tr.spans
    assert inner.mem_peak == 5000
    assert outer.mem_peak >= 5000


def test_span_tree_shape():
    tr = SpanTracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
    with tr.span("c"):
        pass
    assert tr.span_tree() == [
        {"name": "a", "children": [{"name": "b"}]},
        {"name": "c"},
    ]


def test_finish_closes_leaked_spans():
    tr = SpanTracer()
    ctx = tr.span("leaked")
    ctx.__enter__()
    tr.finish()
    assert tr.spans[0].t_end >= tr.spans[0].t_start
    assert tr.current_span is None


def test_null_tracer_is_inert_and_shared():
    nt = NULL_TRACER
    assert isinstance(nt, NullTracer)
    assert not nt.enabled
    with nt.span("whatever") as s:
        assert s is None
    nt.add("anything", 42)
    nt.finish()  # all no-ops, nothing to assert beyond "did not raise"


def test_null_tracer_phase_degenerates_to_tracker_phase():
    tracker = MemoryTracker()
    with NULL_TRACER.phase("work", tracker):
        tracker.alloc("buf", 100, "scratch")
    # the ledger saw the phase exactly as if ctx.phase had never existed
    assert tracker.phase_peak("work") == 100


def test_tracer_never_touches_numpy_rng_state():
    rng = np.random.default_rng(1234)
    before = rng.bit_generator.state
    tr = SpanTracer(MemoryTracker())
    with tr.phase("p"):
        with tr.span("s"):
            tr.add("c", 1)
    tr.finish()
    assert rng.bit_generator.state == before
