"""Observability subsystem: span tracing, metrics registry, trace export.

The partitioner threads a :class:`SpanTracer` (or the no-op
:data:`NULL_TRACER`) through every layer the paper measures; a finished run
collapses into a :class:`MetricsRegistry` (``--metrics-json``) and a
Chrome-trace file (``--trace-out``) loadable in ``chrome://tracing`` or
Perfetto.  See DESIGN.md §7 for the span model and counter taxonomy.

The :mod:`repro.obs.regress` subpackage builds on these snapshots: a
persisted run database, exact baseline comparison, and per-phase
attribution (DESIGN.md §8, ``python -m repro bench``).
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    render_level_summary,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanTracer",
    "chrome_trace",
    "chrome_trace_events",
    "render_level_summary",
    "write_chrome_trace",
]
