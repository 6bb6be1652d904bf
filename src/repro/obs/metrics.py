"""Metrics registry: one structured artifact per partitioning run.

Collapses the span trace and the memory ledger into a JSON-serializable
document with four sections:

* ``counters`` -- global counter totals (the counter taxonomy of
  DESIGN.md §7: ``decode.*``, ``lp.*``, ``contraction.*``, ``fm.*`` ...),
* ``phases`` -- one record per span: wall time, hierarchy level, memory at
  entry/exit and the in-span high-water mark, plus the span's own counters,
* ``waterfall`` -- the per-phase peak-memory waterfall (Figure 2): for every
  ledger-coupled span, the exact ``MemoryTracker`` phase peak and the
  category breakdown *at the peak sample* (breakdown values sum to the
  peak, and entries equal the tracker's ``phases()`` peaks byte-for-byte),
* ``threads`` -- per-(phase, tid) chunk/item/time attribution: the
  runtime's thread slices
  (:meth:`~repro.parallel.runtime.ParallelRuntime.thread_slices`), which
  every chunk walk feeds through ``record_chunks``, traced or not.

Benchmarks consume this registry instead of re-measuring: a
``BENCH_*.json`` produced from ``--metrics-json`` is regression-comparable
against any later run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import SpanTracer

SCHEMA_VERSION = 1


@dataclass
class MetricsRegistry:
    """Snapshot of one run's telemetry, ready for JSON export."""

    counters: dict[str, float] = field(default_factory=dict)
    phases: list[dict] = field(default_factory=list)
    waterfall: list[dict] = field(default_factory=list)
    threads: list[dict] = field(default_factory=list)
    peak_bytes: int = 0
    peak_breakdown: dict[str, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_run(
        cls,
        tracer: SpanTracer,
        tracker=None,
        *,
        threads: list[dict] | None = None,
        meta: dict | None = None,
    ) -> "MetricsRegistry":
        """Assemble the registry from a finished tracer (+ its ledger) and
        the run's thread slices (``runtime.thread_slices()``)."""
        tracker = tracker if tracker is not None else tracer.tracker
        reg = cls(meta=dict(meta or {}), threads=list(threads or ()))
        reg.counters = {k: _num(v) for k, v in sorted(tracer.counters.items())}

        for s in tracer.spans:
            rec = {
                "name": s.name,
                "parent": s.parent,
                "category": s.category,
                "level": s.level,
                "tid": s.tid,
                "wall_seconds": s.duration,
                "mem_enter_bytes": int(s.mem_enter),
                "mem_exit_bytes": int(s.mem_exit),
                "mem_peak_bytes": int(s.mem_peak),
            }
            if s.tracker_path is not None:
                rec["tracker_path"] = s.tracker_path
            if s.counters:
                rec["counters"] = {
                    k: _num(v) for k, v in sorted(s.counters.items())
                }
            reg.phases.append(rec)

        if tracker is not None:
            reg.peak_bytes = int(tracker.peak_bytes)
            reg.peak_breakdown = {
                k: int(v) for k, v in sorted(tracker.peak_breakdown.items())
            }
            ledger_phases = tracker.phases()
            seen: set[str] = set()
            for s in tracer.spans:
                path = s.tracker_path
                if path is None or path in seen or path not in ledger_phases:
                    continue
                seen.add(path)
                stats = ledger_phases[path]
                reg.waterfall.append(
                    {
                        "phase": path,
                        "name": s.name,
                        "level": s.level,
                        "peak_bytes": int(stats.peak_bytes),
                        "breakdown": {
                            k: int(v)
                            for k, v in sorted(stats.peak_breakdown.items())
                        },
                    }
                )
        return reg

    # ------------------------------------------------------------------ #
    @classmethod
    def from_counters(
        cls, counters: dict, *, meta: dict | None = None
    ) -> "MetricsRegistry":
        """Registry holding bare counters, no span tree.

        Long-lived processes (the ``repro serve`` front end) accumulate
        gauges across many partitioner runs; this wraps such a counter
        snapshot in the same schema :meth:`from_run` produces, so every
        consumer of a ``BENCH_*.json`` / run-DB ``obs`` section reads
        service telemetry without a second code path.
        """
        return cls(
            counters={k: _num(v) for k, v in sorted(counters.items())},
            meta=dict(meta or {}),
        )

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "meta": self.meta,
            "counters": self.counters,
            "peak_bytes": self.peak_bytes,
            "peak_breakdown": self.peak_breakdown,
            "phases": self.phases,
            "waterfall": self.waterfall,
            "threads": self.threads,
        }


def _num(v: float) -> float | int:
    """Store integral counters as ints so JSON diffs stay clean."""
    return int(v) if float(v).is_integer() else float(v)
