"""Workload traces: deterministic request/delta sequences + a replayer.

A trace is a list of :class:`TraceEvent`; :func:`make_trace` generates
the canonical serving workload the benchmark and the CI smoke job
replay — a cold *concurrent* burst (one full run, the rest batched onto
its in-flight future), repeats that hit the cache, then
``delta_batches`` rounds of (mutate, re-request) which exercise the
warm-start path.

:func:`replay` drives a :class:`~repro.serve.service.ServiceHandle`
through the trace and folds the service's own metrics snapshot plus
per-mode latency statistics into a flat report dict — the exact ``run``
section of a ``service``-kind run-DB record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.deltas import GraphDelta, random_delta


@dataclass(frozen=True)
class TraceEvent:
    """One step of a replayed workload."""

    kind: str  # "request" | "delta"
    graph: str
    k: int = 0
    concurrency: int = 1  # simultaneous clients for a request event
    delta: GraphDelta | None = None


@dataclass
class TraceReport:
    """What one replay measured (all values JSON-safe scalars)."""

    events: int = 0
    requests: int = 0
    wall_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)
    # per-mode compute times (seconds of the runs that produced results)
    full_walls: list = field(default_factory=list)
    warm_walls: list = field(default_factory=list)
    cuts: dict = field(default_factory=dict)  # mode -> last cut seen

    def to_run_dict(self) -> dict:
        """Flatten into run-DB ``run`` section metrics."""
        m = dict(self.metrics)
        full = float(np.mean(self.full_walls)) if self.full_walls else 0.0
        warm = float(np.mean(self.warm_walls)) if self.warm_walls else 0.0
        out = {
            "events": self.events,
            "requests": self.requests,
            "wall_seconds": self.wall_seconds,
            "requests_per_second": (
                self.requests / self.wall_seconds if self.wall_seconds else 0.0
            ),
            "p50_seconds": m.get("serve.p50_seconds", 0.0),
            "p99_seconds": m.get("serve.p99_seconds", 0.0),
            "cache_hit_rate": m.get("serve.cache_hit_rate", 0.0),
            "cache_hits": m.get("serve.cache_hits", 0),
            "batched": m.get("serve.batched", 0),
            "full_runs": m.get("serve.full_runs", 0),
            "warm_runs": m.get("serve.warm_runs", 0),
            "fallback_drift": m.get("serve.fallback_drift", 0),
            "evictions": m.get("serve.evictions", 0),
            "cache_resident_bytes": m.get("serve.cache_resident_bytes", 0),
            "full_wall_seconds": full,
            "warm_wall_seconds": warm,
            # lower-is-better gate metric: warm compute time relative to a
            # full repartition (the >= 3x speedup claim is this < 1/3)
            "warm_over_full": (warm / full) if full > 0 else 0.0,
        }
        return out


def make_trace(
    graph_name: str,
    graph,
    k: int,
    *,
    seed: int = 0,
    repeat_burst: int = 4,
    delta_batches: int = 4,
    delta_edges: int = 0,
    concurrency: int = 4,
) -> list[TraceEvent]:
    """The canonical serving workload (see module docstring).

    ``delta_edges`` defaults to ~0.5% of the graph's undirected edges per
    batch — small enough that warm starts stay well under any sane drift
    threshold, large enough that the partition genuinely shifts.
    """
    rng = np.random.default_rng(seed)
    if delta_edges <= 0:
        delta_edges = max(4, graph.m // 200)
    # the cold request arrives as a concurrent burst: one client triggers
    # the full run, the rest coalesce onto its in-flight run (the
    # ``serve.batched`` counter is live from event one)
    events: list[TraceEvent] = [
        TraceEvent("request", graph_name, k=k, concurrency=concurrency),
    ]
    for _ in range(max(0, repeat_burst)):
        events.append(TraceEvent("request", graph_name, k=k, concurrency=1))
    for _ in range(delta_batches):
        delta = random_delta(
            graph, rng, n_add=delta_edges, n_remove=delta_edges
        )
        events.append(TraceEvent("delta", graph_name, delta=delta))
        events.append(TraceEvent("request", graph_name, k=k, concurrency=1))
        events.append(TraceEvent("request", graph_name, k=k, concurrency=1))
    return events


def replay(handle, trace: list[TraceEvent]) -> TraceReport:
    """Drive a :class:`ServiceHandle` through a trace, measuring as we go.

    Mutating events keep the trace honest: each delta is applied to the
    service's *current* graph (the trace's deltas were generated against
    the initial graph, which is fine — unresolvable removals are no-ops
    by delta semantics).
    """
    report = TraceReport()
    t0 = time.perf_counter()
    for ev in trace:
        report.events += 1
        if ev.kind == "delta":
            handle.apply_delta(ev.graph, ev.delta)
            continue
        if ev.kind != "request":
            raise ValueError(f"unknown trace event kind {ev.kind!r}")
        if ev.concurrency <= 1:
            results = [handle.partition(ev.graph, ev.k)]
        else:
            results = handle.partition_many(
                [(ev.graph, ev.k)] * ev.concurrency
            )
        report.requests += len(results)
        for r in results:
            report.cuts[r.mode] = int(r.cut)
            if r.mode == "full":
                report.full_walls.append(float(r.wall_seconds))
            elif r.mode == "warm":
                report.warm_walls.append(float(r.wall_seconds))
    report.wall_seconds = time.perf_counter() - t0
    report.metrics = handle.metrics_snapshot()
    return report
