"""Serving layer: the long-lived partitioning service (``repro serve``).

The million-user scenario of ROADMAP item 1: hold compressed graphs
resident, answer partition requests under live traffic, absorb graph
churn with incremental (warm-start) repartitioning.  See DESIGN.md §11.

Public surface:

* :class:`PartitionService` — the asyncio service object,
* :class:`ServiceHandle`   — synchronous in-process facade (tests/bench),
* :class:`ServiceError`    — structured request failure,
* :class:`ServeResult`     — one request's answer,
* :class:`GraphDelta` / :func:`apply_delta` — finest-level mutations,
* :class:`ByteLRUCache`    — the tracked byte-budgeted LRU,
* :func:`make_trace` / :func:`replay` — workload traces for bench/CI,
* :mod:`repro.serve.http`  — the stdlib HTTP front end.
"""

from repro.serve.cache import ByteLRUCache, CacheStats
from repro.serve.deltas import (
    DeltaFieldError,
    GraphDelta,
    apply_delta,
    random_delta,
)
from repro.serve.metrics import LatencyReservoir, ServiceMetrics
from repro.serve.service import (
    PartitionService,
    RequestKey,
    ServeResult,
    ServiceError,
    ServiceHandle,
)
from repro.serve.trace import TraceEvent, TraceReport, make_trace, replay

__all__ = [
    "ByteLRUCache",
    "CacheStats",
    "DeltaFieldError",
    "GraphDelta",
    "LatencyReservoir",
    "PartitionService",
    "RequestKey",
    "ServeResult",
    "ServiceError",
    "ServiceHandle",
    "ServiceMetrics",
    "TraceEvent",
    "TraceReport",
    "apply_delta",
    "make_trace",
    "random_delta",
    "replay",
]
