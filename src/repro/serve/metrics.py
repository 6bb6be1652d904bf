"""Service telemetry: counters + latency quantiles, obs-registry shaped.

The long-lived service cannot use :meth:`MetricsRegistry.from_run` (that
collapses *one* finished run); instead it accumulates counters across
requests and folds them into the same :class:`MetricsRegistry` artifact,
so dashboards, the run DB, and ``repro bench compare`` consume service
telemetry and partitioner telemetry through one schema.

Counter taxonomy (``serve.*``, joining the DESIGN.md §7 vocabulary):

* ``serve.requests`` / ``serve.errors`` / ``serve.cancelled``
* ``serve.batched``        — requests coalesced onto an in-flight run
* ``serve.cache_hits`` / ``serve.cache_misses`` (partition cache)
* ``serve.full_runs`` / ``serve.warm_runs``    — execution mode split
* ``serve.fallback_drift`` — warm starts refused because drift crossed
  the threshold
* ``serve.delta_batches`` / ``serve.delta_edges_changed`` /
  ``serve.delta_seconds`` (apply + fingerprint + seed bookkeeping)
* ``serve.warm_seed_vertices`` — vertices LP refinement was seeded with,
  summed over warm runs (``n`` for a run without delta bookkeeping)
* ``serve.evictions``      — LRU evictions across all entry kinds
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.metrics import MetricsRegistry


class LatencyReservoir:
    """Bounded sample of request latencies with exact-on-sample quantiles.

    Below ``capacity`` samples this is exact; past it, reservoir sampling
    keeps a uniform subsample (deterministic via a seeded generator), so
    a service running for days neither grows without bound nor loses the
    tail entirely.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: list[float] = []
        self._seen = 0
        self._rng = np.random.default_rng(seed)

    def add(self, seconds: float) -> None:
        self._seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(float(seconds))
            return
        j = int(self._rng.integers(0, self._seen))
        if j < self.capacity:
            self._samples[j] = float(seconds)

    def quantile(self, q: float) -> float:
        if not self._samples:
            return 0.0
        return float(np.quantile(np.asarray(self._samples), q))

    @property
    def count(self) -> int:
        return self._seen


class ServiceMetrics:
    """Thread-safe counter/latency accumulator for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self.latency = LatencyReservoir()

    def bump(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self.latency.add(seconds)

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    # ------------------------------------------------------------------ #
    def snapshot(
        self, *, elapsed_seconds: float | None = None, gauges: dict | None = None
    ) -> dict:
        """Flat gauge dict: what ``GET /metrics`` and the bench report.

        ``gauges`` are values the caller reads at call time (the cache's
        residency), reported beside the counters as given.
        """
        with self._lock:
            c = {**self._counters, **(gauges or {})}
            p50 = self.latency.quantile(0.50)
            p99 = self.latency.quantile(0.99)
            n = self.latency.count
        hits = c.get("serve.cache_hits", 0)
        misses = c.get("serve.cache_misses", 0)
        snap = {
            **{k: (int(v) if float(v).is_integer() else v) for k, v in c.items()},
            "serve.p50_seconds": p50,
            "serve.p99_seconds": p99,
            "serve.latency_samples": n,
            "serve.cache_hit_rate": hits / (hits + misses)
            if hits + misses
            else 0.0,
        }
        if elapsed_seconds is not None and elapsed_seconds > 0:
            snap["serve.requests_per_second"] = (
                c.get("serve.requests", 0) / elapsed_seconds
            )
        return snap

    def to_registry(
        self,
        *,
        meta: dict | None = None,
        elapsed_seconds: float | None = None,
        gauges: dict | None = None,
    ) -> MetricsRegistry:
        """Fold the snapshot into the obs-layer registry schema."""
        return MetricsRegistry.from_counters(
            self.snapshot(elapsed_seconds=elapsed_seconds, gauges=gauges),
            meta={"source": "serve", **(meta or {})},
        )
