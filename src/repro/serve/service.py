"""The long-lived partitioning service.

Architecture (DESIGN.md §11)::

    clients ──► LRU cache ──hit──► answer
                    │ miss
                    ▼
              in-flight runs ──same key──► await that run
                    │ new key
                    ▼
              one-thread executor ──► warm-start decision
              (the only queue)          │           │
                                    refinement    full
                                    only (warm)  multilevel

* **Admission**: a cache miss whose key has no run in flight admits one
  task, which waits its turn on the one-thread executor; runs execute
  in admission order, and nothing else queues.
* **Coalescing**: concurrent requests for the same
  ``(graph fingerprint, k, ε, config_digest)`` key await the one
  in-flight task; exactly one partitioner run serves them all.
* **Caching**: finished partitions, compressed input graphs, and
  warm-start seeds share one byte-budgeted LRU
  (:class:`~repro.serve.cache.ByteLRUCache`) whose bytes are registered
  with the :class:`MemoryTracker` ledger.
* **Incremental repartitioning**: deltas mutate the finest-level graph
  only; the next request warm-starts from the previous assignment and
  re-runs refinement (:func:`repro.core.partitioner.refine_partition`),
  falling back to a full multilevel run once the cumulative drift since
  the last full run exceeds ``ServeConfig.drift_threshold``.
* **Keys**: a graph is keyed by its content fingerprint when registered
  and by a state digest after each delta that changed it
  (:func:`repro.serve.deltas.state_fingerprint`: the previous key and the
  delta's canonical form, never a re-hash of the graph).  Answers and
  compressed graphs under a key no registered name holds any more can
  never be asked for again, so a delta or a re-registration drops them.

The service is a plain asyncio object (``PartitionService``) plus a
thread-backed synchronous wrapper (``ServiceHandle``) for tests and
benchmarks; the HTTP front end in :mod:`repro.serve.http` is a thin
shell over the same object.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import PartitionerConfig, ServeConfig, config_digest, terapart
from repro.core.partitioner import partition as _default_partition
from repro.core.partitioner import refine_partition as _default_refine
from repro.graph import _native
from repro.graph.compressed import compress_graph
from repro.graph.fingerprint import graph_fingerprint
from repro.memory.tracker import MemoryTracker
from repro.serve.cache import ByteLRUCache
from repro.serve.deltas import GraphDelta, apply_delta, state_fingerprint
from repro.serve.metrics import ServiceMetrics


class ServiceError(Exception):
    """Structured, wire-serializable service failure.

    ``code`` is machine-readable (``unknown-graph``, ``bad-request``,
    ``partitioner-error``, ``shutdown``); ``detail`` carries request
    context.  A run failing with a ServiceError fails only the requests
    awaiting that run; the executor moves on to the next one.
    """

    def __init__(self, code: str, message: str, detail: dict | None = None):
        super().__init__(message)
        self.code = code
        self.detail = dict(detail or {})

    def to_dict(self) -> dict:
        return {"error": str(self), "code": self.code, "detail": self.detail}


@dataclass(frozen=True)
class RequestKey:
    """Identity under which requests coalesce and results cache."""

    fingerprint: str
    k: int
    epsilon: float
    config_digest: str


@dataclass
class ServeResult:
    """What one partition request returns (cached or computed)."""

    partition: np.ndarray
    cut: int
    imbalance: float
    balanced: bool
    wall_seconds: float  # compute time of the run that produced this
    mode: str  # "full" | "warm" | "cached"
    graph: str
    k: int
    epsilon: float
    config_digest: str
    drift: float
    num_levels: int

    @property
    def nbytes(self) -> int:
        return int(self.partition.nbytes) + 256

    def to_dict(self, *, include_partition: bool = False) -> dict:
        d = {
            "cut": int(self.cut),
            "imbalance": float(self.imbalance),
            "balanced": bool(self.balanced),
            "wall_seconds": float(self.wall_seconds),
            "mode": self.mode,
            "graph": self.graph,
            "k": int(self.k),
            "epsilon": float(self.epsilon),
            "config_digest": self.config_digest,
            "drift": float(self.drift),
            "num_levels": int(self.num_levels),
        }
        if include_partition:
            d["partition"] = self.partition.tolist()
        return d


@dataclass
class _WarmSeed:
    """Previous assignment + the drift bookkeeping anchored at the last
    *full* run (warm runs refresh the partition but not the anchor: the
    quality guarantee degrades with distance from the last full
    multilevel run, not from the last refinement)."""

    partition: np.ndarray
    changed_at_full: int  # entry.total_changed when the full run happened
    m_at_full: int  # directed edge count then (drift denominator)
    deltas_applied: int  # entry.deltas_applied of the graph it partitions

    @property
    def nbytes(self) -> int:
        return int(self.partition.nbytes) + 32


@dataclass
class _GraphEntry:
    name: str
    graph: object  # finest-level CSR
    fingerprint: str
    total_changed: int = 0  # cumulative changed edges over all deltas
    deltas_applied: int = 0
    # per vertex, the index (1-based) of the last delta that named it; grown
    # to n by the first delta and charged to the ledger under epoch_aid
    epoch: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    epoch_aid: int = 0


@dataclass
class _Job:
    key: RequestKey
    entry_name: str
    graph: object  # snapshot at admission time (CSR graphs are immutable)
    fingerprint: str
    k: int
    config: PartitionerConfig
    total_changed: int
    deltas_applied: int
    epoch: np.ndarray  # the entry's array at admission time
    force_full: bool


class PartitionService:
    """Asyncio service front end."""

    def __init__(
        self,
        config: PartitionerConfig | None = None,
        serve_config: ServeConfig | None = None,
        *,
        tracker: MemoryTracker | None = None,
        partition_fn=None,
        refine_fn=None,
    ) -> None:
        self.config = config or terapart()
        self.serve_config = serve_config or ServeConfig()
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.metrics = ServiceMetrics()
        self.cache = ByteLRUCache(
            self.serve_config.cache_budget_bytes, tracker=self.tracker
        )
        self._partition_fn = partition_fn or _default_partition
        self._refine_fn = refine_fn or _default_refine
        self._entries: dict[str, _GraphEntry] = {}
        # admitted, unfinished runs: one task per key, awaited by every
        # request for that key
        self._inflight: dict[RequestKey, asyncio.Task] = {}
        # the service's one queue: a single thread runs the admitted runs in
        # order, and the event loop stays free to coalesce requests mid-run
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._started = time.perf_counter()
        self._closed = False

    # ------------------------------------------------------------------ #
    async def aclose(self) -> None:
        """Refuse new requests, finish every admitted run, stop the thread."""
        self._closed = True
        await asyncio.gather(*self._inflight.values(), return_exceptions=True)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # graph registry + deltas
    # ------------------------------------------------------------------ #
    async def register_graph(self, name: str, graph) -> str:
        """Register a finest-level CSR graph; returns its content
        fingerprint, the key its answers are cached under until a delta."""
        if not hasattr(graph, "indptr"):
            raise ServiceError(
                "bad-request",
                "register_graph needs a CSR graph (the service owns "
                "compression; deltas apply to the CSR finest level)",
                {"graph": name},
            )
        self._check_bounds(name, graph, self.config.initial.attempts)
        fp = graph_fingerprint(graph)
        old = self._entries.get(name)
        if old is not None:
            # another graph under this name: its seeds and epochs mean nothing
            self.cache.invalidate_where(lambda key: key[:2] == ("seed", name))
            self.tracker.free(old.epoch_aid)
        aid = self.tracker.alloc(f"serve-delta-epoch:{name}", 0, "serve")
        self._entries[name] = _GraphEntry(name, graph, fp, epoch_aid=aid)
        self._evict_stranded()
        self.metrics.bump("serve.graphs_registered")
        return fp

    def _check_bounds(self, name: str, graph, attempts: int) -> None:
        """A graph the compiled kernels cannot hold in a run of ``attempts``
        bisection attempts is a bad request, named by its bound
        (:func:`repro.graph._native.check_graph`), not a failed run."""
        try:
            _native.check_graph(graph, attempts)
        except ValueError as e:
            raise ServiceError("bad-request", str(e), {"graph": name}) from e

    def _evict_stranded(self) -> None:
        """Drop cached answers and compressed graphs whose key no
        registered name holds: nothing can ask for them again.  A run in
        flight across the change may still store one; the next sweep
        takes it."""
        live = {e.fingerprint for e in self._entries.values()}

        def stranded(key) -> bool:
            if key[0] == "part":
                return key[1].fingerprint not in live
            return key[0] == "graph" and key[1] not in live

        self.cache.invalidate_where(stranded)

    def graph_names(self) -> list[str]:
        return sorted(self._entries)

    def _entry(self, name: str) -> _GraphEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise ServiceError(
                "unknown-graph",
                f"no graph registered under {name!r}",
                {"graph": name, "known": sorted(self._entries)},
            )
        return entry

    async def apply_delta(self, name: str, delta: GraphDelta) -> dict:
        """Mutate the finest level; returns drift bookkeeping and the new
        key.  O(delta) plus one copy of each changed graph array: the key
        advances by digest, and the answers under the key the graph left
        are dropped unless another name still holds it."""
        entry = self._entry(name)
        t0 = time.perf_counter()
        try:
            new_graph, changed = apply_delta(entry.graph, delta)
        except ValueError as e:
            raise ServiceError("bad-request", str(e), {"graph": name}) from e
        self._check_bounds(name, new_graph, self.config.initial.attempts)
        entry.deltas_applied += 1
        # a job admitted earlier keeps the array it saw; marks are only ever
        # added, so whichever array a warm start reads holds a superset
        grown = new_graph.n - len(entry.epoch)
        if grown:
            entry.epoch = np.append(entry.epoch, np.zeros(grown, np.int32))
            self.tracker.resize(entry.epoch_aid, entry.epoch.nbytes)
        entry.epoch[delta.vertices(entry.graph.n)] = entry.deltas_applied
        if changed or delta.add_vertices:
            # a no-op delta keeps the key, and with it every cached answer
            entry.fingerprint = state_fingerprint(
                entry.fingerprint, delta, new_graph
            )
        entry.graph = new_graph
        entry.total_changed += changed
        self._evict_stranded()
        self.metrics.bump("serve.delta_batches")
        self.metrics.bump("serve.delta_edges_changed", changed)
        self.metrics.bump("serve.delta_seconds", time.perf_counter() - t0)
        return {
            "graph": name,
            "fingerprint": entry.fingerprint,
            "changed_edges": changed,
            "total_changed": entry.total_changed,
            "n": new_graph.n,
            "m": new_graph.m,
        }

    # ------------------------------------------------------------------ #
    # the request path
    # ------------------------------------------------------------------ #
    def _request_key(
        self, entry: _GraphEntry, k: int, cfg: PartitionerConfig
    ) -> RequestKey:
        return RequestKey(
            fingerprint=entry.fingerprint,
            k=int(k),
            epsilon=round(float(cfg.epsilon), 9),
            config_digest=config_digest(cfg),
        )

    async def partition(
        self,
        name: str,
        k: int,
        *,
        epsilon: float | None = None,
        config: PartitionerConfig | None = None,
        force_full: bool = False,
    ) -> ServeResult:
        """Serve one partition request (cache → coalesce → warm/full run)."""
        t0 = time.perf_counter()
        self.metrics.bump("serve.requests")
        try:
            if self._closed:
                raise ServiceError("shutdown", "service is closed")
            if k < 1:
                raise ServiceError("bad-request", f"k must be >= 1, got {k}")
            entry = self._entry(name)
            cfg = config or self.config
            if epsilon is not None:
                cfg = cfg.with_(epsilon=float(epsilon))
            if cfg.initial.attempts > self.config.initial.attempts:
                # registration checked the bisection bound for the default's
                self._check_bounds(name, entry.graph, cfg.initial.attempts)
            key = self._request_key(entry, k, cfg)

            cached = self.cache.get(("part", key))
            if cached is not None:
                self.metrics.bump("serve.cache_hits")
                return replace(cached, mode="cached")
            self.metrics.bump("serve.cache_misses")

            run = self._inflight.get(key)
            if run is None:
                job = _Job(
                    key=key,
                    entry_name=name,
                    graph=entry.graph,
                    fingerprint=entry.fingerprint,
                    k=int(k),
                    config=cfg,
                    total_changed=entry.total_changed,
                    deltas_applied=entry.deltas_applied,
                    epoch=entry.epoch,
                    force_full=force_full,
                )
                run = self._inflight[key] = asyncio.create_task(self._run(job))
                # retrieve exceptions even if every client was cancelled,
                # so an abandoned failed run never logs a warning
                run.add_done_callback(
                    lambda t: t.exception() if not t.cancelled() else None
                )
            else:
                self.metrics.bump("serve.batched")
            # a cancelled client detaches; the run finishes for the others
            return await asyncio.shield(run)
        except ServiceError:
            self.metrics.bump("serve.errors")
            raise
        except asyncio.CancelledError:
            self.metrics.bump("serve.cancelled")
            raise
        finally:
            self.metrics.observe_latency(time.perf_counter() - t0)

    # ------------------------------------------------------------------ #
    async def _run(self, job: _Job) -> ServeResult:
        """One admitted run: its turn on the executor, then its key freed."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._executor, self._execute, job)
        except Exception as e:  # noqa: BLE001 - converted to structured
            self.metrics.bump("serve.run_errors")
            if isinstance(e, ServiceError):
                raise
            raise ServiceError(
                "partitioner-error",
                f"{type(e).__name__}: {e}",
                {
                    "graph": job.entry_name,
                    "k": job.k,
                    "config_digest": job.key.config_digest,
                },
            ) from e
        finally:
            self._inflight.pop(job.key, None)

    # ------------------------------------------------------------------ #
    # execution (runs on the executor thread)
    # ------------------------------------------------------------------ #
    def _execute(self, job: _Job) -> ServeResult:
        scfg = self.serve_config
        seed_key = ("seed", job.entry_name, job.key.k, job.key.epsilon,
                    job.key.config_digest)
        seed: _WarmSeed | None = self.cache.peek(seed_key)
        drift = 0.0
        if seed is not None:
            drift = (job.total_changed - seed.changed_at_full) / max(
                seed.m_at_full, 1
            )
        warm_ok = (
            not job.force_full
            and seed is not None
            and len(seed.partition) <= job.graph.n
        )
        if warm_ok and drift > scfg.drift_threshold:
            self.metrics.bump("serve.fallback_drift")
            warm_ok = False

        if warm_ok:
            part0 = seed.partition
            if len(part0) < job.graph.n:
                # vertices appended since the seed: start them in the
                # lightest seed block; rebalance/refinement takes it from
                # there
                counts = np.bincount(part0, minlength=job.k)
                fill = int(np.argmin(counts))
                part0 = np.concatenate(
                    [
                        part0,
                        np.full(
                            job.graph.n - len(part0), fill, dtype=np.int32
                        ),
                    ]
                )
            # everything a delta named since the seed's graph; without the
            # bookkeeping (no delta since registration) LP sweeps all of V
            seeds = None
            if len(job.epoch) == job.graph.n:
                seeds = np.flatnonzero(job.epoch > seed.deltas_applied)
            # a drifted partition needs a little more work than a freshly
            # projected level: two LP rounds on top of the config's
            result = self._refine_fn(
                job.graph,
                job.k,
                part0,
                job.config,
                extra_lp_rounds=2,
                tracker=self.tracker,
                seeds=seeds,
            )
            mode = "warm"
            self.metrics.bump("serve.warm_runs")
            self.metrics.bump(
                "serve.warm_seed_vertices",
                job.graph.n if seeds is None else len(seeds),
            )
            new_seed = _WarmSeed(
                partition=result.partition.copy(),
                changed_at_full=seed.changed_at_full,
                m_at_full=seed.m_at_full,
                deltas_applied=job.deltas_applied,
            )
        else:
            graph_for_run = job.graph
            if job.config.compress_input:
                ckey = ("graph", job.fingerprint)
                cg = self.cache.get(ckey)
                if cg is None:
                    cg = compress_graph(job.graph)
                    self.cache.put(ckey, cg, cg.nbytes)
                graph_for_run = cg
            result = self._partition_fn(
                graph_for_run, job.k, job.config, tracker=self.tracker
            )
            mode = "full"
            drift = 0.0
            self.metrics.bump("serve.full_runs")
            new_seed = _WarmSeed(
                partition=result.partition.copy(),
                changed_at_full=job.total_changed,
                m_at_full=max(job.graph.num_directed_edges, 1),
                deltas_applied=job.deltas_applied,
            )
        self.cache.put(seed_key, new_seed, new_seed.nbytes)
        self.metrics.bump("serve.run_seconds", result.wall_seconds)
        answer = ServeResult(
            partition=result.partition,
            cut=int(result.cut),
            imbalance=float(result.imbalance),
            balanced=bool(result.balanced),
            wall_seconds=float(result.wall_seconds),
            mode=mode,
            graph=job.entry_name,
            k=job.key.k,
            epsilon=job.key.epsilon,
            config_digest=job.key.config_digest,
            drift=float(drift),
            num_levels=int(result.num_levels),
        )
        self.cache.put(("part", job.key), answer, answer.nbytes)
        return answer

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def _cache_gauges(self) -> dict:
        st = self.cache.stats
        return {
            "serve.evictions": st.evictions,
            "serve.cache_resident_bytes": st.resident_bytes,
            "serve.cache_entries": st.entries,
        }

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(
            elapsed_seconds=time.perf_counter() - self._started,
            gauges=self._cache_gauges(),
        )

    def metrics_registry(self, *, meta: dict | None = None):
        return self.metrics.to_registry(
            meta={
                "config": self.config.name,
                "graphs": self.graph_names(),
                **(meta or {}),
            },
            elapsed_seconds=time.perf_counter() - self._started,
            gauges=self._cache_gauges(),
        )


# --------------------------------------------------------------------- #
# synchronous wrapper
# --------------------------------------------------------------------- #
class ServiceHandle:
    """In-process synchronous facade over :class:`PartitionService`.

    Runs the service's event loop on a daemon thread; every method
    round-trips through ``run_coroutine_threadsafe``, so tests and
    benchmarks drive the *real* async path (cache, coalescing, executor)
    without writing async code.  Usable as a context manager.
    """

    def __init__(
        self,
        config: PartitionerConfig | None = None,
        serve_config: ServeConfig | None = None,
        **service_kwargs,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self.service = PartitionService(config, serve_config, **service_kwargs)

    def _call(self, coro, timeout: float | None = 300.0):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    # -- the sync API --------------------------------------------------- #
    def register_graph(self, name: str, graph) -> str:
        return self._call(self.service.register_graph(name, graph))

    def partition(self, name: str, k: int, **kwargs) -> ServeResult:
        return self._call(self.service.partition(name, k, **kwargs))

    def partition_many(
        self, requests: list[tuple[str, int]], **kwargs
    ) -> list[ServeResult]:
        """Issue many requests *concurrently* (exercises coalescing)."""

        async def _gather():
            return await asyncio.gather(
                *(
                    self.service.partition(name, k, **kwargs)
                    for name, k in requests
                )
            )

        return self._call(_gather())

    def apply_delta(self, name: str, delta: GraphDelta) -> dict:
        return self._call(self.service.apply_delta(name, delta))

    def metrics_snapshot(self) -> dict:
        return self.service.metrics_snapshot()

    def metrics_registry(self, **kwargs):
        return self.service.metrics_registry(**kwargs)

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self.service.aclose())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
