"""Timing shims around the layers' public functions (the traced rep).

The benchmark measures from outside the program: for one *traced* rep it
wraps each boundary below with a span (name, start, end, parent, thread),
keeps the spans in memory, and reports per boundary the call count and the
self time (span time minus child spans).  Functions that other modules
imported by name are patched in every loaded ``repro.*`` module holding
the same object; methods are patched on their class.  Everything is
restored afterwards, and a boundary that no longer exists reports ``null``
instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field

# (metric prefix, module, attribute or Class.attribute)
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("graph.compress_graph", "repro.graph.compressed", "compress_graph"),
    ("graph.decode_chunk", "repro.graph.compressed", "CompressedGraph.decode_chunk"),
    ("graph.decode_region_bulk", "repro.graph.varint", "decode_region_bulk"),
    ("graph.encode_stream_bulk", "repro.graph.varint", "encode_stream_bulk"),
    ("graph.chunk_adjacency", "repro.graph.access", "chunk_adjacency"),
    ("graph.full_adjacency", "repro.graph.access", "full_adjacency"),
    ("graph.segment_reduce_ratings", "repro.graph.access", "segment_reduce_ratings"),
    ("graph.graph_fingerprint", "repro.graph.fingerprint", "graph_fingerprint"),
    ("kernels.bulk_size_constrained_commit", "repro.core.kernels.commit", "bulk_size_constrained_commit"),
    ("kernels.segment_best_last", "repro.core.kernels.segments", "segment_best_last"),
    ("kernels.gather_cluster_members", "repro.core.kernels.contraction", "gather_cluster_members"),
    ("kernels.aggregate_coarse_edges", "repro.core.kernels.contraction", "aggregate_coarse_edges"),
    ("kernels.move_gains", "repro.core.kernels.gains", "move_gains"),
    ("kernels.two_way_gains", "repro.core.kernels.gains", "two_way_gains"),
    ("kernels.two_way_cut", "repro.core.kernels.gains", "two_way_cut"),
    ("kernels.batch_hash_insert", "repro.core.kernels.gains", "batch_hash_insert"),
    ("kernels.batch_hash_probe", "repro.core.kernels.gains", "batch_hash_probe"),
    ("kernels.entry_width_bits_bulk", "repro.core.kernels.gains", "entry_width_bits_bulk"),
    ("coarsening.label_propagation_clustering", "repro.core.coarsening.lp_clustering", "label_propagation_clustering"),
    ("coarsening.two_hop_match", "repro.core.coarsening.two_hop", "two_hop_match"),
    ("coarsening.contract_one_pass", "repro.core.coarsening.one_pass_contraction", "contract_one_pass"),
    ("coarsening.contract_buffered", "repro.core.coarsening.contraction", "contract_buffered"),
    ("initial.initial_partition", "repro.core.initial.recursive", "initial_partition"),
    ("initial.greedy_graph_growing_bipartition", "repro.core.initial.bipartition", "greedy_graph_growing_bipartition"),
    ("initial.fm2way_refine", "repro.core.initial.fm2way", "fm2way_refine"),
    ("refinement.lp_refine", "repro.core.refinement.lp_refine", "lp_refine"),
    ("refinement.fm_refine", "repro.core.refinement.fm_refine", "fm_refine"),
    ("refinement.fm_refine_localized", "repro.core.refinement.fm_localized", "fm_refine_localized"),
    ("refinement.rebalance", "repro.core.refinement.balancer", "rebalance"),
    ("refinement.make_gain_table", "repro.core.refinement.gain_table", "make_gain_table"),
    ("core.partition", "repro.core.partitioner", "partition"),
    ("core.refine_partition", "repro.core.partitioner", "refine_partition"),
    ("core.cut_weight", "repro.core.partition", "PartitionedGraph.cut_weight"),
    ("dist.dpartition", "repro.dist.dpartitioner", "dpartition"),
    ("dist.distribute_graph", "repro.dist.dgraph", "distribute_graph"),
    ("dist.distributed_lp_clustering", "repro.dist.dlp", "distributed_lp_clustering"),
    ("dist.distributed_lp_refine", "repro.dist.dlp", "distributed_lp_refine"),
    ("dist.alltoallv", "repro.dist.comm", "SimComm.alltoallv"),
    ("dist.allgather", "repro.dist.comm", "SimComm.allgather"),
    ("dist.allreduce", "repro.dist.comm", "SimComm.allreduce"),
    ("dist.bcast", "repro.dist.comm", "SimComm.bcast"),
    ("serve.partition", "repro.serve.service", "ServiceHandle.partition"),
    ("serve.apply_delta", "repro.serve.deltas", "apply_delta"),
    ("serve.cache_get", "repro.serve.cache", "ByteLRUCache.get"),
    ("serve.cache_put", "repro.serve.cache", "ByteLRUCache.put"),
)

BOUNDARY_NAMES: tuple[str, ...] = tuple(b[0] for b in BOUNDARIES)


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    tid: int
    end: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list with one open-span stack per thread.

    The workloads are single-client closed loops: while the service's loop
    and executor threads work, the driving thread is blocked inside the
    request that caused the work.  A span opened on a thread with no open
    span of its own is therefore parented to the driving thread's innermost
    open span, which keeps self times additive across threads.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._driver_tid = threading.get_ident()
        self._driver_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._driver_tid:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._driver_stack and self._driver_stack:
            parent = self._driver_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), parent, threading.get_ident())
        stack.append(span)
        self.spans.append(span)  # one append: atomic under the GIL
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        assert stack and stack[-1] is span, "unbalanced boundary spans"
        stack.pop()


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)``; self = duration - child durations."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + s.duration - child_time.get(id(s), 0.0))
    return out


def chrome_trace(spans: list[Span], *, process: str) -> dict:
    """Chrome-trace (``chrome://tracing`` / Perfetto) JSON of the spans."""
    if not spans:
        return {"traceEvents": []}
    t0 = min(s.start for s in spans)
    tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in spans))}
    events: list[dict] = [
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": process}}
    ]
    for s in spans:
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids[s.tid],
                "name": s.name,
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "args": s.args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------- #
# patching
# --------------------------------------------------------------------- #
@dataclass
class _Patch:
    owner: object  # module or class
    attr: str
    original: object
    shim: object


@dataclass
class Installed:
    """What :func:`install` did; hand it back to :func:`uninstall`."""

    patches: list[_Patch]
    missing: list[str]  # boundary names that could not be resolved


def _make_shim(recorder: SpanRecorder, name: str, fn, probe=None):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        span = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)
            if probe is not None:
                probe(span, args, kwargs)

    return shim


def span_cost(calls: int = 20_000) -> float:
    """Measured seconds one shim adds to a call (best of three batches).

    On a shared box one traced rep against one untraced rep differs by
    +-20 % from scheduling noise alone, so the tracing overhead is taken
    from the shim's own cost times the spans recorded, not from that ratio.
    """

    def noop() -> None:
        return None

    shim = _make_shim(SpanRecorder(), "calibration", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            shim()
        best = min(best, (time.perf_counter() - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def _repro_modules() -> list:
    return [
        mod
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "repro" or modname.startswith("repro."))
    ]


def install(
    recorder: SpanRecorder,
    boundaries=BOUNDARIES,
    *,
    probes: dict | None = None,
) -> Installed:
    """Wrap every resolvable boundary; ``probes[name](span, args, kwargs)``
    may attach counts to a boundary's spans (``span.args``)."""
    probes = probes or {}
    patches: list[_Patch] = []
    missing: list[str] = []
    for name, modname, qual in boundaries:
        try:
            module = importlib.import_module(modname)
            owner, attr = module, qual
            if "." in qual:
                clsname, attr = qual.split(".", 1)
                owner = getattr(module, clsname)
                original = owner.__dict__[attr]
            else:
                original = getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(name)
            continue
        shim = _make_shim(recorder, name, original, probes.get(name))
        if owner is module:
            # `from x import f` copies the reference: patch every holder
            for mod in _repro_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        patches.append(_Patch(mod, key, original, shim))
        else:
            patches.append(_Patch(owner, attr, original, shim))
    for p in patches:
        setattr(p.owner, p.attr, p.shim)
    return Installed(patches, missing)


def uninstall(installed: Installed) -> None:
    """Restore every patched attribute and assert it, by identity."""
    for p in reversed(installed.patches):
        setattr(p.owner, p.attr, p.original)
    for p in installed.patches:
        if vars(p.owner)[p.attr] is not p.original:
            raise RuntimeError(
                f"boundary shim left behind on {p.owner!r}.{p.attr}"
            )
    installed.patches.clear()
