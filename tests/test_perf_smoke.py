"""Tier-1 perf smoke guard for the vectorized decode path (ISSUE 1).

Compressed chunk traversal must stay within 15x of the raw CSR gather on a
fixed weblike instance.  The seed's per-vertex scalar decode sat at
50-100x, so this guard fails loudly if a future change silently reroutes
traversal back through a Python-per-vertex loop; the vectorized bulk path
measures ~10x on an idle machine, leaving headroom for timer noise (both
sides are best-of-5 on the same interpreter).
"""

from __future__ import annotations

import time

import numpy as np

import oracles
from repro.graph import _native
from repro.graph.access import chunk_adjacency
from repro.graph.compressed import compress_graph
from repro.graph.generators import weblike

MAX_SLOWDOWN = 15.0


def _best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_compressed_traversal_within_envelope():
    g = weblike(10_000, avg_degree=10, seed=42)
    cg = compress_graph(g)
    order = np.random.default_rng(0).permutation(g.n).astype(np.int64)
    chunks = np.array_split(order, 16)

    def scan(graph):
        for c in chunks:
            chunk_adjacency(graph, c)

    scan(g)  # warm both paths (allocator, caches)
    scan(cg)
    t_csr = _best_of(lambda: scan(g))
    t_cmp = _best_of(lambda: scan(cg))
    slowdown = t_cmp / t_csr
    assert slowdown <= MAX_SLOWDOWN, (
        f"compressed traversal {slowdown:.1f}x CSR "
        f"(csr {t_csr * 1e3:.2f} ms, compressed {t_cmp * 1e3:.2f} ms); "
        f"did a change reintroduce a per-vertex decode loop?"
    )


# The numpy decoder (the oracle of ``tests/oracles.py``) merges the interval and residual streams of a chunk by interval, not by
# edge: one binary search per vertex (locating its values in the decoded
# region) and two per interval (the residuals below its left end and below
# its right end -- equal unless a corrupt interval swallows a residual);
# expanded interval elements inherit their interval's answer and the
# residuals fill the slots left free.  PR 19 searched once per edge as well
# (expanded elements into residual keys, residuals back into expanded keys):
# 110 218 queries here, vertices + directed edges, against 21 012 now.
def test_decode_merges_by_interval_not_by_edge(monkeypatch):
    g = weblike(10_000, avg_degree=10, seed=42)
    cg = compress_graph(g)
    order = np.random.default_rng(0).permutation(g.n).astype(np.int64)
    queries = 0
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        nonlocal queries
        queries += np.size(v)
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    with oracles.installed("decode"):
        edges = sum(len(cg.decode_chunk(c)[1]) for c in np.array_split(order, 16))
    monkeypatch.undo()
    assert edges == cg.num_directed_edges
    assert 0 < cg.stats.num_intervals < edges // 4
    assert 0 < queries <= g.n + 2 * cg.stats.num_intervals, (
        f"{queries} searchsorted queries for {g.n} vertices, "
        f"{cg.stats.num_intervals} intervals and {edges} directed edges; "
        f"did a change bring back the edge-sized interval/residual merge?"
    )


# Initial partitioning does work in proportion to what can still improve:
# 2-way FM seeds its queue from the boundary and stops by the adaptive rule,
# and no loop re-pushes an entry it popped stale (the update that changed
# the gain pushed its own).  The counts below repeat exactly, so the guard
# needs no stopwatch.  On this instance (greedy growing, then two FM passes
# from its result) the parent popped 778 entries in 2 FM passes, 389.0 a
# pass, and re-pushed 42 of them stale; this code pops 48 in 2 passes, 24.0
# a pass, and re-pushes none.  Greedy growing pops 3 044 entries on both.
# The Python loops are counted through their heapq calls, the compiled ones
# (bisection_kernel.c) through the counters they keep; the heap order is
# total, so the two must report the same numbers.
MAX_POPS_PER_FM_PASS = 40


def _heap_work_of_the_oracle(monkeypatch, run):
    """``[pops, pushes, passes, re-pushes]`` after greedy growing and after FM."""
    import heapq

    counts = [0, 0, 0, 0]
    last_popped = [None]

    def heappop(heap):
        entry = heapq.heappop(heap)
        counts[0] += 1
        last_popped[0] = entry[2]
        return entry

    def heappush(heap, entry):
        counts[1] += 1
        counts[3] += entry[2] == last_popped[0]
        heapq.heappush(heap, entry)

    def heapify(heap):  # a pass begins: its seeds are pushes, nothing was popped yet
        counts[1] += len(heap)
        counts[2] += 1
        last_popped[0] = None
        heapq.heapify(heap)

    with oracles.installed("bisection"), monkeypatch.context() as m:
        m.setattr(oracles, "heappop", heappop)
        m.setattr(oracles, "heappush", heappush)
        m.setattr(oracles, "heapify", heapify)
        return run(lambda: list(counts))


def test_initial_heap_work_stays_proportional(monkeypatch):
    from repro.core.initial import bipartition, fm2way
    from repro.core.initial.workspace import BisectionTree
    from repro.graph.generators import rgg2d

    g = rgg2d(2048, 8.0, seed=1)
    total = g.total_vertex_weight
    half, cap = total // 2, int(1.03 * -(-total // 2))

    def run(read_counts):
        start = bipartition.greedy_graph_growing_bipartition(
            g, half, cap, np.random.default_rng(1)
        )
        grown = read_counts()
        fm2way.fm2way_refine(g, start, (cap, cap), rounds=2)
        return grown, [b - a for a, b in zip(grown, read_counts())]

    paths = {"oracle": _heap_work_of_the_oracle(monkeypatch, run)}
    # both searches on one tree, whose counters accumulate across them
    tree = BisectionTree(g)
    with monkeypatch.context() as m:
        for module in (bipartition, fm2way):
            m.setattr(module, "BisectionTree", lambda graph: tree)
        paths["kernel"] = run(lambda: tree.work.tolist())
    assert paths["kernel"] == paths["oracle"]
    for path, (grown, refined) in paths.items():
        pops, _, passes, repushes = refined
        assert grown[0] > 0 and grown[3] == 0, path
        assert passes > 0 and repushes == 0, path
        assert pops / passes <= MAX_POPS_PER_FM_PASS, (
            f"{path}: {pops / passes:.1f} heap pops per 2-way FM pass; did a change "
            f"put the whole graph back into the queue or drop the stopping rule?"
        )


# All three compressors (memory, virtual threads, file) are packet sources
# over one loop with one run encoder: every vertex, a chunk-encoded hub
# included, is encoded once by `_encode_run`, one call a packet; no
# per-vertex scalar encoder is left for a hub.  The packets of all three are
# cut by `balanced_cuts`.
def test_compressors_share_one_bulk_encoder(monkeypatch, tmp_path):
    from repro.graph import compressed
    from repro.graph.compression import compress_graph_parallel
    from repro.graph.generators import star
    from repro.graph.io import stream_compressed, write_binary
    from repro.parallel.runtime import ParallelRuntime, balanced_cuts

    runs = []
    encode = compressed._encode_run

    def counting(lo, first_edge, *args):
        runs.append((lo, len(first_edge) - 1))
        return encode(lo, first_edge, *args)

    monkeypatch.setattr(compressed, "_encode_run", counting)
    assert not hasattr(compressed, "encode_neighborhood")

    def doors(graph, name, **kw):
        path = tmp_path / name
        write_binary(graph, path)
        compressed.compress_graph(graph, **kw)
        yield "memory"
        compress_graph_parallel(graph, ParallelRuntime(4, chunk_size=64), **kw)
        yield "threads"
        stream_compressed(path, packet_edges=1 << 10, **kw)
        yield "file"

    for graph, kw in (
        (weblike(3000, avg_degree=10.0, seed=1), {}),
        (star(500), {"high_degree_threshold": 100, "chunk_length": 64}),
    ):
        for door in doors(graph, "graph.bin", **kw):
            covered = sorted(v for lo, count in runs for v in range(lo, lo + count))
            assert covered == list(range(graph.n)), f"{door}: a vertex not encoded once by a run"
            runs.clear()

    # the virtual-thread door: about one packet a chunk of vertices, every
    # vertex weighing at least 1
    graph = star(500)
    _, traces = compress_graph_parallel(graph, ParallelRuntime(3, chunk_size=64))
    prefix = np.concatenate(([0], np.cumsum(np.maximum(graph.degrees, 1))))
    cuts = balanced_cuts(prefix, prefix[-1] / 8)
    assert np.cumsum([0] + [t.num_vertices for t in traces]).tolist() == cuts.tolist()
    assert [t.thread_id for t in traces] == [i % 3 for i in range(len(traces))]
    assert 2 < len(cuts) <= 9


# The packet encoder is compiled (`repro_encode_run`): each run of
# low-degree vertices is one size call and one write call, so with the
# library loaded no compressor reaches numpy's VarInt encoder or its length
# pass.  With the numpy oracle installed the same doors must reach both, or
# this guard guards nothing.
def test_compression_is_one_compiled_call_a_run(monkeypatch, tmp_path):
    from collections import Counter

    from repro.graph import compressed
    from repro.graph.compression import compress_graph_parallel
    from repro.graph.io import stream_compressed, write_binary
    from repro.parallel.runtime import ParallelRuntime

    calls = Counter()
    for name in ("encode_stream_bulk", "varint_lengths"):
        def counted(*args, _name=name, _fn=getattr(oracles, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(oracles, name, counted)
    graph = weblike(3000, avg_degree=10.0, seed=1)
    path = tmp_path / "web.bin"
    write_binary(graph, path)

    def doors():
        compressed.compress_graph(graph)
        yield "memory"
        compress_graph_parallel(graph, ParallelRuntime(4, chunk_size=64))
        yield "threads"
        stream_compressed(path, packet_edges=1 << 10)
        yield "file"

    for door in doors():
        assert not calls, f"{door}: {dict(calls)} -- the numpy encoder ran"
    with oracles.installed("encode"):
        for door in doors():
            assert set(calls) == {"encode_stream_bulk", "varint_lengths"}, door
            calls.clear()


# A gain table is filled by one pass over the edges, on either
# representation: building it on a compressed graph costs one bulk decode
# more than on CSR -- ~2-4x for the sparse table, ~8x for the dense one,
# whose CSR build is a single scatter.  With a per-vertex decode loop in
# the build these ratios were 16-41x and 120-140x.
MAX_COMPRESSED_TABLE_BUILD = {"sparse": 12.0, "full": 30.0}


def test_gain_table_build_on_compressed_within_envelope():
    from repro.core.partition import PartitionedGraph
    from repro.core.refinement.gain_table import make_gain_table
    from repro.graph.generators import rgg2d

    g = rgg2d(4096, 8.0, seed=1)
    part = np.random.default_rng(0).integers(0, 16, size=g.n)
    pg = PartitionedGraph(g, 16, part)
    pc = PartitionedGraph(compress_graph(g), 16, part)
    for kind, bound in MAX_COMPRESSED_TABLE_BUILD.items():
        make_gain_table(kind, pg)  # warm both sides
        make_gain_table(kind, pc)
        ratio = _best_of(lambda: make_gain_table(kind, pc)) / _best_of(
            lambda: make_gain_table(kind, pg)
        )
        assert ratio <= bound, (
            f"{kind} gain table on a compressed graph takes {ratio:.1f}x the "
            f"CSR build; did a change reintroduce a per-vertex decode loop?"
        )


# An LP round is one compiled call (lp_kernel.c): every chunk rated, picked
# and committed without the sort-based numpy pipeline or a Python round trip
# a chunk, a CSR graph read in place and a hub-free compressed graph decoded
# as rated.  A change that brings a call a chunk back would show up only as
# a slow ladder; here it fails by count.  The same run with the oracle
# installed must reach all four numpy kernels, or this guard guards nothing.
LP_PIPELINE = (
    "segment_reduce_ratings",
    "segment_best_last",
    "bulk_size_constrained_commit",
    "move_gains",
)


def _count_one_lp_pass(monkeypatch, graph):
    """Calls made by one clustering + one refinement: the numpy pipeline's
    four kernels, ``np.argsort``, ``decode_chunk``, the rounds
    (``chunk_bounds``, the runtime's one chunk walk) and the calls into the
    round entries of the kernel."""
    import sys
    from collections import Counter

    from repro.core.coarsening.lp_clustering import label_propagation_clustering
    from repro.core.config import terapart
    from repro.core.context import PartitionContext
    from repro.core.partition import PartitionedGraph
    from repro.core.refinement.lp_refine import lp_refine
    from repro.graph.compressed import CompressedGraph
    from repro.parallel.runtime import ParallelRuntime

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    drivers = [
        sys.modules["repro.core.coarsening.lp_clustering"],
        sys.modules["repro.core.refinement.lp_refine"],
        oracles,
    ]
    with monkeypatch.context() as m:
        for name in LP_PIPELINE:
            for module in drivers:
                if hasattr(module, name):
                    m.setattr(module, name, counted(name, getattr(module, name)))
        m.setattr(np, "argsort", counted("argsort", np.argsort))
        m.setattr(
            CompressedGraph, "decode_chunk", counted("decode_chunk", CompressedGraph.decode_chunk)
        )
        m.setattr(
            ParallelRuntime, "chunk_bounds", counted("rounds", ParallelRuntime.chunk_bounds)
        )
        kernels = _native.lp_kernels()
        rounds = tuple(counted("kernel", fn) for fn in kernels[:2])
        m.setattr(_native, "lp_kernels", lambda: (*rounds, *kernels[2:]))
        ctx = PartitionContext(terapart(seed=1), 8, graph.total_vertex_weight)
        clustering = label_propagation_clustering(graph, ctx, graph.total_vertex_weight // 256)
        part = np.random.default_rng(1).integers(0, 8, size=graph.n)
        moves = lp_refine(PartitionedGraph(graph, 8, part), ctx, graph.n)
    assert sum(clustering.moves_per_round) > 0 and moves > 0
    return calls


def test_lp_chunk_is_one_compiled_call(monkeypatch):
    from repro.graph.generators import kmer

    graphs = {
        "csr": kmer(5000, 4, seed=1),
        "compressed": compress_graph(weblike(5000, avg_degree=10, seed=1)),
    }
    for kind, graph in graphs.items():
        with oracles.installed("lp"), monkeypatch.context() as m:
            oracle = _count_one_lp_pass(m, graph)
        assert all(oracle[name] > 0 for name in LP_PIPELINE), (kind, oracle)
        assert oracle["kernel"] == 0 and oracle["rounds"] > 5, (kind, oracle)
    for kind, graph in graphs.items():
        calls = _count_one_lp_pass(monkeypatch, graph)
        reached = {name: calls[name] for name in (*LP_PIPELINE, "argsort") if calls[name]}
        assert not reached, (
            f"{kind}: the LP drivers fell back to the numpy pipeline ({reached}); "
            f"did a change make lp_chunk refuse the graph?"
        )
        # one call a round
        assert calls["kernel"] == calls["rounds"] > 5, (kind, calls)
        # nor is a chunk of the (hub-free) compressed graph decoded first:
        # the kernel decodes each neighbourhood as it rates it
        assert calls["decode_chunk"] == 0, (kind, calls)


# Distributed LP picks on the same kernel (lp_kernel.c's pick entries): one
# call a rank and batch, a compressed shard rated from its byte stream, and
# no numpy rating.  With the oracle installed the same run must reach the
# numpy pipeline and no pick entry, or this guard guards nothing.
def test_distributed_lp_is_one_compiled_call_a_batch(monkeypatch):
    from repro.dist import dpartition
    from repro.graph.generators import rhg

    graph = rhg(2000, avg_degree=10, seed=5)

    def calls():
        """``(numpy ratings, pick entry calls)`` of one run."""
        ratings, picks = [], []
        kernels = _native.lp_kernels()
        counted = tuple(lambda *a, _fn=fn: picks.append(1) or _fn(*a) for fn in kernels[2:])
        with monkeypatch.context() as m:
            reduce = oracles.segment_reduce_ratings
            m.setattr(oracles, "segment_reduce_ratings", lambda *a: ratings.append(1) or reduce(*a))
            m.setattr(_native, "lp_kernels", lambda: (*kernels[:2], *counted))
            assert dpartition(graph, 8, 4, compressed=True).num_levels > 0
        return len(ratings), len(picks)

    with oracles.installed("lp"):
        ratings, picks = calls()
        assert ratings > 0 and picks == 0
    ratings, picks = calls()
    assert ratings == 0 and picks > 0, "distributed LP ran the numpy pipeline"


# Contraction is the rating map too (lp_kernel.c's repro_contract_chunk),
# and every coarse graph is built by the one contraction step: buffered
# contraction is one compiled call a level, one-pass one a level too,
# distributed contraction one a rank and level, and none of them gathers
# member lists or sorts coarse edge keys in numpy; the owner merge of
# distributed contraction is its one sort left, once a level.  With the
# oracle installed the same runs must reach the numpy pipeline, or this
# guard guards nothing.
CONTRACTION_PIPELINE = (
    ("kernels", "repro.core.kernels.contraction", "aggregate_coarse_edges"),
    ("kernels", "repro.core.kernels.contraction", "gather_cluster_members"),
)


def _count_contraction_pipeline(monkeypatch, run):
    """``(calls, run())``: calls of each ``CONTRACTION_PIPELINE`` function
    (under every module name it is bound to), and of
    ``segment_reduce_ratings`` in the distributed driver, made by ``run``."""
    import sys
    from collections import Counter

    from repro.dist import dpartitioner

    calls = Counter()
    with monkeypatch.context() as m:
        for layer, home, name in CONTRACTION_PIPELINE:
            original = getattr(sys.modules[home], name)

            def counted(*args, _key=f"{layer}.{name}", _fn=original, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            holders = [mod for key, mod in sys.modules.items() if key.startswith("repro")]
            for module in [*holders, oracles]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        m.setattr(module, attr, counted)
        reduce = dpartitioner.segment_reduce_ratings
        m.setattr(
            dpartitioner,
            "segment_reduce_ratings",
            lambda *a: calls.update(["dist.segment_reduce_ratings"]) or reduce(*a),
        )
        result = run()
    return calls, result


def test_contraction_is_one_compiled_call(monkeypatch):

    import repro
    from repro.core.config import kaminpar, terapart
    from repro.dist import dpartition

    graph = weblike(5000, avg_degree=10, seed=1)
    runs = {
        "kaminpar": lambda: repro.partition(graph, 8, kaminpar(seed=1)),  # buffered
        "terapart": lambda: repro.partition(graph, 8, terapart(seed=1)),  # one-pass
        "dpartition": lambda: dpartition(graph, 8, 4),
        "dpartition-compressed": lambda: dpartition(graph, 8, 4, compressed=True),
    }
    for name, run in runs.items():
        with oracles.installed("contraction"), monkeypatch.context() as m:
            oracle, _ = _count_contraction_pipeline(m, run)
        assert all(oracle[f"{layer}.{fn}"] > 0 for layer, _, fn in CONTRACTION_PIPELINE), (
            name,
            oracle,
        )
    for name, run in runs.items():
        calls, result = _count_contraction_pipeline(monkeypatch, run)
        merges = calls.pop("dist.segment_reduce_ratings", 0)
        assert not +calls, (
            f"{name}: contraction fell back to the numpy pipeline ({dict(calls)}); "
            f"did a change make lp_chunk.contraction_step refuse the level?"
        )
        if name.startswith("dpartition"):
            assert result.num_levels > 0 and merges == result.num_levels, (name, merges)


# A service delta costs what it changes.  ``apply_delta`` binary-searches
# the named pairs inside their rows and makes one ``np.delete`` and one
# ``np.insert`` per array, so the only arrays of length m it allocates are
# those two copies of ``adjncy`` (alive together inside ``np.insert``); the
# m-length ``src * n + dst`` key array it used to build, an int64 source
# array, or a ones array for unit weights would each add another 8 m bytes
# on top.  The service then advances its key by digest instead of
# re-hashing the graph: after registration, ``graph_fingerprint`` is never
# called again.
def test_delta_allocates_its_copies_only():
    import tracemalloc

    from repro.graph.generators import rhg
    from repro.serve import apply_delta, random_delta

    graph = rhg(20_000, avg_degree=10, seed=1)
    per = int(0.005 * graph.m)
    delta = random_delta(
        graph, np.random.default_rng(0), n_add=per // 2, n_remove=per - per // 2
    )
    apply_delta(graph, delta)  # warm: lazy imports, the canonical form
    tracemalloc.start()
    try:
        new, changed = apply_delta(graph, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert changed > 0 and new.adjwgt.strides == (0,)
    copies = 2 * 8 * graph.num_directed_edges
    assert peak < copies + 4 * 8 * (graph.n + 1), (
        f"apply_delta peaked at {peak / copies:.2f}x its two adjncy copies "
        f"(m={graph.num_directed_edges}, n={graph.n}); "
        f"did a change bring back a whole-graph array?"
    )


def test_service_delta_never_rehashes_the_graph(monkeypatch):
    from repro.core.config import ServeConfig, terapart
    from repro.graph import fingerprint
    from repro.graph.generators import rhg
    from repro.serve import ServiceHandle, random_delta, service

    calls = []
    original = fingerprint.graph_fingerprint

    def counted(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(fingerprint, "graph_fingerprint", counted)
    monkeypatch.setattr(service, "graph_fingerprint", counted)
    graph = rhg(2000, avg_degree=10, seed=2)
    rng = np.random.default_rng(1)
    with ServiceHandle(terapart(), ServeConfig()) as h:
        h.register_graph("g", graph)
        assert len(calls) == 1
        for _ in range(4):
            h.apply_delta("g", random_delta(graph, rng, n_add=10, n_remove=10))
    assert len(calls) == 1, f"{len(calls) - 1} graph_fingerprint calls in 4 deltas"


def test_import_repro_loads_no_scipy():
    """The package's import floor is numpy's: scipy (only ``rgg2d``'s
    k-d tree needs it) loads with the first mesh generated, not with
    ``import repro``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = "import sys, repro\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(repro.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
