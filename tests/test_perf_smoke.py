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


# The numpy decoder (the oracle, and the only path without a C compiler)
# merges the interval and residual streams of a chunk by interval, not by
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
    monkeypatch.setattr(_native, "decode_kernel", lambda: None)
    order = np.random.default_rng(0).permutation(g.n).astype(np.int64)
    queries = 0
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        nonlocal queries
        queries += np.size(v)
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
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

    from repro.core.initial import bipartition, fm2way

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

    with monkeypatch.context() as m:
        m.setattr(_native, "bisection_kernels", lambda: None)
        for module in (fm2way, bipartition):
            m.setattr(module, "heappop", heappop)
            m.setattr(module, "heappush", heappush)
        m.setattr(fm2way, "heapify", heapify)
        return run(lambda ws: list(counts))


def test_initial_heap_work_stays_proportional(monkeypatch):
    from repro.core.initial import bipartition, fm2way
    from repro.core.initial.workspace import BisectionWorkspace
    from repro.graph.generators import rgg2d

    g = rgg2d(2048, 8.0, seed=1)
    total = g.total_vertex_weight
    half, cap = total // 2, int(1.03 * -(-total // 2))

    def run(read_counts):
        ws = BisectionWorkspace(g)
        start = bipartition.greedy_graph_growing_bipartition(
            ws, half, cap, np.random.default_rng(1)
        )
        grown = read_counts(ws)
        fm2way.fm2way_refine(ws, start, (cap, cap), rounds=2)
        return grown, [b - a for a, b in zip(grown, read_counts(ws))]

    paths = {"oracle": _heap_work_of_the_oracle(monkeypatch, run)}
    if _native.bisection_kernels() is not None:
        paths["kernel"] = run(lambda ws: ws.kernels().work.tolist())
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
# over one loop with one bulk encoder: the scalar `encode_neighborhood` runs
# only for a vertex above the chunking threshold, once.  At the parent the
# thread and file doors called it once per vertex (3 000 here).  The packets
# of all three are cut by `balanced_cuts`, which `schedule_balanced` wraps.
def test_compressors_share_one_bulk_encoder(monkeypatch, tmp_path):
    from repro.graph import compressed
    from repro.graph.compression import compress_graph_parallel
    from repro.graph.generators import star
    from repro.graph.io import stream_compressed, write_binary
    from repro.parallel.runtime import ParallelRuntime, balanced_cuts

    calls = []
    scalar = compressed.encode_neighborhood

    def counting(u, *args):
        calls.append(u)
        scalar(u, *args)

    monkeypatch.setattr(compressed, "encode_neighborhood", counting)

    def doors(graph, name, **kw):
        path = tmp_path / name
        write_binary(graph, path)
        compressed.compress_graph(graph, **kw)
        yield "memory"
        compress_graph_parallel(graph, ParallelRuntime(4, chunk_size=64), **kw)
        yield "threads"
        stream_compressed(path, packet_edges=1 << 10, **kw)
        yield "file"

    for door in doors(weblike(3000, avg_degree=10.0, seed=1), "web.bin"):
        assert calls == [], f"{door}: per-vertex scalar encode is back"
    for door in doors(
        star(500), "star.bin", high_degree_threshold=100, chunk_length=64
    ):
        assert calls == [0], f"{door}: only the hub is encoded by the scalar path"
        calls.clear()

    weights = np.array([1, 1, 900, 1, 1, 1, 40, 40, 40, 1, 1, 0, 0, 500, 3, 3])
    sched = ParallelRuntime(3, chunk_size=4).schedule_balanced(
        np.arange(len(weights)), weights
    )
    prefix = np.concatenate(([0], np.cumsum(weights)))
    cuts = balanced_cuts(prefix, prefix[-1] / 4)
    assert [c[0] for c in sched.chunks] == cuts[:-1].tolist()
    assert [c[-1] + 1 for c in sched.chunks] == cuts[1:].tolist()
    assert 2 < len(cuts) <= 5


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


# An LP chunk is one compiled call (lp_kernel.c): rate, pick and commit
# without the sort-based numpy pipeline, a CSR graph read in place and a
# compressed chunk decoded exactly once.  The fallback to that pipeline is
# silent by design, so a change that loses the kernel path (a dtype the
# wrapper refuses, a renamed symbol) would show up only as a slow ladder;
# here it fails by count.  The same run with the kernel hidden must reach
# all four numpy kernels, or this guard guards nothing.
LP_PIPELINE = (
    "segment_reduce_ratings",
    "segment_best_last",
    "bulk_size_constrained_commit",
    "move_gains",
)


def _count_one_lp_pass(monkeypatch, graph):
    """Calls made by one clustering + one refinement: the numpy pipeline's
    four kernels, ``np.argsort``, ``decode_chunk``, and the chunks handed out."""
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

    def execute(self, sched, **kwargs):
        for item in run_chunks(self, sched, **kwargs):
            calls["chunks"] += 1
            yield item

    run_chunks = ParallelRuntime.execute
    drivers = [
        sys.modules["repro.core.coarsening.lp_clustering"],
        sys.modules["repro.core.refinement.lp_refine"],
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
        m.setattr(ParallelRuntime, "execute", execute)
        ctx = PartitionContext(terapart(seed=1), 8, graph.total_vertex_weight)
        clustering = label_propagation_clustering(graph, ctx, graph.total_vertex_weight // 256)
        part = np.random.default_rng(1).integers(0, 8, size=graph.n)
        moves = lp_refine(PartitionedGraph(graph, 8, part), ctx, graph.n)
    assert sum(clustering.moves_per_round) > 0 and moves > 0
    return calls


def test_lp_chunk_is_one_compiled_call(monkeypatch):
    import pytest
    from repro.graph.generators import kmer

    graphs = {
        "csr": kmer(5000, 4, seed=1),
        "compressed": compress_graph(weblike(5000, avg_degree=10, seed=1)),
    }
    for kind, graph in graphs.items():
        with monkeypatch.context() as m:
            m.setattr(_native, "lp_kernels", lambda: None)
            oracle = _count_one_lp_pass(m, graph)
        assert all(oracle[name] > 0 for name in LP_PIPELINE), (kind, oracle)
        assert oracle["chunks"] > 20
    if _native.lp_kernels() is None:
        pytest.skip("no compiled LP chunk (no C compiler, or REPRO_NATIVE=0)")
    for kind, graph in graphs.items():
        calls = _count_one_lp_pass(monkeypatch, graph)
        reached = {name: calls[name] for name in (*LP_PIPELINE, "argsort") if calls[name]}
        assert not reached, (
            f"{kind}: the LP drivers fell back to the numpy pipeline ({reached}); "
            f"did a change make lp_chunk refuse the graph?"
        )
        assert calls["chunks"] > 20
        # nor is a chunk of the (hub-free) compressed graph decoded first:
        # the kernel decodes each neighbourhood as it rates it
        assert calls["decode_chunk"] == 0, (kind, calls)


# Contraction is the rating map too (lp_kernel.c's repro_contract_chunk):
# buffered contraction is one compiled call a level, one-pass one a chunk,
# and neither sorts coarse edge keys or gathers member lists in numpy.  Those
# pipelines stay as oracle and fallback, silent like LP's, so a change that
# loses the kernel path fails here by count.  With the kernel hidden the same
# partitions must reach them, or this guard guards nothing.
CONTRACTION_PIPELINE = (
    ("kernels", "repro.core.kernels.contraction", "aggregate_coarse_edges"),
    ("kernels", "repro.core.kernels.contraction", "gather_cluster_members"),
    ("coarsening", "repro.core.coarsening.contraction", "aggregate_coarse_edges"),
)


def _count_contraction_pipeline(monkeypatch, graph, preset):
    """Calls of each ``CONTRACTION_PIPELINE`` function (under every module
    name it is bound to) made by one ``partition``."""
    import sys
    from collections import Counter

    import repro

    calls = Counter()
    with monkeypatch.context() as m:
        for layer, home, name in CONTRACTION_PIPELINE:
            original = getattr(sys.modules[home], name)

            def counted(*args, _key=f"{layer}.{name}", _fn=original, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            for module in [mod for key, mod in sys.modules.items() if key.startswith("repro")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        m.setattr(module, attr, counted)
        repro.partition(graph, 8, preset(seed=1))
    return calls


def test_contraction_is_one_compiled_call(monkeypatch):
    import pytest
    from repro.core.config import kaminpar, terapart

    graph = weblike(5000, avg_degree=10, seed=1)
    presets = {"kaminpar": kaminpar, "terapart": terapart}  # buffered, one-pass
    for name, preset in presets.items():
        with monkeypatch.context() as m:
            m.setattr(_native, "contraction_kernels", lambda: None)
            oracle = _count_contraction_pipeline(m, graph, preset)
        reached = {"kaminpar": ["coarsening.aggregate_coarse_edges"]}.get(
            name, ["kernels.aggregate_coarse_edges", "kernels.gather_cluster_members"]
        )
        assert all(oracle[key] > 0 for key in reached), (name, oracle)
    if _native.contraction_kernels() is None:
        pytest.skip("no compiled contraction (no C compiler, or REPRO_NATIVE=0)")
    for name, preset in presets.items():
        calls = _count_contraction_pipeline(monkeypatch, graph, preset)
        assert not +calls, (
            f"{name}: contraction fell back to the numpy pipeline ({dict(calls)}); "
            f"did a change make lp_chunk.contraction_step refuse the level?"
        )
