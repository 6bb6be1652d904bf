"""Per-layer microbenches of the ladder.

Each microbench calls one public function of one layer directly, on data
derived from its *home* workload's graph, and reports the median over
``iterations`` samples of at least ``min_seconds`` each, normalised to
ns per edge / value / move / entry / byte.  They run after the timed reps
and the traced rep, so nothing here is on the end-to-end clock.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# chunk size of the decode / gather microbenches: the scale LP traverses
CHUNK = 1024


@dataclass(frozen=True)
class Budget:
    min_seconds: float = 0.2
    iterations: int = 5


QUICK_BUDGET = Budget(min_seconds=0.005, iterations=2)


def ns_per_unit(fn, units: int, budget: Budget, *, fresh=None) -> float:
    """Median ns per unit of ``fn(state)``; ``fresh()`` rebuilds the state
    a call consumes (outside the clock)."""

    def sample(loops: int) -> float:
        total = 0.0
        for _ in range(loops):
            state = fresh() if fresh is not None else None
            t0 = time.perf_counter()
            fn(state)
            total += time.perf_counter() - t0
        return total

    loops = 1
    elapsed = sample(loops)
    while elapsed < budget.min_seconds:
        grow = budget.min_seconds / max(elapsed, 1e-9)
        loops = max(loops + 1, int(loops * grow * 1.2) + 1)
        elapsed = sample(loops)
    samples = [elapsed] + [sample(loops) for _ in range(budget.iterations - 1)]
    return statistics.median(samples) / (loops * max(units, 1)) * 1e9


def _chunks(n: int) -> list[np.ndarray]:
    return [
        np.arange(lo, min(lo + CHUNK, n), dtype=np.int64)
        for lo in range(0, n, CHUNK)
    ]


# --------------------------------------------------------------------- #
# home: web-terapart (codec, compressed traversal, rating aggregation)
# --------------------------------------------------------------------- #
def graph_layer(graph, budget: Budget) -> dict[str, float]:
    from repro.graph.access import chunk_adjacency, segment_reduce_ratings
    from repro.graph.compressed import compress_graph
    from repro.graph.varint import decode_region_bulk, encode_stream_bulk

    out: dict[str, float] = {}
    edges = graph.num_directed_edges
    # gap-like non-negative values, the distribution the codec sees
    values = np.abs(np.diff(graph.adjncy)).astype(np.int64)
    encoded = encode_stream_bulk(values)
    out["varint.encode_ns_per_value"] = ns_per_unit(
        lambda _: encode_stream_bulk(values), len(values), budget
    )
    out["varint.decode_ns_per_value"] = ns_per_unit(
        lambda _: decode_region_bulk(encoded), len(values), budget
    )

    cg = compress_graph(graph)
    chunks = _chunks(graph.n)
    out["compressed.bytes_per_edge"] = cg.nbytes / max(edges, 1)

    def decode_all(_):
        for c in chunks:
            cg.decode_chunk(c)

    out["compressed.decode_cold_ns_per_edge"] = ns_per_unit(
        decode_all, edges, budget
    )
    cg.enable_decode_cache(64 * graph.nbytes)  # roomy: every page stays
    try:
        decode_all(None)  # fill
        out["compressed.decode_cached_ns_per_edge"] = ns_per_unit(
            decode_all, edges, budget
        )
    finally:
        cg.disable_decode_cache()

    def gather_all(_):
        for c in chunks:
            chunk_adjacency(graph, c)

    out["compressed.csr_gather_ns_per_edge"] = ns_per_unit(
        gather_all, edges, budget
    )

    # one LP rating pass with singleton clusters: (owner, cluster, weight)
    decoded = [chunk_adjacency(graph, c) for c in chunks]

    def rate_all(_):
        for owner, nbrs, wgts in decoded:
            segment_reduce_ratings(owner, nbrs, wgts, graph.n)

    out["access.segment_reduce_ns_per_edge"] = ns_per_unit(
        rate_all, edges, budget
    )
    return out


# --------------------------------------------------------------------- #
# home: kmer-kaminpar (commit and contraction kernels on the CSR path)
# --------------------------------------------------------------------- #
def coarsening_kernels(graph, budget: Budget) -> dict[str, float]:
    from repro.core.kernels import (
        aggregate_coarse_edges,
        bulk_size_constrained_commit,
    )
    from repro.graph.access import full_adjacency

    out: dict[str, float] = {}
    n = graph.n
    src, dst, wgt = full_adjacency(graph)
    wgt = np.ascontiguousarray(wgt)

    # first LP round: every vertex is a singleton cluster and asks to join
    # its first neighbor's cluster, capped at 4 members
    movers = np.flatnonzero(np.diff(graph.indptr) > 0)
    targets = graph.adjncy[graph.indptr[movers]]
    weights = np.ones(len(movers), dtype=np.int64)
    out["kernels.commit_ns_per_move"] = ns_per_unit(
        lambda caps: bulk_size_constrained_commit(
            targets, movers, weights, caps, 4
        ),
        len(movers),
        budget,
        fresh=lambda: np.ones(n, dtype=np.int64),
    )

    # contraction of a 4-vertices-per-cluster clustering, one chunk
    leaders = np.arange(0, n, 4, dtype=np.int64)
    owner = src // 4
    cluster_of_dst = (dst // 4) * 4
    out["kernels.aggregate_ns_per_edge"] = ns_per_unit(
        lambda _: aggregate_coarse_edges(
            owner, cluster_of_dst, wgt, leaders, n, len(leaders)
        ),
        len(src),
        budget,
    )
    return out


# --------------------------------------------------------------------- #
# home: mesh-fm (sparse gain table hash kernels)
# --------------------------------------------------------------------- #
def gain_table_kernels(graph, k: int, budget: Budget) -> dict[str, float]:
    from repro.core.kernels import batch_hash_insert, batch_hash_probe
    from repro.graph.access import full_adjacency, segment_reduce_ratings

    n = graph.n
    part = (np.arange(n, dtype=np.int64) * k) // max(n, 1)
    src, dst, wgt = full_adjacency(graph)
    po, pb, pa = segment_reduce_ratings(src, part[dst], np.asarray(wgt), k)
    # the sparse table's layout: next_pow2(2 * deg) slots per hash row
    degrees = np.maximum(np.diff(graph.indptr), 1)
    caps = np.maximum(2, 2 ** np.ceil(np.log2(2 * degrees)).astype(np.int64))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(caps, out=offsets[1:])
    lo, cap = offsets[po], caps[po]
    total = int(offsets[-1])

    def fresh():
        return np.full(total, -1, dtype=np.int32), np.zeros(total, dtype=np.int64)

    out: dict[str, float] = {}
    out["kernels.hash_insert_ns_per_entry"] = ns_per_unit(
        lambda kv: batch_hash_insert(kv[0], kv[1], lo, cap, pb, pa),
        len(po),
        budget,
        fresh=fresh,
    )
    keys, vals = fresh()
    batch_hash_insert(keys, vals, lo, cap, pb, pa)
    out["kernels.hash_probe_ns_per_probe"] = ns_per_unit(
        lambda _: batch_hash_probe(keys, lo, cap, pb), len(po), budget
    )
    return out


# --------------------------------------------------------------------- #
# home: small-k64 (the scalar initial-partitioning loops)
# --------------------------------------------------------------------- #
def initial_kernels(coarse_graph, seed: int, budget: Budget) -> dict[str, float]:
    from repro.core.initial import (
        fm2way_refine,
        greedy_graph_growing_bipartition,
    )

    g = coarse_graph
    half = g.total_vertex_weight // 2
    cap = int(1.03 * -(-g.total_vertex_weight // 2))
    edges = g.num_directed_edges
    out: dict[str, float] = {}
    out["initial.ggg_ns_per_edge"] = ns_per_unit(
        lambda rng: greedy_graph_growing_bipartition(g, half, cap, rng),
        edges,
        budget,
        fresh=lambda: np.random.default_rng(seed),
    )
    start = greedy_graph_growing_bipartition(
        g, half, cap, np.random.default_rng(seed)
    )
    out["initial.fm2way_ns_per_edge"] = ns_per_unit(
        lambda part: fm2way_refine(g, part, (cap, cap), rounds=2),
        edges,
        budget,
        fresh=start.copy,
    )
    return out


# --------------------------------------------------------------------- #
# home: dist-x4 (one collective of the simulated communicator)
# --------------------------------------------------------------------- #
def comm_kernels(ranks: int, budget: Budget) -> dict[str, float]:
    from repro.dist import SimComm

    comm = SimComm(ranks)
    payload = np.zeros(8192, dtype=np.int64)  # 64 KiB per (src, dst) pair
    send = [[payload for _ in range(ranks)] for _ in range(ranks)]
    traffic = payload.nbytes * ranks * (ranks - 1)
    return {
        "dist.alltoallv_ns_per_byte": ns_per_unit(
            lambda _: comm.alltoallv(send), traffic, budget
        )
    }


MICRO_NAMES: tuple[str, ...] = (
    "varint.encode_ns_per_value",
    "varint.decode_ns_per_value",
    "compressed.decode_cold_ns_per_edge",
    "compressed.decode_cached_ns_per_edge",
    "compressed.csr_gather_ns_per_edge",
    "compressed.bytes_per_edge",
    "access.segment_reduce_ns_per_edge",
    "kernels.commit_ns_per_move",
    "kernels.aggregate_ns_per_edge",
    "kernels.hash_insert_ns_per_entry",
    "kernels.hash_probe_ns_per_probe",
    "initial.fm2way_ns_per_edge",
    "initial.ggg_ns_per_edge",
    "dist.alltoallv_ns_per_byte",
)
