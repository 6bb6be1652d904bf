"""One-pass cluster contraction (Section IV-B2).

Builds the coarse CSR *directly*, without a second buffered copy:

1. The coarse edge array ``E'`` is reserved with ``2m`` entries via memory
   overcommitment (only touched entries are charged).
2. Coarse vertices (clusters) are processed in parallel chunks.  A chunk's
   coarse neighborhoods are aggregated (two-phase, as in clustering), then
   the shared dual counter ``(d, s)`` is advanced **once per chunk** with a
   double-width CAS: ``d`` by the number of coarse edges, ``s`` by the number
   of coarse vertices -- the paper's buffering trick ``B_t`` that reduces CAS
   contention.
3. The pre-increment values ``(d_prev, s_prev)`` give both the write position
   in ``E'`` and the *new* coarse vertex IDs, so neighborhoods of consecutive
   coarse IDs are consecutive in ``E'`` without shuffling, and ``E'``'s
   touched prefix is the coarse CSR's adjacency.

In a real parallel run the chunks finish in any order, and the coarse
numbering is a permutation of the buffered scheme's.  Here the chunks run
in issue order, so the numbering is leader order -- the buffered
scheme's.  The two schemes then return the same coarse graph and
``fine_to_coarse`` byte for byte and differ only in what they book on the
ledger.

Issue order is known before the walk, so every ``(d_prev, s_prev)`` is a
prefix sum over leader order: a level is one contraction step
(:func:`repro.core.coarsening.contraction.aggregate_clusters`) over all
coarse vertices, written into ``E'``.  Each coarse vertex's members are
summed into one map keyed by coarse id, so the neighbours come out
ascending in the new ids and ``E'``'s touched prefix *is* the coarse
``adjncy`` / ``adjwgt`` (views, no remap, no copy); on ``lp_kernel.c``'s
rating map a compressed level is decoded neighbourhood by neighbourhood
inside the call.  ``P'`` is the prefix sum of the returned degrees, and
each chunk's ``(d_prev, s_prev)`` is ``(P'[s_prev], s_prev)`` at its first
coarse vertex.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.context import PartitionContext
from repro.core.coarsening.contraction import (
    ContractionOutput,
    aggregate_clusters,
    coarse_csr,
    dense_remap,
)
from repro.core.kernels import cluster_leaders
from repro.graph.access import traversal_cost


def contract_one_pass(
    graph,
    clusters: np.ndarray,
    cluster_weights: np.ndarray,
    ctx: PartitionContext,
) -> ContractionOutput:
    """Contract ``clusters`` with the one-pass dual-counter scheme.

    The runtime's thread slices get each chunk's seconds as the one step
    call's measured time split by the chunk's share of the fine edges read.
    """
    tracker = ctx.tracker
    runtime = ctx.runtime
    n = graph.n
    m2 = graph.num_directed_edges

    leaders = cluster_leaders(clusters)
    n_coarse = len(leaders)

    # working-set accounting: per-thread hash tables + chunk buffers B_t,
    # the overcommitted E' (ids + weights), P', and the remap array
    t_bump = ctx.effective_t_bump(n)
    edge_bytes, work_factor = traversal_cost(graph)
    table_bytes = 16 * (1 << max(1, (2 * t_bump - 1).bit_length()))
    aux_aid = tracker.alloc(
        "one-pass-aux",
        runtime.p * (table_bytes + 16 * ctx.effective_buffer_capacity(n)) + 8 * n,
        "contraction",
    )
    eprime_aid = tracker.alloc(
        "coarse-edge-array", 16 * m2, "graph", overcommit=True
    )
    pprime_aid = tracker.alloc("coarse-indptr", 8 * (n_coarse + 1), "graph")

    with ctx.tracer.span("contraction-aggregate"):
        bounds, tids = runtime.chunk_bounds(n_coarse)
        fine_to_coarse = dense_remap(clusters, leaders)
        # E': ids and weights, as the overcommitted booking above reserves it
        eprime = np.empty((2, m2), dtype=np.int64)
        t0 = time.perf_counter()
        # every coarse neighbourhood, in leader order, keyed by coarse id
        fine_edges, degrees, adjncy, adjwgt = aggregate_clusters(
            graph, fine_to_coarse, n_coarse, eprime
        )
        seconds = time.perf_counter() - t0
        new_vwgt = np.asarray(cluster_weights[leaders], dtype=np.int64)
        coarse = coarse_csr(degrees, adjncy, adjwgt, new_vwgt)
        m2_coarse = len(adjncy)
        tracker.touch(eprime_aid, 16 * m2_coarse)
        # each chunk's share of the fine edges read, as the step counted them
        read = np.zeros(n_coarse + 1)
        np.cumsum(np.bincount(fine_to_coarse, np.asarray(graph.degrees), n_coarse), out=read[1:])
        scanned = read[bounds[:, 1]] - read[bounds[:, 0]]
        runtime.record_chunks(
            "contraction", tids, bounds[:, 1] - bounds[:, 0],
            seconds * scanned / max(fine_edges, 1),
            work=float(fine_edges) * work_factor + float(m2_coarse),
            bytes_moved=edge_bytes * fine_edges + 16.0 * m2_coarse,
            atomic_ops=len(bounds),  # one dual-counter CAS a chunk
        )  # fmt: skip

    bumped = int(np.sum(degrees >= t_bump))
    tracer = ctx.tracer
    tracer.add("contraction.coarse_edges", m2_coarse)
    tracer.add("contraction.cas_transactions", len(bounds))
    tracer.add("contraction.bumped_clusters", bumped)

    tracker.free(aux_aid)
    tracker.free(eprime_aid)
    tracker.free(pprime_aid)
    graph_aid = tracker.alloc("coarse-graph", coarse.nbytes, "graph")
    return ContractionOutput(coarse, fine_to_coarse, graph_aid, bumped_clusters=bumped)
