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
   coarse IDs are consecutive in ``E'`` without shuffling; endpoints are
   remapped from old cluster IDs to new IDs at the end.

Because chunk completion order in a real parallel run is nondeterministic,
the resulting coarse vertex numbering is a permutation of the buffered
scheme's numbering.  We process chunks in a seeded shuffled order to exhibit
exactly that behaviour; tests verify isomorphism against buffered output.

A chunk's aggregation is one contraction step
(:func:`repro.core.kernels.contraction_step`) writing the chunk's buffer
``B_t``: each coarse vertex's members are summed into one map keyed by
cluster leader, and the neighbours come out ascending.  On ``lp_kernel.c``'s
rating map a compressed level is decoded neighbourhood by neighbourhood
inside the call; only a chunk holding a hub is decoded first.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.context import PartitionContext
from repro.core.coarsening.contraction import ContractionOutput
from repro.core.kernels import cluster_leaders, cluster_members, contraction_step
from repro.graph.access import traversal_cost
from repro.graph.csr import CSRGraph
from repro.parallel.atomics import DualCounter
from repro.verify.declarations import recorder_for


def contract_one_pass(
    graph,
    clusters: np.ndarray,
    cluster_weights: np.ndarray,
    ctx: PartitionContext,
) -> ContractionOutput:
    """Contract ``clusters`` with the one-pass dual-counter scheme."""
    tracker = ctx.tracker
    runtime = ctx.runtime
    n = graph.n
    m2 = graph.num_directed_edges

    # leaders and member lists: vertices grouped by their cluster leader
    leaders = cluster_leaders(clusters)
    n_coarse = len(leaders)
    member_order, offsets = cluster_members(clusters, leaders)
    step = contraction_step(graph, clusters, n)

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

    # shared-access declarations: repro.verify.declarations, key
    # "one-pass-contraction" -- checked here dynamically and by `repro lint`
    rec = recorder_for(ctx.detector, "one-pass-contraction")
    dual = DualCounter(detector=ctx.detector)
    eprime_dst = np.empty(m2, dtype=np.int64)  # old cluster IDs, remapped later
    eprime_w = np.empty(m2, dtype=np.int64)
    pprime = np.zeros(n_coarse + 1, dtype=np.int64)
    new_id_of_leader = np.full(n, -1, dtype=np.int64)
    new_vwgt = np.empty(n_coarse, dtype=np.int64)
    bumped = 0

    # Chunk completion order in a real parallel run is nondeterministic but
    # only *locally* so: with p threads pulling chunks in issue order, a
    # chunk finishes within ~p positions of its index.  Model that with a
    # bounded perturbation (a full shuffle would destroy the vertex-ID
    # locality real runs retain, measurably hurting downstream quality).
    cs = runtime.chunk_size
    n_chunks = -(-n_coarse // cs)
    # the jitter is always drawn so the rng stream is independent of any
    # schedule-policy override the verify layer installs
    jitter = ctx.rng.uniform(0.0, 2.0 * runtime.p, size=n_chunks)
    default_order = np.argsort(np.arange(n_chunks) + jitter)
    chunk_weights = None
    if runtime.schedule_policy == "heavy-first":
        # a chunk weighs its members
        chunk_weights = np.diff(offsets[np.minimum(np.arange(n_chunks + 1) * cs, n_coarse)])
    det = ctx.detector
    # per chunk: seconds, fine edges scanned, coarse edges written
    seconds = np.zeros(n_chunks)
    scanned = np.zeros(n_chunks, dtype=np.int64)
    written = np.zeros(n_chunks, dtype=np.int64)
    with runtime.region("contraction"), ctx.tracer.span("contraction-aggregate"):
        bounds, tids = runtime.chunk_bounds(
            n_coarse, weights=chunk_weights, default=default_order
        )
        for j, ((a, b), tid) in enumerate(zip(bounds.tolist(), tids.tolist())):
            if det is not None:
                det.current_tid = tid
            t0 = time.perf_counter()
            # [a, b): a run of consecutive indices into `leaders`, so the
            # chunk's members are a run of `member_order` too
            chunk_leaders = leaders[a:b]
            # B_t: the chunk's coarse neighbourhoods, grouped by coarse
            # vertex (clusters ascending within each)
            edges, nc, pc, pw = step(
                member_order[offsets[a] : offsets[b]], offsets[a : b + 1], chunk_leaders
            )
            bumped += int(np.sum(nc >= t_bump))

            # dual-counter transaction for the whole chunk (buffered CAS)
            d_prev, s_prev = dual.fetch_add(len(pc), b - a)

            # place the neighbourhoods at E'[d_prev:]
            eprime_dst[d_prev : d_prev + len(pc)] = pc
            eprime_w[d_prev : d_prev + len(pc)] = pw
            pprime[s_prev : s_prev + b - a] = d_prev + np.cumsum(nc) - nc
            new_ids = s_prev + np.arange(b - a, dtype=np.int64)
            new_id_of_leader[chunk_leaders] = new_ids
            new_vwgt[new_ids] = cluster_weights[chunk_leaders]

            if rec.active:
                # plain writes: the dual counter's pre-increment values must
                # make every chunk's slices disjoint -- the detector
                # verifies it
                if len(pc):
                    rec.write(
                        "coarse-edges", np.arange(d_prev, d_prev + len(pc))
                    )
                rec.write("coarse-indptr", np.arange(s_prev, s_prev + b - a))
                rec.write("new-id-of-leader", chunk_leaders)
                rec.write("coarse-vwgt", new_ids)

            tracker.touch(eprime_aid, 16 * dual.d)
            scanned[j], written[j] = edges, len(pc)
            seconds[j] = time.perf_counter() - t0
        fine_edges, coarse_edges = int(scanned.sum()), int(written.sum())
        runtime.record_chunks(
            "contraction", tids, bounds[:, 1] - bounds[:, 0], seconds,
            work=float(fine_edges) * work_factor + float(coarse_edges),
            bytes_moved=edge_bytes * fine_edges + 16.0 * coarse_edges,
            atomic_ops=n_chunks,  # one dual-counter CAS a chunk
        )  # fmt: skip

    m2_coarse = dual.d
    assert dual.s == n_coarse
    pprime[n_coarse] = m2_coarse
    tracer = ctx.tracer
    tracer.add("contraction.coarse_edges", m2_coarse)
    tracer.add("contraction.cas_transactions", n_chunks)
    tracer.add("contraction.bumped_clusters", bumped)

    # remap endpoints from old cluster IDs to new coarse IDs (Fig. 3, bottom)
    adjncy = new_id_of_leader[eprime_dst[:m2_coarse]]
    adjwgt = eprime_w[:m2_coarse]
    unit = bool(m2_coarse == 0 or np.all(adjwgt == 1))
    coarse = CSRGraph(
        pprime,
        adjncy,
        None if unit else adjwgt.copy(),
        new_vwgt,
        sorted_neighborhoods=False,
    )
    fine_to_coarse = new_id_of_leader[clusters]

    tracker.free(aux_aid)
    tracker.free(eprime_aid)
    tracker.free(pprime_aid)
    graph_aid = tracker.alloc("coarse-graph", coarse.nbytes, "graph")
    return ContractionOutput(coarse, fine_to_coarse, graph_aid, bumped_clusters=bumped)
