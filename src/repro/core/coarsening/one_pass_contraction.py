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

A chunk's aggregation is one call into ``lp_kernel.c``'s rating map
(:func:`repro.core.kernels.lp_chunk.contraction_step`) writing the chunk's
buffer ``B_t``: each coarse vertex's members are summed into one map keyed
by cluster leader, and the neighbours come out ascending -- the order of the
sort-based oracle, :func:`_oracle_step`, which runs without the compiled
library.  A compressed level is decoded neighbourhood by neighbourhood
inside the call; only a chunk holding a hub is decoded first.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import PartitionContext
from repro.core.coarsening.contraction import ContractionOutput
from repro.core.kernels import (
    aggregate_coarse_edges,
    cluster_leaders,
    cluster_members,
    gather_cluster_members,
)
from repro.core.kernels.lp_chunk import contraction_step
from repro.graph.access import chunk_adjacency, traversal_cost
from repro.graph.csr import CSRGraph
from repro.parallel.atomics import DualCounter
from repro.verify.declarations import recorder_for


def _oracle_step(graph, clusters, leaders, member_order, offsets):
    """``step(leader_idx)`` by the numpy pipeline: ``(edges, degrees, pc,
    pw)`` of the chunk's coarse vertices ``leaders[leader_idx]``, as the
    kernel step returns them."""

    def step(leader_idx):
        members, member_owner = gather_cluster_members(
            member_order, offsets[:-1], offsets[1:], leader_idx
        )
        owner_m, nbrs, wgts = chunk_adjacency(graph, members)
        po, pc, pw, _ = aggregate_coarse_edges(
            member_owner[owner_m], clusters[nbrs], wgts, leaders[leader_idx],
            graph.n, len(leader_idx),
        )  # fmt: skip
        return len(owner_m), np.bincount(po, minlength=len(leader_idx)), pc, pw

    return step


def _kernel_step(graph, clusters, leaders, member_order, offsets):
    """``step(leader_idx)`` on the kernel, or ``None`` without it."""
    call = contraction_step(graph, clusters, graph.n)
    if call is None:
        return None

    def step(leader_idx):
        # a chunk is a run of consecutive leaders, so its members are too
        a, b = int(leader_idx[0]), int(leader_idx[-1]) + 1
        members = member_order[offsets[a] : offsets[b]]
        return call(members, offsets[a : b + 1], leaders[a:b])

    return step


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
    step = _kernel_step(graph, clusters, leaders, member_order, offsets) or _oracle_step(
        graph, clusters, leaders, member_order, offsets
    )

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
    sched = runtime.schedule(np.arange(n_coarse, dtype=np.int64))
    # the jitter is always drawn so the rng stream is independent of any
    # schedule-policy override the verify layer installs
    jitter = ctx.rng.uniform(0.0, 2.0 * runtime.p, size=sched.num_chunks)
    default_order = np.argsort(np.arange(sched.num_chunks) + jitter)
    chunk_weights = None
    if runtime.schedule_policy == "heavy-first":
        chunk_weights = np.array(
            [int(offsets[c[-1] + 1] - offsets[c[0]]) for c in sched.chunks],
            dtype=np.int64,
        )
    with runtime.region("contraction"), ctx.tracer.span("contraction-aggregate"):
        for _tid, leader_idx in runtime.execute(
            sched,
            weights=chunk_weights,
            default_order=default_order,
            phase="contraction",
        ):
            # leader_idx: indices into `leaders`
            chunk_leaders = leaders[leader_idx]
            # B_t: the chunk's coarse neighbourhoods, grouped by coarse
            # vertex (clusters ascending within each)
            edges, nc, pc, pw = step(leader_idx)
            bumped += int(np.sum(nc >= t_bump))

            # dual-counter transaction for the whole chunk (buffered CAS)
            d_prev, s_prev = dual.fetch_add(len(pc), len(leader_idx))

            # place the neighbourhoods at E'[d_prev:]
            eprime_dst[d_prev : d_prev + len(pc)] = pc
            eprime_w[d_prev : d_prev + len(pc)] = pw
            pprime[s_prev : s_prev + len(leader_idx)] = d_prev + np.cumsum(nc) - nc
            new_ids = s_prev + np.arange(len(leader_idx), dtype=np.int64)
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
                rec.write(
                    "coarse-indptr", np.arange(s_prev, s_prev + len(leader_idx))
                )
                rec.write("new-id-of-leader", chunk_leaders)
                rec.write("coarse-vwgt", new_ids)

            tracker.touch(eprime_aid, 16 * dual.d)
            runtime.record(
                "contraction",
                work=float(edges) * work_factor + float(len(pc)),
                bytes_moved=edge_bytes * edges + 16.0 * len(pc),
                atomic_ops=1,
            )

    m2_coarse = dual.d
    assert dual.s == n_coarse
    pprime[n_coarse] = m2_coarse
    tracer = ctx.tracer
    tracer.add("contraction.coarse_edges", m2_coarse)
    tracer.add("contraction.cas_transactions", sched.num_chunks)
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
