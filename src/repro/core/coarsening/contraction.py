"""Buffered cluster contraction (the baseline KaMinPar scheme).

Computes all coarse edges into temporary per-thread buffers, then -- once
every degree is known -- computes the offset prefix sum and *copies* the
buffered edges into the final CSR arrays.  The coarse graph therefore exists
twice in memory at the peak (Section IV-B: "a set of temporary buffers
storing E' during aggregation; before the edges are copied to E'"), which is
exactly what one-pass contraction eliminates.

The aggregation is one call into ``lp_kernel.c``'s rating map
(:func:`repro.core.kernels.lp_chunk.contraction_step`) over every coarse
vertex in leader order, keyed by dense coarse id: each coarse neighbourhood
comes out ascending, so the buffers already are the sorted CSR.  Without
the compiled library, :func:`aggregate_coarse_edges` -- one global sort of
the coarse edge keys -- builds the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import PartitionContext
from repro.core.kernels.contraction import cluster_leaders, cluster_members
from repro.core.kernels.lp_chunk import contraction_step
from repro.graph.access import full_adjacency, traversal_cost
from repro.graph.csr import CSRGraph
from repro.memory.scratch import tracked_empty, tracked_full


@dataclass
class ContractionOutput:
    """Result of a contraction step.

    ``graph_aid`` is the ledger handle of the coarse graph's allocation; the
    hierarchy owns it and frees it when the level is dropped.
    """

    coarse: CSRGraph
    fine_to_coarse: np.ndarray
    graph_aid: int
    bumped_clusters: int = 0


def _dense_remap(clusters: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Map sparse leader IDs to dense coarse IDs [0, n') in leader order."""
    leaders = cluster_leaders(clusters)
    n_coarse = len(leaders)
    remap = tracked_full(len(clusters), -1, np.int64, name="contract-remap")
    remap[leaders] = np.arange(n_coarse, dtype=np.int64)
    fine_to_coarse = remap[clusters]
    return fine_to_coarse, leaders, n_coarse


def aggregate_coarse_edges(
    graph, fine_to_coarse: np.ndarray, n_coarse: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All coarse directed edges ``(cu, cv, w)`` with self-loops dropped.

    Parallel edges are merged by weight summation -- the contraction analogue
    of rating aggregation.  The oracle and fallback of the kernel call in
    :func:`contract_buffered`.
    """
    src, dst, wgt = full_adjacency(graph)
    cu = fine_to_coarse[src]
    cv = fine_to_coarse[dst]
    keep = cu != cv
    cu, cv, wgt = cu[keep], cv[keep], np.asarray(wgt)[keep]
    if len(cu) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    key = cu * np.int64(n_coarse) + cv
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    w_s = wgt[order]
    boundary = tracked_empty(len(key_s), bool, name="contract-edge-bounds")
    boundary[0] = True
    boundary[1:] = key_s[1:] != key_s[:-1]
    starts = np.flatnonzero(boundary)
    w_merged = np.add.reduceat(w_s, starts)
    key_u = key_s[starts]
    return key_u // n_coarse, key_u % n_coarse, w_merged


def contract_buffered(
    graph,
    clusters: np.ndarray,
    cluster_weights: np.ndarray,
    ctx: PartitionContext,
) -> ContractionOutput:
    """Contract ``clusters`` with the two-copy buffered scheme."""
    tracker = ctx.tracker
    fine_to_coarse, leaders, n_coarse = _dense_remap(clusters)

    # per-thread aggregation maps (sparse arrays over coarse IDs)
    maps_aid = tracker.alloc(
        "contraction-rating-maps", ctx.runtime.p * 16 * n_coarse, "contraction"
    )
    step = contraction_step(graph, fine_to_coarse, n_coarse)
    if step is None:
        cu, cv, w = aggregate_coarse_edges(graph, fine_to_coarse, n_coarse)
        degrees = np.bincount(cu, minlength=n_coarse)
    else:
        members, offsets = cluster_members(clusters, leaders)
        _, degrees, cv, w = step(members, offsets, np.arange(n_coarse, dtype=np.int64))
    m2 = len(cv)

    # the temporary edge buffers: E' held once in buffers ...
    buf_aid = tracker.alloc("contraction-edge-buffers", 16 * m2, "contraction")
    # ... and once in the final CSR arrays (the duplicate one-pass removes)
    indptr = np.zeros(n_coarse + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    unit = bool(m2 == 0 or np.all(w == 1))
    vwgt = cluster_weights[leaders].astype(np.int64)
    coarse = CSRGraph(
        indptr,
        cv.copy(),
        None if unit else w.copy(),
        vwgt,
        sorted_neighborhoods=True,
    )
    graph_aid = tracker.alloc("coarse-graph", coarse.nbytes, "graph")
    edge_bytes, work_factor = traversal_cost(graph)
    ctx.runtime.record(
        "contraction",
        work=float(graph.num_directed_edges) * work_factor + float(m2),
        bytes_moved=edge_bytes * graph.num_directed_edges + 32.0 * m2,
    )
    # buffers and maps are dropped after the copy; the coarse graph lives on
    tracker.free(buf_aid)
    tracker.free(maps_aid)
    return ContractionOutput(coarse, fine_to_coarse, graph_aid)
