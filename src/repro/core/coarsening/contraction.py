"""Buffered cluster contraction (the baseline KaMinPar scheme).

Computes all coarse edges into temporary per-thread buffers, then -- once
every degree is known -- computes the offset prefix sum and *copies* the
buffered edges into the final CSR arrays.  The coarse graph therefore exists
twice in memory at the peak (Section IV-B: "a set of temporary buffers
storing E' during aggregation; before the edges are copied to E'"), which is
exactly what one-pass contraction eliminates.

The aggregation is one contraction step
(:func:`repro.core.kernels.contraction_step`: ``lp_kernel.c``'s rating map,
or its numpy oracle without the compiled library) over every coarse vertex
in leader order, keyed by dense coarse id: each coarse neighbourhood comes
out ascending, so the buffers already are the sorted CSR.  The same dense
numbering (:func:`dense_remap`) and CSR assembly (:func:`coarse_csr`) build
the coarse graphs of distributed contraction and of the Mt-Metis and SEM
baselines (:func:`contract_clusters`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import PartitionContext
from repro.core.kernels.contraction import cluster_leaders, contraction_step, group_by_label
from repro.graph.access import traversal_cost
from repro.graph.csr import CSRGraph
from repro.memory.scratch import tracked_full, tracked_zeros


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


def dense_remap(clusters: np.ndarray, leaders: np.ndarray) -> np.ndarray:
    """``fine_to_coarse``: each vertex's cluster leader as a dense coarse id
    in ``[0, len(leaders))``, in leader order."""
    remap = tracked_full(len(clusters), -1, np.int64, name="contract-remap")
    remap[leaders] = np.arange(len(leaders), dtype=np.int64)
    return remap[clusters]


def aggregate_clusters(graph, fine_to_coarse, n_coarse: int, out=None):
    """``(edges, degrees, adjncy, adjwgt)`` of a whole level: one
    contraction step over every coarse vertex, coarse vertex ``c`` keyed by
    ``c``, so each row comes out ascending and ``adjncy`` / ``adjwgt`` are
    the sorted coarse CSR -- written into ``out`` if given (one-pass
    contraction's ``E'``); ``edges`` is the fine edges read."""
    members, groups = group_by_label(fine_to_coarse, n_coarse)
    step = contraction_step(graph, fine_to_coarse, n_coarse)
    return step(members, groups, out)


def coarse_csr(degrees, adjncy, adjwgt, vwgt) -> CSRGraph:
    """The coarse graph of sorted neighbourhoods ``adjncy`` / ``adjwgt``,
    ``degrees[c]`` of them for coarse vertex ``c``; unit weights are kept
    as none.  Its arrays are the caller's to charge, with the graph."""
    indptr = np.concatenate(([0], np.cumsum(degrees, dtype=np.int64)))
    unit = bool(len(adjwgt) == 0 or np.all(adjwgt == 1))
    return CSRGraph(indptr, adjncy, None if unit else adjwgt, vwgt, sorted_neighborhoods=True)


def summed_weights(fine_to_coarse: np.ndarray, n_coarse: int, vwgt) -> np.ndarray:
    """Each coarse vertex's weight: the sum of its members' ``vwgt``."""
    coarse = tracked_zeros(n_coarse, np.int64, name="coarse-vwgt")
    np.add.at(coarse, fine_to_coarse, np.asarray(vwgt))
    return coarse


def contract_clusters(graph, clusters: np.ndarray, leaders: np.ndarray | None = None):
    """``(coarse, fine_to_coarse)``: ``clusters`` contracted in one piece,
    outside the ledger of a partitioner run (the baselines' contraction)."""
    if leaders is None:
        leaders = cluster_leaders(clusters)
    fine_to_coarse = dense_remap(clusters, leaders)
    _, degrees, adjncy, adjwgt = aggregate_clusters(graph, fine_to_coarse, len(leaders))
    vwgt = summed_weights(fine_to_coarse, len(leaders), graph.vwgt)
    return coarse_csr(degrees, adjncy, adjwgt, vwgt), fine_to_coarse


def contract_buffered(
    graph,
    clusters: np.ndarray,
    cluster_weights: np.ndarray,
    ctx: PartitionContext,
) -> ContractionOutput:
    """Contract ``clusters`` with the two-copy buffered scheme."""
    tracker = ctx.tracker
    leaders = cluster_leaders(clusters)
    n_coarse = len(leaders)
    fine_to_coarse = dense_remap(clusters, leaders)

    # per-thread aggregation maps (sparse arrays over coarse IDs)
    maps_aid = tracker.alloc(
        "contraction-rating-maps", ctx.runtime.p * 16 * n_coarse, "contraction"
    )
    _, degrees, cv, w = aggregate_clusters(graph, fine_to_coarse, n_coarse)
    m2 = len(cv)

    # the temporary edge buffers: E' held once in buffers ...
    buf_aid = tracker.alloc("contraction-edge-buffers", 16 * m2, "contraction")
    # ... and once in the final CSR arrays (the duplicate one-pass removes)
    vwgt = cluster_weights[leaders].astype(np.int64)
    coarse = coarse_csr(degrees, cv.copy(), w.copy(), vwgt)
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
