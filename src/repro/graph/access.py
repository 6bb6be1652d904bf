"""Bulk adjacency access helpers shared by all vectorized kernels.

Partitioning kernels in this reproduction are vectorized *per chunk of
vertices*: they need, for a chunk ``[u_0, u_1, ...]``, the flattened arrays
``(owner_index, neighbor, edge_weight)``.  For CSR graphs this is a pure
numpy gather; for compressed graphs each neighborhood is decoded on the fly
(the paper's point: decoding speed is close enough to raw CSR that the
partitioner can run directly on the compressed representation).  The
compiled kernels take a compressed graph's segments encoded instead
(:func:`chunk_segments`, :func:`vertex_segments`) and decode every row,
chunk-encoded hubs included, from its byte stream as they read it.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_empty

# Per-edge work factor of compressed vs CSR traversal in the cost model: the
# paper's ~6% decode overhead plus interpreter slack.  A constant, so
# `modeled_seconds` of one (graph, config, seed) is the same in every process.
_DECODE_WORK_FACTOR = 1.3

# Obs-layer counter hook.  When a traced run is active the partitioner
# installs its SpanTracer here and every bulk adjacency access reports how
# many edges it decoded (split CSR-gather vs compressed-decode).  One
# None-check per *chunk* when disabled.
_tracer = None


def install_tracer(tracer) -> None:
    """Route decode counters of this module into ``tracer`` (obs layer)."""
    global _tracer
    _tracer = tracer


def uninstall_tracer() -> None:
    global _tracer
    _tracer = None


def installed_tracer():
    """The tracer :func:`install_tracer` installed, or ``None``."""
    return _tracer


def traversal_cost(graph) -> tuple[float, float]:
    """Per-directed-edge ``(bytes_moved, work_factor)`` of scanning ``graph``.

    Raw CSR moves 16 bytes per edge (ID + weight); a compressed graph moves
    only its encoded bytes but pays a decode-work overhead -- the mechanism
    behind the paper's "compression costs ~6% time, saves 3-26x memory".
    The overhead is a fixed factor, not a timing of this machine's decoder.
    """
    if hasattr(graph, "indptr"):
        return 16.0, 1.0
    stats = getattr(graph, "stats", None)
    if stats is not None and graph.num_directed_edges:
        data_bytes = len(graph.data) / graph.num_directed_edges
    else:
        data_bytes = 2.0
    return data_bytes + 8.0 / max(1, graph.n), _DECODE_WORK_FACTOR


def chunk_adjacency(
    graph, chunk: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened adjacency of a vertex chunk.

    Returns ``(owner, neighbors, weights)`` where ``owner[i]`` is the index
    *within the chunk* of the vertex owning edge ``i``.
    """
    chunk = np.asarray(chunk, dtype=np.int64)
    if hasattr(graph, "indptr"):  # CSR fast path
        starts = graph.indptr[chunk]
        degs = graph.indptr[chunk + 1] - starts
        total = int(degs.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        owner = np.repeat(np.arange(len(chunk), dtype=np.int64), degs)
        # edge e of the chunk sits at starts[owner] + (e - cum[owner])
        cum = np.cumsum(degs) - degs
        gather = np.repeat(starts - cum, degs) + np.arange(total, dtype=np.int64)
        if _tracer is not None:
            _tracer.add("decode.edges_csr", total)
        wgts = np.asarray(graph.adjwgt)
        # an unweighted graph's 8-byte broadcast view is handed through as one
        if wgts.strides == (0,):
            wgts = np.broadcast_to(wgts[:1], total)
        else:
            wgts = wgts[gather]
        return owner, graph.adjncy[gather], wgts
    if hasattr(graph, "decode_chunk"):  # compressed graph: bulk decode
        out = graph.decode_chunk(chunk)
        if _tracer is not None and len(out[0]):
            _tracer.add("decode.edges", len(out[0]))
        return out
    raise TypeError(
        "chunk_adjacency needs a CSRGraph or a CompressedGraph, got "
        f"{type(graph).__name__}"
    )


def chunk_segments(
    graph, chunk: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Adjacency of a vertex chunk as segments of one array, nothing gathered.

    Returns ``(starts, degs, adj, wgt)``: chunk vertex ``i`` owns
    ``adj[starts[i] : starts[i] + degs[i]]`` and the weights beside them.
    A CSR graph hands out its own ``adjncy`` / ``adjwgt`` (unit weights stay
    the 8-byte zero-stride view).  A compressed chunk is left encoded,
    ``(None, degs, None, None)``: the caller visits each neighbourhood,
    chunk-encoded hubs included, in ``CompressedGraph.stream`` itself and
    refuses a degree above the graph's largest.  What the compiled LP chunk
    (``core/kernels/lp_kernel.c``) walks; reports the same ``decode.edges*``
    counters as :func:`chunk_adjacency`.
    """
    chunk = np.asarray(chunk, dtype=np.int64)
    if hasattr(graph, "indptr"):
        starts = graph.indptr[chunk]
        degs = graph.indptr[chunk + 1] - starts
        adj, wgt = graph.adjncy, np.asarray(graph.adjwgt)
    elif hasattr(graph, "decode_chunk"):
        degs = graph.degrees[chunk]
        starts = adj = wgt = None
    else:
        raise TypeError(
            "chunk_segments needs a CSRGraph or a CompressedGraph, got "
            f"{type(graph).__name__}"
        )
    count_edges(graph, degs)
    return starts, degs, adj, wgt


def vertex_segments(
    graph,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """The whole adjacency keyed by vertex id, as the graph keeps it.

    Returns ``(indptr, None, adj, wgt)`` for a CSR graph -- vertex ``u`` owns
    ``adj[indptr[u] : indptr[u + 1]]`` and the weights beside them -- or
    ``(None, degrees, None, None)`` for a compressed graph, whose
    neighbourhoods the caller decodes from ``CompressedGraph.stream``.  What
    a compiled LP round (``core/kernels/lp_kernel.c``) walks: nothing
    gathered per chunk.
    """
    if hasattr(graph, "indptr"):
        return graph.indptr, None, graph.adjncy, np.asarray(graph.adjwgt)
    if hasattr(graph, "decode_chunk"):
        return None, graph.degrees, None, None
    raise TypeError(
        f"vertex_segments needs a CSRGraph or a CompressedGraph, got {type(graph).__name__}"
    )


def count_edges(graph, degs: np.ndarray) -> None:
    """Report the edges behind ``degs`` to the ``decode.edges*`` counters, as
    if gathered: what :func:`chunk_segments` does for its chunk, and what the
    LP rounds, which read the graph's segments in place, do once a round."""
    if _tracer is not None and (total := int(degs.sum())):
        _tracer.add("decode.edges_csr" if hasattr(graph, "indptr") else "decode.edges", total)


def count_walk(graph) -> None:
    """Report a compiled walk over every row of ``graph`` as
    :func:`full_adjacency` reports its own: a compressed graph's edges to
    ``decode.edges``; a CSR graph's zero-copy rows to nothing."""
    if not hasattr(graph, "indptr"):
        count_edges(graph, graph.degrees)


def full_adjacency(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened adjacency of the whole graph: ``(src, dst, weight)``, a CSR
    graph's ``dst`` / ``weight`` views of its own arrays.

    For compressed graphs this hits the bulk decode path (one contiguous
    byte scan), not the per-vertex loop.
    """
    if hasattr(graph, "indptr"):
        src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
        return src, graph.adjncy, np.asarray(graph.adjwgt)
    return chunk_adjacency(graph, np.arange(graph.n, dtype=np.int64))


def crossing_weight(graph, labels: np.ndarray) -> int:
    """Total weight of the directed edges whose endpoints carry different
    ``labels`` (every undirected edge is counted from both sides).

    On CSR the source side is ``np.repeat(labels, degrees)`` -- the labels'
    width, no int64 source array -- and unit weights are a
    ``count_nonzero``; a compressed graph is one compiled walk over its
    stream (:meth:`CompressedGraph.crossing_weight`).
    """
    if hasattr(graph, "indptr"):
        crossing = np.repeat(labels, graph.degrees) != labels[graph.adjncy]
        if not graph.has_edge_weights:
            return int(np.count_nonzero(crossing))
        return int(graph.adjwgt[crossing].sum())
    count_walk(graph)
    return graph.crossing_weight(labels)


def segment_reduce_ratings(
    owner: np.ndarray,
    clusters: np.ndarray,
    weights: np.ndarray,
    id_space: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate edge weights per ``(owner, cluster)`` pair.

    Returns ``(pair_owner, pair_cluster, pair_rating)`` -- the vectorized
    equivalent of filling one rating map per chunk vertex.
    """
    if len(owner) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    key = owner * np.int64(id_space) + clusters
    # Only the sorted keys and the per-key integer sums leave this function,
    # so the sort need not be stable: equal keys are summed, whichever order
    # the sort (SIMD or introsort, by CPU dispatch) leaves them in.
    constant = weights.strides == (0,)  # broadcast view, e.g. unit weights
    if constant:
        key.sort()
    else:
        order = np.argsort(key)
        key = key[order]
    boundary = tracked_empty(len(key) + 1, bool, name="rating-segment-bounds")
    boundary[0] = boundary[-1] = True
    boundary[1:-1] = key[1:] != key[:-1]
    edges = np.flatnonzero(boundary)  # every run's start, then len(key)
    if constant:  # ratings are run lengths
        ratings = (edges[1:] - edges[:-1]) * weights[0]
    else:
        ratings = np.add.reduceat(weights[order], edges[:-1])
    pair_key = key[edges[:-1]]
    pair_owner = pair_key // id_space
    return pair_owner, pair_key - pair_owner * id_space, ratings
