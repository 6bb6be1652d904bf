"""One compiled call per label-propagation or contraction chunk
(``lp_kernel.c``).

The LP drivers (:mod:`repro.core.coarsening.lp_clustering`,
:mod:`repro.core.refinement.lp_refine`) loop over chunks and, per chunk, run
one *step* that rates the chunk's vertices, picks their targets and commits
the movers.  Each driver holds the numpy pipeline as its oracle step;
:func:`clustering_step` and :func:`refinement_step` build the same step
around the kernel -- or return ``None``, and the driver runs its oracle:
without the compiled library (:func:`repro.graph._native.lp_kernels`), or
for vertex weights whose sums the kernel's commit cannot hold.  The C header
states the contract and why the two are bit-identical; here the arrays are
checked once per LP call and the pointers handed over.  Distributed LP
(:mod:`repro.dist.dlp`) takes a *pick* from :func:`cluster_pick_step` /
:func:`refine_pick_step` the same way: the same rate and pick over one
rank's batch, without the commit.  :func:`contraction_step` is the rating map
again, summing a whole coarse vertex's members into one map; every
contraction takes it through :func:`repro.core.kernels.contraction_step`,
which runs the numpy oracle where this returns ``None``.

On a compressed graph the kernel decodes each neighbourhood itself, as it
rates it, from the graph's byte stream: no decoded chunk is built.  Only a
chunk holding a chunk-encoded hub or an implausible degree is decoded first,
by ``decode_chunk``, which splices the hub in or raises its error.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.graph import _native
from repro.graph.access import chunk_segments
from repro.graph.compressed import MIN_INTERVAL_LEN
from repro.memory.scratch import tracked_empty, tracked_full, tracked_zeros


def _is_int64_vector(a: np.ndarray, size: int) -> bool:
    return a.dtype == np.int64 and a.shape == (size,) and a.flags.c_contiguous


def _weight_args(w: np.ndarray) -> tuple[np.ndarray | None, int]:
    """``(array, unit)`` as the kernels take weights: a zero-stride view (an
    unweighted graph's 8 bytes) goes in as no array and its one value."""
    if w.strides == (0,):
        return None, int(w[0])
    return w, 0


def _pointers(args) -> tuple:
    return tuple(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args)


def _vertex_weights(graph) -> np.ndarray | None:
    """The vertex weights if the kernels' commit can sum them, else ``None``."""
    vwgt = np.asarray(graph.vwgt)
    n = graph.n
    ok = vwgt.dtype == np.int64 and vwgt.shape == (n,)
    ok = ok and (vwgt.strides == (0,) or vwgt.flags.c_contiguous)
    if not ok or n == 0:
        return None
    values = vwgt[:1] if vwgt.strides == (0,) else vwgt
    if int(values.min()) < 0 or int(values.max()) * n >= _native.WEIGHT_LIMIT:
        return None
    return vwgt


class _ChunkKernel:
    """One chunk kernel of ``lp_kernel.c`` bound to the arrays of one LP or
    contraction call.

    ``state`` is the phase's own argument block (between the segments and
    the rating map in the C signature; arrays are held here for as long as
    their pointers are in use), ``maps`` the zeroed rating map (rows
    ``slot``, ``seen``, ``rating``, one entry per label each).
    """

    def __init__(self, fn, graph, state: tuple, maps: np.ndarray, labels: int) -> None:
        if maps.dtype != np.int64 or maps.shape != (3, labels) or not maps.flags.c_contiguous:
            raise ValueError(f"the rating map is three contiguous int64 rows of {labels}")
        self._fn, self._graph = fn, graph
        self._held = (state, maps)
        self.info = np.zeros(2, dtype=np.int64)
        self._fixed = _pointers((*state, *maps, labels))
        self._tail = _pointers((self.info,))
        self._adjacency = None  # (adj, wgt) last handed out, their arguments, what those point into
        self._stream = None  # the compressed source's address and what it points into

    def _adjacency_args(self, adj: np.ndarray, wgt: np.ndarray) -> tuple:
        """``(adj, wgt, unit_wgt, adj_len)`` as the kernel takes them; a CSR
        graph hands out the same two arrays for every chunk, checked once."""
        last = self._adjacency
        if last is None or adj is not last[0][0] or wgt is not last[0][1]:
            if len(wgt) != len(adj):
                raise ValueError("edge weights do not align with the adjacency")
            held = [np.ascontiguousarray(adj, dtype=np.int64), wgt]
            if wgt.strides != (0,):
                held[1] = np.ascontiguousarray(wgt, dtype=np.int64)
            args = _pointers((held[0], *_weight_args(held[1]), len(adj)))
            last = self._adjacency = ((adj, wgt), args, held)
        return last[1]

    def _stream_address(self) -> int:
        """The kernel's compressed source, built on the first chunk left
        encoded (so once per LP call): the graph's checked byte stream and
        the scratch of one neighbourhood, ``max_degree`` ids (weights too,
        if any) capped at ``max_plain_degree``, plus its interval pairs."""
        if self._stream is None:
            graph = self._graph
            data, offsets = graph.stream()
            cap = max(0, min(graph.max_degree, graph.max_plain_degree))
            rows = 2 if graph.has_edge_weights else 1
            pairs = 2 * (cap // MIN_INTERVAL_LEN)
            scratch = tracked_empty(rows * cap + pairs, name="lp-stream-scratch")
            at = scratch.ctypes.data
            block = _native.Stream(
                data.ctypes.data, len(data), offsets.ctypes.data, graph.config.enable_intervals,
                at, at + 8 * cap if rows == 2 else None, cap, at + 8 * rows * cap, pairs,
            )  # fmt: skip
            self._stream = (ctypes.addressof(block), (block, data, offsets, scratch))
        return self._stream[0]

    def __call__(self, chunk, outputs):
        """``(edges, rc, out)`` of one chunk, or ``None`` if it has no edge
        (the kernel does not run then).  ``outputs(count, edges)`` returns
        ``(out, args)``: what the caller reads back, and the arguments the
        kernel takes between the rating map and ``info``."""
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        starts, degs, adj, wgt = chunk_segments(self._graph, chunk)
        edges = int(degs.sum())
        if edges == 0:
            return None
        if adj is None:  # left encoded: the kernel decodes as it rates
            at, adjacency, stream = None, (None, None, 1, 0), self._stream_address()
        else:
            at, adjacency, stream = starts.ctypes.data, self._adjacency_args(adj, wgt), None
        count = len(chunk)
        out, args = outputs(count, edges)
        rc = self._fn(
            self._graph.n, chunk.ctypes.data, at, degs.ctypes.data, count, *adjacency, *self._fixed,
            *_pointers(args), *self._tail, stream,
        )  # fmt: skip
        if rc < 0:
            bad = int(self.info[1])
            where = f" at vertex {int(chunk[bad])}" if bad >= 0 else ""
            if rc in _native.LP_ERRORS:
                raise ValueError(f"{_native.LP_ERRORS[rc]}{where} (corrupt graph?)")
            raise ValueError(f"{_native.ERRORS[rc - _native.DECODE_ERROR]}{where} (corrupt stream?)")
        return edges, rc, out


def _rows(rows: int):
    """``outputs`` of an LP kernel: ``rows`` per-vertex rows and their
    capacity."""

    def outputs(count, _edges):
        out = tracked_empty((rows, count), name="lp-chunk-out")
        first = out.ctypes.data
        return out, (*range(first, first + out.nbytes, 8 * count), count)

    return outputs


def _picking(call, rows: int):
    """``pick(chunk)`` around a pick entry of ``lp_kernel.c`` (``rows``
    output rows, ``moved`` and ``target`` last): the chunk's movers in chunk
    order and their targets; ``None`` for no kernel."""
    if call is None:
        return None
    outputs = _rows(rows)
    none = np.empty(0, dtype=np.int64)

    def pick(chunk):
        done = call(chunk, outputs)
        if done is None:
            return none, none
        _, moves, out = done
        return out[-2, :moves], out[-1, :moves]

    return pick


def _clustering_kernel(index, graph, clusters, cluster_weights, max_cluster_weight, maps):
    """``lp_kernels()[index]`` bound to one clustering's arrays, or ``None``."""
    kernels = _native.lp_kernels()
    vwgt = _vertex_weights(graph)
    n = graph.n
    if (
        kernels is None
        or vwgt is None
        or not _is_int64_vector(clusters, n)
        or not _is_int64_vector(cluster_weights, n)
    ):
        return None
    limit = _native.clamp_weight(max_cluster_weight)
    state = (clusters, cluster_weights, *_weight_args(vwgt), limit)
    return _ChunkKernel(kernels[index], graph, state, maps, n)


def clustering_step(graph, clusters, cluster_weights, max_cluster_weight, maps):
    """``step(chunk)`` of LP clustering on the kernel, or ``None``.

    ``maps`` is the ``(3, n)`` zeroed rating map (the sparse array and its
    non-zero buffers, which the caller has on the ledger).  ``step`` returns
    ``None`` for a chunk without edges, else ``(edges, fav_us, fav, nc,
    targets, moved)``: the chunk vertices that have a neighbour and the
    favorite cluster of each, per chunk vertex its number of distinct
    neighbour clusters, how many vertices had a target, and the vertices
    moved -- ``clusters`` / ``cluster_weights`` already updated.
    """
    call = _clustering_kernel(0, graph, clusters, cluster_weights, max_cluster_weight, maps)
    if call is None:
        return None
    outputs = _rows(4)

    def step(chunk):
        done = call(chunk, outputs)
        if done is None:
            return None
        edges, moves, (fav, _, nc, moved) = done
        rated = nc > 0
        return edges, chunk[rated], fav[rated], nc, int(call.info[0]), moved[:moves]

    return step


def cluster_pick_step(graph, clusters, cluster_weights, max_cluster_weight, maps):
    """``pick(chunk)`` of distributed LP clustering on the kernel, or
    ``None`` where :func:`clustering_step` would be.

    ``pick`` returns ``(movers, targets)``: in chunk order, every chunk
    vertex whose favorite cluster -- ranked as in :func:`clustering_step`,
    the jitter keyed by the vertex's chunk index -- is not its own and fits
    ``max_cluster_weight``.  Nothing is committed; ``clusters`` /
    ``cluster_weights`` are only read.
    """
    call = _clustering_kernel(2, graph, clusters, cluster_weights, max_cluster_weight, maps)
    return _picking(call, 5)


def _refinement_kernel(index, graph, part, block_weights, limits):
    """``lp_kernels()[index]`` bound to one refinement's arrays, or ``None``."""
    kernels = _native.lp_kernels()
    vwgt = _vertex_weights(graph)
    k = len(block_weights)
    if (
        kernels is None
        or vwgt is None
        or part.dtype != np.int32
        or part.shape != (graph.n,)
        or not part.flags.c_contiguous
        or not _is_int64_vector(block_weights, k)
    ):
        return None
    limits = np.ascontiguousarray(limits, dtype=np.int64)
    if limits.shape != (k,):
        return None
    state = (k, part, block_weights, *_weight_args(vwgt), limits)
    maps = tracked_zeros((3, k), name="lp-refine-rating-map")
    return _ChunkKernel(kernels[index], graph, state, maps, k)


def refinement_step(graph, part, block_weights, limits):
    """``step(chunk)`` of LP refinement on the kernel, or ``None``.

    ``limits`` is the per-block weight cap (``k`` entries).  ``step`` returns
    ``None`` for a chunk without edges, else ``(edges, moved)`` -- ``part`` /
    ``block_weights`` already updated.
    """
    call = _refinement_kernel(1, graph, part, block_weights, limits)
    if call is None:
        return None
    outputs = _rows(2)

    def step(chunk):
        done = call(chunk, outputs)
        return done and (done[0], done[2][-1, : done[1]])

    return step


def refine_pick_step(graph, part, block_weights, max_block_weight: int):
    """``pick(chunk)`` of distributed LP refinement on the kernel, or
    ``None`` where :func:`refinement_step` would be.

    ``pick`` returns ``(movers, targets)``: in chunk order, every chunk
    vertex with a target by :func:`refinement_step`'s rule, every block
    capped at ``max_block_weight``.  Nothing is committed; ``part`` /
    ``block_weights`` are only read.
    """
    limit = _native.clamp_weight(max_block_weight)
    limits = tracked_full(len(block_weights), limit, name="dlp-block-limits")
    return _picking(_refinement_kernel(3, graph, part, block_weights, limits), 3)


def contraction_step(graph, labels: np.ndarray, label_count: int):
    """``step(members, groups, own)`` of contraction on the kernel, or
    ``None`` without the compiled library.

    ``labels`` keys every vertex by its coarse vertex, in ``[0,
    label_count)``.  One call aggregates ``len(own)`` coarse vertices: coarse
    vertex ``g`` is the members ``members[groups[g] - groups[0] : groups[g +
    1] - groups[0]]``, its own key ``own[g]``.  ``step`` returns ``(edges,
    degrees, keys, weights)``: the members' edges read, each coarse vertex's
    number of coarse edges, and those edges coarse vertex by coarse vertex
    -- neighbour keys ascending, own key dropped, weights summed.
    """
    kernels = _native.contraction_kernels()
    if kernels is None or not _is_int64_vector(labels, graph.n):
        return None
    maps = tracked_zeros((3, label_count), name="contraction-rating-map")
    call = _ChunkKernel(kernels[0], graph, (label_count, labels), maps, label_count)

    def step(members, groups, own):
        groups = np.ascontiguousarray(groups, dtype=np.int64)
        own = np.ascontiguousarray(own, dtype=np.int64)
        count = len(own)
        if groups.shape != (count + 1,):
            raise ValueError(f"{count} coarse vertices need {count + 1} member offsets")

        def outputs(_, edges):
            pairs = tracked_empty((2, edges), name="contraction-chunk-out")
            degrees = tracked_empty(count, name="contraction-degrees")
            return (pairs, degrees), (groups, own, count, *pairs, edges, degrees)

        done = call(members, outputs)
        if done is None:
            none = np.empty(0, dtype=np.int64)
            return 0, np.zeros(count, dtype=np.int64), none, none
        edges, written, (pairs, degrees) = done
        return edges, degrees, pairs[0, :written], pairs[1, :written]

    return step


def group_by_label(labels: np.ndarray, label_count: int):
    """``(members, offsets)`` by one counting sort, or ``None`` without the
    compiled library: the vertices grouped by label, ascending within a
    label (what ``np.argsort(labels, kind="stable")`` returns), and label
    ``c``'s run ``members[offsets[c] : offsets[c + 1]]``."""
    kernels = _native.contraction_kernels()
    if kernels is None:
        return None
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    offsets = tracked_empty(label_count + 1, name="label-offsets")
    members = tracked_empty(len(labels), name="label-members")
    info = np.zeros(2, dtype=np.int64)
    rc = kernels[1](*_pointers((labels, len(labels), label_count, offsets, members, info)))
    if rc < 0:
        raise ValueError(f"{_native.LP_ERRORS[rc]} at vertex {int(info[1])}")
    return members, offsets
