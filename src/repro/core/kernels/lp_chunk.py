"""One compiled call per label-propagation round, pick or contraction step
(``lp_kernel.c``).

The LP drivers (:mod:`repro.core.coarsening.lp_clustering`,
:mod:`repro.core.refinement.lp_refine`) own the rounds: visiting order,
schedule, cost records and counters.  :func:`clustering_round` and
:func:`refinement_round` bind a *round entry* of the kernel to one LP call's
arrays: called with the round's order and its chunk bounds in execution
order, it rates, picks and commits every chunk in turn -- chunk *i + 1*
reads chunk *i*'s commits -- and returns one stats row a chunk.  With a
conflict detector attached the drivers make the same call and then walk
the round's chunks again for it (:func:`replayed_chunks`).  Binding an
entry refuses, with a ``ValueError``, vertex weights whose sums the
kernel's commit cannot hold (:func:`repro.graph._native.vertex_weight_error`;
the entry points refuse such an input graph before any work).  The C header states the
contract; here the arrays are checked once per LP call and the pointers
handed over.  Distributed LP (:mod:`repro.dist.dlp`) takes a
*pick* from :func:`cluster_pick_step` / :func:`refine_pick_step` the same
way: the same rate and pick over one rank's batch, without the commit.
:func:`contraction_step` is the rating map again, summing a whole coarse
vertex's members into one map, every contraction's one aggregation.

A round reads each vertex's segment where the graph keeps it: a CSR graph's
``indptr`` and adjacency, or a compressed graph's degrees and byte stream,
each neighbourhood -- a chunk-encoded hub chunk by chunk -- rated as it is
decoded, with no row written, so a round is one call.  A degree above the
graph's largest (only a corrupt header makes one) is refused by the kernel.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.graph import _native
from repro.graph.access import chunk_segments, count_edges, vertex_segments
from repro.graph.compressed import stream_blocks
from repro.memory.scratch import tracked_empty, tracked_full, tracked_zeros


def _is_int64_vector(a: np.ndarray, size: int) -> bool:
    return a.dtype == np.int64 and a.shape == (size,) and a.flags.c_contiguous


def _weight_args(w: np.ndarray) -> tuple[np.ndarray | None, int]:
    """``(array, unit)`` as the kernels take weights: a zero-stride view (an
    unweighted graph's 8 bytes) goes in as no array and its one value."""
    if w.strides == (0,):
        return None, int(w[0]) if len(w) else 0
    return w, 0


def _pointers(args) -> tuple:
    return tuple(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args)


def _adjacency(adj: np.ndarray, wgt: np.ndarray) -> tuple[tuple, tuple]:
    """``(args, held)``: ``(adj, wgt, unit_wgt, adj_len)`` as the kernels
    take an adjacency, and the arrays those point into."""
    if len(wgt) != len(adj):
        raise ValueError("edge weights do not align with the adjacency")
    adj = np.ascontiguousarray(adj, dtype=np.int64)
    if wgt.strides != (0,):
        wgt = np.ascontiguousarray(wgt, dtype=np.int64)
    return _pointers((adj, *_weight_args(wgt), len(adj))), (adj, wgt)


def _vertex_weights(vwgt, n: int) -> np.ndarray:
    """``n`` vertex weights as the kernels take them (a zero-stride view kept);
    a ``ValueError`` for weights the kernels' commit cannot sum."""
    vwgt = np.asarray(vwgt)
    if vwgt.shape != (n,):
        raise ValueError(f"vertex weights need {n} entries")
    if vwgt.strides != (0,):
        vwgt = np.ascontiguousarray(vwgt, dtype=np.int64)
    why = _native.vertex_weight_error(vwgt)
    if why is not None:
        raise ValueError(f"the compiled kernels cannot sum these vertex weights: {why}")
    return vwgt


def _int64_vector(a: np.ndarray, size: int, name: str) -> np.ndarray:
    if not _is_int64_vector(a, size):
        raise ValueError(f"{name} must be {size} contiguous int64 entries")
    return a


class _Bound:
    """An entry of ``lp_kernel.c`` bound to the arrays of one call.

    ``state`` is the phase's own argument block (before the rating map in
    the C signature; arrays are held here for as long as their pointers are
    in use), ``maps`` the zeroed rating map (rows ``slot``, ``seen``,
    ``rating``, one entry per label each).
    """

    def __init__(self, fn, graph, state: tuple, maps: np.ndarray, labels: int) -> None:
        if maps.dtype != np.int64 or maps.shape != (3, labels) or not maps.flags.c_contiguous:
            raise ValueError(f"the rating map is three contiguous int64 rows of {labels}")
        self._fn, self._graph = fn, graph
        self._held = (state, maps)
        self.info = np.zeros(2, dtype=np.int64)
        self._fixed = _pointers((*state, *maps, labels))
        self._stream = None  # the compressed source's address and what it points into

    def _stream_address(self) -> int:
        """The kernel's compressed source, built on the first call that
        leaves a chunk encoded (so once per LP call)."""
        if self._stream is None:
            block, held = stream_blocks(self._graph, 1, "lp-stream-scratch", rows=False)
            self._stream = (ctypes.addressof(block), (block, held))
        return self._stream[0]

    def _checked(self, rc: int, ids: np.ndarray) -> int:
        """``rc``, or the ``ValueError`` of the code the kernel returned,
        naming ``ids[info[BAD]]``."""
        if rc >= 0:
            return rc
        bad = int(self.info[1])
        where = f" at vertex {int(ids[bad])}" if bad >= 0 else ""
        if rc in _native.LP_ERRORS:
            raise ValueError(f"{_native.LP_ERRORS[rc]}{where} (corrupt graph?)")
        raise ValueError(f"{_native.ERRORS[rc - _native.DECODE_ERROR]}{where} (corrupt stream?)")


class _ChunkKernel(_Bound):
    """A chunk entry (a pick or contraction): one call a chunk, its
    segments from :func:`chunk_segments`."""

    def __init__(self, fn, graph, state: tuple, maps: np.ndarray, labels: int) -> None:
        super().__init__(fn, graph, state, maps, labels)
        self._tail = _pointers((self.info,))
        self._adjacency = None  # (adj, wgt) last handed out, their arguments, what those point into

    def _adjacency_args(self, adj: np.ndarray, wgt: np.ndarray) -> tuple:
        """``(adj, wgt, unit_wgt, adj_len)`` as the kernel takes them; a CSR
        graph hands out the same two arrays for every chunk, checked once."""
        last = self._adjacency
        if last is None or adj is not last[0][0] or wgt is not last[0][1]:
            last = self._adjacency = ((adj, wgt), *_adjacency(adj, wgt))
        return last[1]

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
        return edges, self._checked(rc, chunk), out


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
    order and their targets."""
    outputs = _rows(rows)
    none = np.empty(0, dtype=np.int64)

    def pick(chunk):
        done = call(chunk, outputs)
        if done is None:
            return none, none
        _, moves, out = done
        return out[-2, :moves], out[-1, :moves]

    return pick


#: the columns of a round's stats rows, one row a chunk (``lp_kernel.c``)
EDGES, TARGETS, MOVES, BUMPED, BUMPED_NC, NANOS = range(6)


class _RoundKernel(_Bound):
    """A round entry bound to the arrays of one LP call: one call a round.

    ``rows`` is the number of per-vertex scratch rows the entry fills for
    each chunk; ``scratch`` holds them, the last chunk's after a call.  The
    graph's segments go in keyed by vertex id, checked once: a CSR graph's
    ``indptr`` and adjacency, or a compressed graph's degrees (and its
    stream).
    """

    def __init__(self, fn, graph, state: tuple, maps: np.ndarray, labels: int, rows: int) -> None:
        super().__init__(fn, graph, state, maps, labels)
        self.rows = rows
        self.scratch = tracked_empty((rows, 0), name="lp-chunk-out")
        self._scratch_args = _pointers((*self.scratch, 0))
        indptr, degrees, adj, wgt = vertex_segments(graph)
        if indptr is None:  # compressed: decoded from the stream as rated
            degrees = np.ascontiguousarray(degrees, dtype=np.int64)
            self._segments = _pointers((None, degrees)), (None, None, 1, 0)
            self._held += (degrees,)
            self._compressed = True
            return
        self._compressed = False
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.shape != (graph.n + 1,):
            raise ValueError(f"indptr needs {graph.n + 1} entries")
        adjacency, held = _adjacency(adj, wgt)
        self._segments = _pointers((indptr, None)), adjacency
        self._held += (indptr, *held)

    def __call__(self, order, bounds, moved: np.ndarray | None = None) -> np.ndarray:
        """One round: the stats rows of the chunks ``bounds`` (``(lo, hi)``
        positions of ``order``, in the order they run), columns
        :data:`EDGES` .. :data:`NANOS`; the movers, in the order they moved,
        into ``moved`` if given (``len(order)`` entries)."""
        order = np.ascontiguousarray(order, dtype=np.int64)
        bounds = np.ascontiguousarray(bounds, dtype=np.int64).reshape(-1, 2)
        chunks = len(bounds)
        stats = tracked_empty((chunks, NANOS + 1), name="lp-round-stats")
        if not chunks:
            return stats
        width = int((bounds[:, 1] - bounds[:, 0]).max())
        if self.scratch.shape[1] < width:
            self.scratch = tracked_empty((self.rows, width), name="lp-chunk-out")
            self._scratch_args = _pointers((*self.scratch, width))
        (starts, degs), adjacency = self._segments
        out = None if moved is None else moved.ctypes.data
        stream = self._stream_address() if self._compressed else None
        rc = self._fn(
            self._graph.n, order.ctypes.data, starts, degs, len(order), *adjacency, 1,
            bounds.ctypes.data, chunks, *self._fixed, *self._scratch_args, out,
            stats.ctypes.data, chunks, self.info.ctypes.data, stream,
        )  # fmt: skip
        self._checked(rc, order)
        count_edges(self._graph, stats[:, EDGES])
        return stats


def round_bounds(runtime, graph, order) -> tuple[np.ndarray, np.ndarray]:
    """``runtime.chunk_bounds`` of an LP round over ``order``: under the
    ``heavy-first`` policy each chunk weighs its edges."""
    weights = None
    if runtime.schedule_policy == "heavy-first" and len(order):
        starts = np.arange(0, len(order), runtime.chunk_size)
        weights = np.add.reduceat(np.asarray(graph.degrees)[order], starts)
    return runtime.chunk_bounds(len(order), weights=weights)


def replayed_chunks(detector, order, bounds, tids, stats, moved):
    """The chunks of a round the kernel ran, for a conflict detector: in the
    order they ran, with ``detector.current_tid`` set to each one's virtual
    thread, ``(chunk, movers, targets)`` of every chunk with an edge -- its
    movers the next :data:`MOVES` entries of the round's ``moved``."""
    at = 0
    rows = stats[:, [EDGES, TARGETS, MOVES]].tolist()
    for (lo, hi), tid, (edges, targets, moves) in zip(bounds.tolist(), tids.tolist(), rows):
        movers = moved[at : at + moves]
        at += moves
        if edges:
            detector.current_tid = tid
            yield order[lo:hi], movers, targets


def _clustering_state(graph, vwgt, clusters, cluster_weights, max_cluster_weight):
    """One clustering's argument block as the kernels take it."""
    n = graph.n
    vwgt = _vertex_weights(vwgt, n)
    _int64_vector(clusters, n, "clusters")
    _int64_vector(cluster_weights, n, "cluster weights")
    limit = _native.clamp_weight(max_cluster_weight)
    return (clusters, cluster_weights, *_weight_args(vwgt), limit)


def clustering_round(
    graph, vwgt, clusters, cluster_weights, max_cluster_weight, maps, favorites, t_bump: int
):
    """LP clustering's round on the kernel (``vwgt``: the graph's weights).

    ``maps`` is the ``(3, n)`` zeroed rating map (the sparse array and its
    non-zero buffers, which the caller has on the ledger).  A round commits
    to ``clusters`` / ``cluster_weights``, writes each rated vertex's
    favorite cluster to ``favorites`` and counts, per chunk, the vertices
    with at least ``t_bump`` distinct neighbour clusters (bumped to the
    second phase) and their cluster counts summed.
    """
    state = _clustering_state(graph, vwgt, clusters, cluster_weights, max_cluster_weight)
    state = (*state, t_bump, _int64_vector(favorites, graph.n, "favorites"))
    fn = _native.lp_kernels()[0]
    return _RoundKernel(fn, graph, state, maps, graph.n, rows=3)  # fav, best, nc


def cluster_pick_step(graph, clusters, cluster_weights, max_cluster_weight, maps):
    """``pick(chunk)`` of distributed LP clustering on the kernel.

    ``pick`` returns ``(movers, targets)``: in chunk order, every chunk
    vertex whose favorite cluster -- ranked as in :func:`clustering_round`,
    the jitter keyed by the vertex's chunk index -- is not its own and fits
    ``max_cluster_weight``.  Nothing is committed; ``clusters`` /
    ``cluster_weights`` are only read.
    """
    state = _clustering_state(graph, graph.vwgt, clusters, cluster_weights, max_cluster_weight)
    return _picking(_ChunkKernel(_native.lp_kernels()[2], graph, state, maps, graph.n), 5)


def _refinement_state(graph, vwgt, part, block_weights, limits):
    """One refinement's argument block as the kernels take it and its rating
    map."""
    vwgt = _vertex_weights(vwgt, graph.n)
    k = len(block_weights)
    if part.dtype != np.int32 or part.shape != (graph.n,) or not part.flags.c_contiguous:
        raise ValueError(f"the partition must be {graph.n} contiguous int32 block ids")
    _int64_vector(block_weights, k, "block weights")
    limits = np.ascontiguousarray(limits, dtype=np.int64)
    if limits.shape != (k,):
        raise ValueError(f"one block weight limit a block: {k}")
    maps = tracked_zeros((3, k), name="lp-refine-rating-map")
    return (k, part, block_weights, *_weight_args(vwgt), limits), maps


def refinement_round(graph, vwgt, part, block_weights, limits):
    """LP refinement's round on the kernel (``vwgt``: the graph's weights).

    ``limits`` is the per-block weight cap (``k`` entries).  A round commits
    to ``part`` / ``block_weights``.
    """
    state = _refinement_state(graph, vwgt, part, block_weights, limits)
    fn = _native.lp_kernels()[1]
    return _RoundKernel(fn, graph, *state, len(block_weights), rows=1)  # best


def refine_pick_step(graph, part, block_weights, max_block_weight: int):
    """``pick(chunk)`` of distributed LP refinement on the kernel.

    ``pick`` returns ``(movers, targets)``: in chunk order, every chunk
    vertex with a target by :func:`refinement_round`'s rule, every block
    capped at ``max_block_weight``.  Nothing is committed; ``part`` /
    ``block_weights`` are only read.
    """
    limit = _native.clamp_weight(max_block_weight)
    limits = tracked_full(len(block_weights), limit, name="dlp-block-limits")
    state = _refinement_state(graph, graph.vwgt, part, block_weights, limits)
    fn = _native.lp_kernels()[3]
    return _picking(_ChunkKernel(fn, graph, *state, len(block_weights)), 3)


def contraction_step(graph, labels: np.ndarray, label_count: int):
    """``step(members, groups, out=None)`` of contraction on the kernel: the
    one aggregation every coarse graph is built by -- buffered and one-pass
    contraction, each rank's share of distributed contraction and the
    baselines.

    ``labels`` keys every vertex by its coarse vertex, in ``[0,
    label_count)``.  One call aggregates coarse vertices ``0 .. len(groups)
    - 2``: coarse vertex ``g`` is the members ``members[groups[g] -
    groups[0] : groups[g + 1] - groups[0]]``, its own key ``g``.  ``step``
    returns ``(edges, degrees, keys, weights)``: the members' edges read,
    each coarse vertex's number of coarse edges, and those edges coarse
    vertex by coarse vertex -- neighbour keys ascending, own key dropped,
    weights summed.  ``keys`` / ``weights`` are the touched prefixes of the
    two rows of ``out``, a ``(2, width)`` int64 buffer of at least ``edges``
    columns the caller owns (one-pass contraction's ``E'``); without it the
    step allocates one of ``edges`` columns.
    """
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.shape != (graph.n,):
        raise ValueError(f"contraction needs one label a vertex: {graph.n}")
    maps = tracked_zeros((3, label_count), name="contraction-rating-map")
    fn = _native.contraction_kernels()[0]
    call = _ChunkKernel(fn, graph, (label_count, labels), maps, label_count)

    def step(members, groups, out=None):
        groups = np.ascontiguousarray(groups, dtype=np.int64)
        count = len(groups) - 1

        def outputs(_, edges):
            if out is None:
                pairs = tracked_empty((2, edges), name="contraction-chunk-out")
            elif out.dtype == np.int64 and out.ndim == 2 and len(out) == 2 \
                    and out.shape[1] >= edges and out.flags.c_contiguous:  # fmt: skip
                pairs = out
            else:
                raise ValueError(f"the output is two contiguous int64 rows of {edges} or more")
            degrees = tracked_empty(count, name="contraction-degrees")
            return (pairs, degrees), (groups, count, *pairs, pairs.shape[1], degrees)

        done = call(members, outputs)
        if done is None:
            none = np.empty(0, dtype=np.int64)
            return 0, np.zeros(count, dtype=np.int64), none, none
        edges, written, (pairs, degrees) = done
        return edges, degrees, pairs[0, :written], pairs[1, :written]

    return step


def group_by_label(labels: np.ndarray, label_count: int):
    """``(members, offsets)`` by one counting sort: the vertices grouped by
    label, ascending within a label (what ``np.argsort(labels,
    kind="stable")`` returns), and label ``c``'s run ``members[offsets[c] :
    offsets[c + 1]]``."""
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    offsets = tracked_empty(label_count + 1, name="label-offsets")
    members = tracked_empty(len(labels), name="label-members")
    info = np.zeros(2, dtype=np.int64)
    group = _native.contraction_kernels()[1]
    rc = group(*_pointers((labels, len(labels), label_count, offsets, members, info)))
    if rc < 0:
        raise ValueError(f"{_native.LP_ERRORS[rc]} at vertex {int(info[1])}")
    return members, offsets
