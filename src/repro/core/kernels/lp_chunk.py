"""One compiled call per label-propagation round, pick or contraction chunk
(``lp_kernel.c``).

The LP drivers (:mod:`repro.core.coarsening.lp_clustering`,
:mod:`repro.core.refinement.lp_refine`) own the rounds: visiting order,
schedule, cost records and counters.  :func:`clustering_round` and
:func:`refinement_round` bind a *round entry* of the kernel to one LP call's
arrays: called with the round's order and its chunk bounds in execution
order, it rates, picks and commits every chunk in turn -- chunk *i + 1*
reads chunk *i*'s commits -- and returns one stats row a chunk.  Its
``step(chunk)`` is the same entry over a round of one chunk (what the
conflict detector and the chunk-by-chunk tests run).  The builders refuse,
with a ``ValueError``, vertex weights whose sums the kernel's commit cannot
hold (:func:`repro.graph._native.vertex_weight_error`; the entry points
refuse such an input graph before any work).  The C header states the
contract; here the arrays are checked once per LP call and the pointers
handed over.  Distributed LP (:mod:`repro.dist.dlp`) takes a
*pick* from :func:`cluster_pick_step` / :func:`refine_pick_step` the same
way: the same rate and pick over one rank's batch, without the commit.
:func:`contraction_step` is the rating map again, summing a whole coarse
vertex's members into one map, every contraction's one aggregation.

A round reads each vertex's segment where the graph keeps it: a CSR graph's
``indptr`` and adjacency, or a compressed graph's degrees and byte stream,
each neighbourhood decoded as it is rated.  Only a chunk holding a
chunk-encoded hub or an implausible degree is decoded first, by
``decode_chunk`` (which splices the hub in or raises its error), and run as
a call of its own: a round makes ``1 + 2 * hub_chunks`` calls.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.graph import _native
from repro.graph.access import chunk_segments, count_edges, vertex_segments
from repro.graph.compressed import MIN_INTERVAL_LEN
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


def _vertex_weights(graph) -> np.ndarray:
    """The vertex weights as the kernels take them (a unit graph's zero-stride
    view kept); a ``ValueError`` for weights the kernels' commit cannot sum."""
    vwgt = np.asarray(graph.vwgt)
    if vwgt.shape != (graph.n,):
        raise ValueError(f"vertex weights need {graph.n} entries")
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


def stream_blocks(graph, count: int, name: str):
    """``(blocks, held)``: ``count`` :class:`_native.Stream` blocks (a ctypes
    array, whose address a kernel takes) over the compressed ``graph``'s
    checked byte stream, each with its own scratch of one neighbourhood --
    ``max_degree`` ids (weights too, if any) capped at ``max_plain_degree``,
    plus its interval pairs -- charged as ``name``; ``held`` is what they
    point into."""
    data, offsets = graph.stream()
    cap = max(0, min(graph.max_degree, graph.max_plain_degree))
    rows = 2 if graph.has_edge_weights else 1
    pairs = 2 * (cap // MIN_INTERVAL_LEN)
    width = rows * cap + pairs
    scratch = tracked_empty(count * width, name=name)
    blocks = (_native.Stream * count)()
    for i in range(count):
        at = scratch.ctypes.data + 8 * width * i
        blocks[i] = _native.Stream(
            data.ctypes.data, len(data), offsets.ctypes.data, graph.config.enable_intervals,
            at, at + 8 * cap if rows == 2 else None, cap, at + 8 * rows * cap, pairs,
        )  # fmt: skip
    return blocks, (data, offsets, scratch)


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
            block, held = stream_blocks(self._graph, 1, "lp-stream-scratch")
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
    each chunk.  The graph's segments go in keyed by vertex id, checked
    once: a CSR graph's ``indptr`` and adjacency, or a compressed graph's
    degrees (and its stream).
    """

    rows = 1

    def __init__(self, fn, graph, state: tuple, maps: np.ndarray, labels: int) -> None:
        super().__init__(fn, graph, state, maps, labels)
        self.scratch = tracked_empty((self.rows, 0), name="lp-chunk-out")
        self._scratch_args = _pointers((*self.scratch, 0))
        self._hubs = (None, None)  # (max_plain_degree, mask of the vertices decoded first)
        indptr, degrees, adj, wgt = vertex_segments(graph)
        if indptr is None:  # compressed: decoded from the stream as rated
            self._degrees = np.ascontiguousarray(degrees, dtype=np.int64)
            self._segments = _pointers((None, self._degrees)), (None, None, 1, 0)
            return
        self._degrees = None
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.shape != (graph.n + 1,):
            raise ValueError(f"indptr needs {graph.n + 1} entries")
        adjacency, held = _adjacency(adj, wgt)
        self._segments = _pointers((indptr, None)), adjacency
        self._held += (indptr, *held)

    def _hub_chunks(self, order: np.ndarray, bounds: np.ndarray) -> list[int]:
        """The chunks of ``bounds`` holding a vertex ``chunk_segments`` would
        decode first: a degree outside ``[0, max_plain_degree]``."""
        if self._degrees is None or not len(bounds):
            return []
        limit = self._graph.max_plain_degree
        if self._hubs[0] != limit:
            bad = (self._degrees < 0) | (self._degrees > limit)
            self._hubs = (limit, bad if bad.any() else None)
        if self._hubs[1] is None:
            return []
        at = np.flatnonzero(self._hubs[1][order])
        lo = bounds[:, 0]
        by_lo = np.argsort(lo, kind="stable")
        j = by_lo[np.maximum(np.searchsorted(lo[by_lo], at, side="right") - 1, 0)]
        return np.unique(j[(lo[j] <= at) & (at < bounds[j, 1])]).tolist()

    def _run(self, order, segments, by_vertex, bounds, stats, moved, moves, stream) -> int:
        (starts, degs), adjacency = segments
        out = None if moved is None else moved.ctypes.data + 8 * moves
        rc = self._fn(
            self._graph.n, order.ctypes.data, starts, degs, len(order), *adjacency, by_vertex,
            bounds.ctypes.data, len(bounds), *self._fixed, *self._scratch_args, out,
            stats.ctypes.data, len(stats), self.info.ctypes.data, stream,
        )  # fmt: skip
        return self._checked(rc, order)

    def __call__(self, order, bounds, moved: np.ndarray | None = None) -> np.ndarray:
        """One round: the stats rows of the chunks ``bounds`` (``(lo, hi)``
        positions of ``order``, in the order they run), columns
        :data:`EDGES` .. :data:`NANOS`; the movers, in the order they moved,
        into ``moved`` if given (``len(order)`` entries)."""
        order = np.ascontiguousarray(order, dtype=np.int64)
        bounds = np.ascontiguousarray(bounds, dtype=np.int64).reshape(-1, 2)
        chunks = len(bounds)
        stats = tracked_empty((chunks, NANOS + 1), name="lp-round-stats")
        width = int((bounds[:, 1] - bounds[:, 0]).max()) if chunks else 0
        if self.scratch.shape[1] < width:
            self.scratch = tracked_empty((self.rows, width), name="lp-chunk-out")
            self._scratch_args = _pointers((*self.scratch, width))
        moves = at = 0
        for j in (*self._hub_chunks(order, bounds), chunks):
            if at < j:
                stream = None if self._degrees is None else self._stream_address()
                part = slice(at, j)
                moves += self._run(
                    order, self._segments, 1, bounds[part], stats[part], moved, moves, stream
                )
                count_edges(self._graph, stats[part, EDGES])
            if j < chunks:  # decoded first, keyed by position
                chunk = order[bounds[j, 0] : bounds[j, 1]]
                starts, degs, adj, wgt = chunk_segments(self._graph, chunk)
                adjacency, held = _adjacency(adj, wgt)  # held: what they point into
                segments = _pointers((starts, degs)), adjacency
                whole = np.array([[0, len(chunk)]], dtype=np.int64)
                moves += self._run(chunk, segments, 0, whole, stats[j : j + 1], moved, moves, None)
            at = j + 1
        return stats

    def one(self, chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, moved, scratch)`` of ``chunk`` run as a round of one chunk:
        its stats row, its movers and its per-vertex scratch rows."""
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        moved = tracked_empty(len(chunk), name="lp-chunk-moved")
        row = self(chunk, np.array([0, len(chunk)], dtype=np.int64), moved)[0]
        return row, moved[: row[MOVES]], self.scratch[:, : len(chunk)]


class _ClusteringRound(_RoundKernel):
    rows = 3  # fav, best, nc

    def step(self, chunk):
        """``None`` for a chunk without edges, else ``(edges, fav_us, fav,
        nc, targets, moved)``: the chunk vertices that have a neighbour and
        the favorite cluster of each (also written to ``favorites``), per
        chunk vertex its number of distinct neighbour clusters, how many
        vertices had a target, and the vertices moved -- ``clusters`` /
        ``cluster_weights`` already updated."""
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        row, moved, (fav, _, nc) = self.one(chunk)
        if not row[EDGES]:
            return None
        rated = nc > 0
        return int(row[EDGES]), chunk[rated], fav[rated], nc.copy(), int(row[TARGETS]), moved


class _RefinementRound(_RoundKernel):
    rows = 1  # best

    def step(self, chunk):
        """``None`` for a chunk without edges, else ``(edges, moved)`` --
        ``part`` / ``block_weights`` already updated."""
        row, moved, _ = self.one(chunk)
        return (int(row[EDGES]), moved) if row[EDGES] else None


def _clustering_state(graph, clusters, cluster_weights, max_cluster_weight):
    """One clustering's argument block as the kernels take it."""
    n = graph.n
    vwgt = _vertex_weights(graph)
    _int64_vector(clusters, n, "clusters")
    _int64_vector(cluster_weights, n, "cluster weights")
    limit = _native.clamp_weight(max_cluster_weight)
    return (clusters, cluster_weights, *_weight_args(vwgt), limit)


def clustering_round(
    graph, clusters, cluster_weights, max_cluster_weight, maps, favorites, t_bump: int
):
    """LP clustering's round on the kernel.

    ``maps`` is the ``(3, n)`` zeroed rating map (the sparse array and its
    non-zero buffers, which the caller has on the ledger).  A round commits
    to ``clusters`` / ``cluster_weights``, writes each rated vertex's
    favorite cluster to ``favorites`` and counts, per chunk, the vertices
    with at least ``t_bump`` distinct neighbour clusters (bumped to the
    second phase) and their cluster counts summed.
    """
    state = _clustering_state(graph, clusters, cluster_weights, max_cluster_weight)
    state = (*state, t_bump, _int64_vector(favorites, graph.n, "favorites"))
    return _ClusteringRound(_native.lp_kernels()[0], graph, state, maps, graph.n)


def cluster_pick_step(graph, clusters, cluster_weights, max_cluster_weight, maps):
    """``pick(chunk)`` of distributed LP clustering on the kernel.

    ``pick`` returns ``(movers, targets)``: in chunk order, every chunk
    vertex whose favorite cluster -- ranked as in :func:`clustering_round`,
    the jitter keyed by the vertex's chunk index -- is not its own and fits
    ``max_cluster_weight``.  Nothing is committed; ``clusters`` /
    ``cluster_weights`` are only read.
    """
    state = _clustering_state(graph, clusters, cluster_weights, max_cluster_weight)
    return _picking(_ChunkKernel(_native.lp_kernels()[2], graph, state, maps, graph.n), 5)


def _refinement_state(graph, part, block_weights, limits):
    """One refinement's argument block as the kernels take it and its rating
    map."""
    vwgt = _vertex_weights(graph)
    k = len(block_weights)
    if part.dtype != np.int32 or part.shape != (graph.n,) or not part.flags.c_contiguous:
        raise ValueError(f"the partition must be {graph.n} contiguous int32 block ids")
    _int64_vector(block_weights, k, "block weights")
    limits = np.ascontiguousarray(limits, dtype=np.int64)
    if limits.shape != (k,):
        raise ValueError(f"one block weight limit a block: {k}")
    maps = tracked_zeros((3, k), name="lp-refine-rating-map")
    return (k, part, block_weights, *_weight_args(vwgt), limits), maps


def refinement_round(graph, part, block_weights, limits):
    """LP refinement's round on the kernel.

    ``limits`` is the per-block weight cap (``k`` entries).  A round commits
    to ``part`` / ``block_weights``.
    """
    state = _refinement_state(graph, part, block_weights, limits)
    return _RefinementRound(_native.lp_kernels()[1], graph, *state, len(block_weights))


def refine_pick_step(graph, part, block_weights, max_block_weight: int):
    """``pick(chunk)`` of distributed LP refinement on the kernel.

    ``pick`` returns ``(movers, targets)``: in chunk order, every chunk
    vertex with a target by :func:`refinement_round`'s rule, every block
    capped at ``max_block_weight``.  Nothing is committed; ``part`` /
    ``block_weights`` are only read.
    """
    limit = _native.clamp_weight(max_block_weight)
    limits = tracked_full(len(block_weights), limit, name="dlp-block-limits")
    state = _refinement_state(graph, part, block_weights, limits)
    fn = _native.lp_kernels()[3]
    return _picking(_ChunkKernel(fn, graph, *state, len(block_weights)), 3)


def contraction_step(graph, labels: np.ndarray, label_count: int):
    """``step(members, groups, own)`` of contraction on the kernel: the one
    aggregation every coarse graph is built by -- buffered and one-pass
    contraction, each rank's share of distributed contraction and the
    baselines.

    ``labels`` keys every vertex by its coarse vertex, in ``[0,
    label_count)``.  One call aggregates ``len(own)`` coarse vertices: coarse
    vertex ``g`` is the members ``members[groups[g] - groups[0] : groups[g +
    1] - groups[0]]``, its own key ``own[g]``.  ``step`` returns ``(edges,
    degrees, keys, weights)``: the members' edges read, each coarse vertex's
    number of coarse edges, and those edges coarse vertex by coarse vertex
    -- neighbour keys ascending, own key dropped, weights summed.
    """
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.shape != (graph.n,):
        raise ValueError(f"contraction needs one label a vertex: {graph.n}")
    maps = tracked_zeros((3, label_count), name="contraction-rating-map")
    fn = _native.contraction_kernels()[0]
    call = _ChunkKernel(fn, graph, (label_count, labels), maps, label_count)

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
