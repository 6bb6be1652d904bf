"""The workspace one bisection's attempts share, and the compiled searches on it."""

from __future__ import annotations

import math

import numpy as np

from repro.graph import _native
from repro.graph.access import full_adjacency
from repro.graph.csr import _ones_like_view
from repro.memory.scratch import tracked_empty, tracked_full, tracked_zeros

#: the pool's seed kinds in ``bisection_kernel.c``'s numbering
KIND_CODES = ("ggg", "bfs", "random")

#: the columns of a pool stats row (``ROW_*`` in ``bisection_kernel.c``)
ROW_FIELDS = ("kind", "ran", "infeasible", "cut", "pops", "pushes", "passes")
RAN = ROW_FIELDS.index("ran")

_SPLIT_ROW = 6  # n, m, vertex start, edge start, total vertex weight, unit weights


def fm_patience(n: int) -> int:
    """2-way FM's ``ln n`` steps before the stopping rule may fire, in integers."""
    return math.floor(math.log(max(n, 1)))


class BisectionWorkspace:
    """One graph, flattened once, for the sequential searches and the bulk steps.

    ``xadj`` and ``flat = (src, dst, weight)`` are int64 arrays: the bulk
    steps (gains, cut) read them, and so do the compiled searches of
    ``bisection_kernel.c`` (:meth:`kernels`), which otherwise see a graph
    (``n``, ``vwgt``, ``total_vertex_weight``).  Nothing is cached on the
    graph itself, so a resident graph never carries the workspace.

    A workspace :meth:`BisectionKernels.split` wrote holds the kernel's
    arrays as they are (``src`` is expanded only if ``flat`` is asked for)
    and comes bound to the kernels.
    """

    __slots__ = ("n", "vwgt", "total_vertex_weight", "xadj", "_flat", "_kernels")

    def __init__(self, graph) -> None:
        n = graph.n
        src, dst, w = full_adjacency(graph)
        xadj = tracked_zeros(n + 1, np.int64, name="bisection-xadj")
        np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
        self.n = n
        self.vwgt = np.asarray(graph.vwgt)
        self.total_vertex_weight = graph.total_vertex_weight
        self._flat = (src, dst, w)
        self.xadj = xadj
        self._kernels = None

    @classmethod
    def of(cls, graph) -> "BisectionWorkspace":
        """``graph`` itself when it already is a workspace, else a new one."""
        return graph if isinstance(graph, cls) else cls(graph)

    @classmethod
    def _induced(cls, n, xadj, adj, wgt, vwgt, total) -> "BisectionWorkspace":
        """A workspace over arrays ``repro_split`` wrote (``None`` weights: unit)."""
        ws = cls.__new__(cls)
        ws.n = n
        ws.vwgt = _ones_like_view(n) if vwgt is None else vwgt
        ws.total_vertex_weight = total
        ws.xadj = xadj
        ws._flat = (None, adj, _ones_like_view(len(adj)) if wgt is None else wgt)
        return ws

    @property
    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src, dst, w = self._flat
        if src is None:
            src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.xadj))
            self._flat = (src, dst, w)
        return self._flat

    def kernels(self) -> "BisectionKernels":
        """The compiled searches bound to this workspace.  Raises
        ``ValueError`` for an ``xadj`` that does not tile ``adj`` and for
        weights the kernels' int64 / ``__int128`` arithmetic cannot hold
        (:func:`repro.graph._native.check_graph` refuses such an input graph
        before any work)."""
        if self._kernels is None:
            self._kernels = BisectionKernels.bind(self, _native.bisection_kernels())
        return self._kernels


def _weights(array: np.ndarray) -> np.ndarray | None:
    """A contiguous int64 array, or ``None`` for all ones."""
    if not len(array) or (array.strides == (0,) and array[0] == 1):
        return None
    return np.ascontiguousarray(array, dtype=np.int64)


class _Scratch:
    """Named scratch arrays of one recursion: a workspace and every workspace
    split from it share them, each search taking a prefix of the array under
    the ledger name its Python list has (subgraphs are never larger, so the
    root allocates them once).  The kernels initialise what they use."""

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held: dict[str, tuple[np.ndarray, int]] = {}

    def get(self, name: str, size: int, dtype) -> tuple[np.ndarray, int]:
        """``(the first size entries, their address)``."""
        held = self._held.get(name)
        if held is None or len(held[0]) < size:
            array = tracked_empty(size, dtype, name=name)
            held = self._held[name] = (array, array.ctypes.data)
        return held[0][:size], held[1]

    def pointers(self, *specs) -> list[int]:
        return [self.get(*spec)[1] for spec in specs]


class BisectionKernels:
    """``bisection_kernel.c`` on one workspace.  Graph pointers are prepared
    once; scratch comes from the recursion's :class:`_Scratch`, one heap
    buffer serves every search.  ``work`` accumulates the kernels' heap pops,
    pushes, FM passes and stale re-pushes."""

    __slots__ = ("n", "work", "_functions", "_graph", "_arrays", "_scratch", "_bounds", "_heap")

    def __init__(self, n, arrays, functions, scratch, bounds, pointers=None) -> None:
        self.n = n
        self._functions = functions
        self._arrays = arrays  # the pointers below are only good while these live
        self._graph = pointers or tuple(None if a is None else a.ctypes.data for a in arrays)
        self._scratch = scratch
        # (sum of |edge weights|, largest degree): bounds for every subgraph
        self._bounds = bounds
        self._heap = None
        self.work = np.zeros(4, dtype=np.int64)

    @property
    def heap(self) -> np.ndarray:
        """The searches' heap, taken at first use (a workspace that is only
        split never needs one): n + m entries of (key, tie, vertex) bound
        every push count (see the C header)."""
        if self._heap is None:
            size = 3 * (self.n + len(self._arrays[1]))
            self._heap = self._scratch.get("bisection-heap", size, np.int64)[0]
        return self._heap

    @heap.setter
    def heap(self, heap: np.ndarray) -> None:
        self._heap = heap

    @classmethod
    def bind(cls, ws: BisectionWorkspace, functions) -> "BisectionKernels":
        n, xadj = ws.n, ws.xadj
        _, dst, w = ws._flat
        degrees = np.diff(xadj)
        if (
            xadj.dtype != np.int64
            or not xadj.flags.c_contiguous
            or (len(xadj), len(w), len(ws.vwgt)) != (n + 1, len(dst), n)
            or int(xadj[0]) != 0
            or int(xadj[-1]) != len(dst)
            or int(degrees.min(initial=0)) < 0
        ):
            raise ValueError("xadj does not tile the adjacency (corrupt workspace?)")
        adj = np.ascontiguousarray(dst, dtype=np.int64)
        wgt = _weights(w)
        vwgt = _weights(ws.vwgt)
        # every gain, and every sum of gains in a pass, is at most W
        total = len(adj) if wgt is None else _native.exact_sum(np.abs(wgt))
        why = _native.vertex_weight_error(ws.vwgt)
        if why is None and total >= _native.WEIGHT_LIMIT:
            why = f"the summed |edge weights| {total} are not below 2^62"
        if why is not None:
            raise ValueError(f"the compiled bisection cannot hold this graph: {why}")
        bounds = (total, int(degrees.max(initial=0)))
        return cls(n, (xadj, adj, wgt, vwgt), functions, _Scratch(), bounds)

    def _run(self, fn, *args) -> int:
        """The shared calling convention: workspace arrays, ``args``, heap, counters."""
        heap, work = self.heap.ctypes.data, self.work.ctypes.data
        rc = fn(self.n, *self._graph, *args, heap, len(self.heap) // 3, work)
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        return rc

    def grow_greedy(self, order: np.ndarray, target0: int, max0: int) -> np.ndarray:
        """Vertices greedy graph growing absorbed, in absorption order (a view
        of scratch: good until the next search of this recursion)."""
        n = self.n
        grown, grown_at = self._scratch.get("bipartition-grown", n, np.int64)
        pointers = self._scratch.pointers(
            ("bipartition-gain", n, np.int64),
            ("bipartition-in-block", n, np.uint8),
            ("bipartition-blocked", n, np.uint8),
        )
        order = _order(order, n)
        target0, max0 = _native.clamp_weight(target0), _native.clamp_weight(max0)
        count = self._run(
            self._functions[0], order.ctypes.data, target0, max0, *pointers, grown_at, n
        )
        return grown[:count]

    def grow_bfs(self, order: np.ndarray, target0: int) -> np.ndarray:
        """Vertices BFS growth dequeued into block 0, in that order (a view of
        scratch, as above)."""
        n = self.n
        queue, queue_at = self._scratch.get("bipartition-grown", n, np.int64)
        (visited_at,) = self._scratch.pointers(("bipartition-visited", n, np.uint8))
        order = _order(order, n)
        target0 = _native.clamp_weight(target0)
        count = self._run(self._functions[1], order.ctypes.data, target0, visited_at, queue_at, n)
        return queue[:count]

    def _fm_scratch(self, rounds: int) -> list[int]:
        n = self.n
        return self._scratch.pointers(
            ("fm2way-gains", n, np.int64),
            ("fm2way-locked", n, np.uint8),
            ("fm2way-kept", rounds, np.int64),
            ("fm2way-moves", rounds * n, np.int64),
        )

    def fm2way(self, part, max_weights, rounds: int, patience: int) -> list[list[int]]:
        """The kept prefix of each 2-way FM pass run from ``part``, in order."""
        if rounds <= 0:
            return []
        n, get = self.n, self._scratch.get
        side, side_at = get("fm2way-side", n, np.int8)
        side[:] = part
        max0, max1 = map(_native.clamp_weight, max_weights)
        passes = self._run(
            self._functions[2], max0, max1, rounds, patience, side_at,
            *self._fm_scratch(rounds), rounds * n,
        )  # fmt: skip
        kept = get("fm2way-kept", rounds, np.int64)[0]
        moves = get("fm2way-moves", rounds * n, np.int64)[0]
        ends = np.cumsum(kept[:passes])
        return [prefix.tolist() for prefix in np.split(moves[: ends[-1]], ends[:-1])]

    def pool(self, kinds, target0, max0, max1, rng, attempts, rounds, sigmas):
        """``(best assignment, one stats row a slot)`` of a bisection's whole
        attempt pool in one call (the rows a view of scratch, good until the
        next pool of this recursion).  A cap below 0, or cut sums a double
        would round (:func:`repro.graph._native.cut_sum_error`), raise a
        ``ValueError`` before anything is drawn.

        Every attempt that runs draws one ``rng.permutation(n)``; all
        ``attempts`` orders are drawn up front, and afterwards ``rng`` is
        rewound to where the last order used left it -- the stream of the
        attempts run one by one.  A refusal rewinds it to where it was."""
        n, get = self.n, self._scratch.get
        rounds = max(rounds, 0)
        if min(max0, max1) < 0:
            raise ValueError(f"bisection caps {max0}, {max1}: a cap is negative")
        why = _native.cut_sum_error(attempts, self._bounds[0])
        if why is not None:
            raise ValueError(f"the compiled bisection pool cannot sum its cuts: {why}")
        orders, orders_at = get("bisection-orders", attempts * n, np.int64)
        before = rng.bit_generator.state
        states = []
        for row in orders.reshape(attempts, n):
            row[:] = rng.permutation(n)
            states.append(rng.bit_generator.state)
        part = tracked_empty(n, np.int32, name="bipartition-part")
        rows, rows_at = get("bisection-pool-stats", attempts * len(ROW_FIELDS), np.int64)
        pointers = self._scratch.pointers(
            ("bipartition-gain", n, np.int64),
            ("bipartition-in-block", n, np.uint8),
            ("bipartition-blocked", n, np.uint8),
            ("bipartition-visited", n, np.uint8),
            ("bipartition-grown", n, np.int64),
            ("fm2way-side", n, np.int8),
            ("bisection-best-side", n, np.int8),
        )
        clamp = _native.clamp_weight
        try:
            used = self._run(
                self._functions[3], clamp(target0), clamp(max0), clamp(max1),
                kinds.ctypes.data, len(kinds), attempts, sigmas, rounds, fm_patience(n),
                orders_at, attempts, *pointers, *self._fm_scratch(rounds), rounds * n,
                part.ctypes.data, rows_at,
            )  # fmt: skip
        except ValueError:
            rng.bit_generator.state = before
            raise
        if used < attempts:
            rng.bit_generator.state = states[used - 1]
        return part, rows.reshape(attempts, len(ROW_FIELDS))

    def split(self, labels, label_count: int, blocks, ids=None) -> list:
        """``[(workspace, ids)]`` of the subgraph each label of ``blocks``
        induces, in one call: the workspaces come bound to these kernels'
        scratch, ``ids`` names each subgraph vertex by ``ids`` of its vertex
        here (by the vertex itself when ``ids`` is ``None``)."""
        n = self.n
        xadj, adj, wgt, vwgt = self._arrays
        m, slots = len(adj), len(blocks)
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if len(labels) != n or (ids is not None and len(ids) != n):
            raise ValueError("one label and one id a vertex")
        slot_of = tracked_full(label_count, -1, np.int64, name="subgraph-slots")
        slot_of[list(blocks)] = np.arange(slots)
        if ids is not None:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
        out_xadj = tracked_empty(n + slots, np.int64, name="subgraph-indptr")
        out_adj = tracked_empty(m, np.int64, name="subgraph-adjncy")
        out_wgt = None if wgt is None else tracked_empty(m, np.int64, name="subgraph-adjwgt")
        out_vwgt = None if vwgt is None else tracked_empty(n, np.int64, name="subgraph-vwgt")
        out_ids = tracked_empty(n, np.int64, name="subgraph-ids")
        info = tracked_empty(slots * _SPLIT_ROW, np.int64, name="subgraph-info")
        max_degree = self._bounds[1]
        (local_at, sort_at) = self._scratch.pointers(
            ("subgraph-local-ids", n, np.int64), ("subgraph-sort", 2 * max_degree, np.int64)
        )
        xadj_at, adj_at, wgt_at, vwgt_at, ids_at = (
            None if a is None else a.ctypes.data for a in (out_xadj, out_adj, out_wgt, out_vwgt, ids)
        )
        rc = self._functions[4](
            n, *self._graph, labels.ctypes.data, slot_of.ctypes.data, label_count, slots,
            ids_at, local_at, xadj_at, adj_at, wgt_at, m, vwgt_at, out_ids.ctypes.data,
            sort_at, max_degree, info.ctypes.data,
        )  # fmt: skip
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        out = []
        for s, (ns, ms, v0, e0, total, unit) in enumerate(info.reshape(slots, _SPLIT_ROW).tolist()):
            unit = unit or out_wgt is None
            sub = (
                out_xadj[v0 + s : v0 + s + ns + 1],
                out_adj[e0 : e0 + ms],
                None if unit else out_wgt[e0 : e0 + ms],
                None if out_vwgt is None else out_vwgt[v0 : v0 + ns],
            )
            pointers = (
                xadj_at + 8 * (v0 + s),
                adj_at + 8 * e0,
                None if unit else wgt_at + 8 * e0,
                None if out_vwgt is None else vwgt_at + 8 * v0,
            )
            child = BisectionWorkspace._induced(ns, *sub, total)
            child._kernels = BisectionKernels(
                ns, sub, self._functions, self._scratch, self._bounds, pointers
            )
            out.append((child, out_ids[v0 : v0 + ns]))
        return out


def _order(order: np.ndarray, n: int) -> np.ndarray:
    order = np.ascontiguousarray(order, dtype=np.int64)
    if len(order) != n:
        raise ValueError("visiting order must name every vertex once")
    return order
