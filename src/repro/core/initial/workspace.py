"""The workspace one bisection's attempts share, the compiled searches on it,
and recursive bisection's tree on it, a depth per call."""

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
#: a node row of ``repro_bisect_depth`` (``NODE_*``) and a child row, its
#: first nine columns and the child's total vertex weight (``CHILD_*``)
NODE_FIELDS = (
    "n", "m", "xadj", "vertex", "edge", "unit", "k", "first", "seed", "target0", "max0", "max1",
    "patience",
)  # fmt: skip
CHILD_FIELDS = (*NODE_FIELDS[: NODE_FIELDS.index("target0")], "weight")


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
    arrays as they are (``src`` and unit weights are expanded only if
    ``flat`` or ``vwgt`` is asked for) and is bound to the kernels at its
    first :meth:`kernels` call.
    """

    __slots__ = ("n", "_vwgt", "total_vertex_weight", "xadj", "_flat", "_kernels", "_bound")

    def __init__(self, graph) -> None:
        n = graph.n
        src, dst, w = full_adjacency(graph)
        xadj = tracked_zeros(n + 1, np.int64, name="bisection-xadj")
        np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
        self.n = n
        self._vwgt = np.asarray(graph.vwgt)
        self.total_vertex_weight = graph.total_vertex_weight
        self._flat = (src, dst, w)
        self.xadj = xadj
        self._kernels = self._bound = None

    @classmethod
    def of(cls, graph) -> "BisectionWorkspace":
        """``graph`` itself when it already is a workspace, else a new one."""
        return graph if isinstance(graph, cls) else cls(graph)

    @classmethod
    def _induced(cls, n, arrays, total, bound) -> "BisectionWorkspace":
        """A workspace over ``arrays = (xadj, adj, wgt, vwgt)`` ``repro_split``
        wrote (``None`` weights: unit); ``bound`` holds what its kernels take
        besides ``n`` and the arrays."""
        xadj, adj, wgt, vwgt = arrays
        ws = cls.__new__(cls)
        ws.n = n
        ws._vwgt = vwgt
        ws.total_vertex_weight = total
        ws.xadj = xadj
        ws._flat = (None, adj, wgt)
        ws._kernels, ws._bound = None, (arrays, *bound)
        return ws

    @property
    def vwgt(self) -> np.ndarray:
        if self._vwgt is None:
            self._vwgt = _ones_like_view(self.n)
        return self._vwgt

    @property
    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src, dst, w = self._flat
        if src is None or w is None:
            if src is None:
                src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.xadj))
            if w is None:
                w = _ones_like_view(len(dst))
            self._flat = (src, dst, w)
        return self._flat

    def kernels(self) -> "BisectionKernels":
        """The compiled searches bound to this workspace.  Raises
        ``ValueError`` for an ``xadj`` that does not tile ``adj`` and for
        weights the kernels' int64 / ``__int128`` arithmetic cannot hold
        (:func:`repro.graph._native.check_graph` refuses such an input graph
        before any work)."""
        if self._kernels is None:
            if self._bound is None:
                self._kernels = BisectionKernels.bind(self, _native.bisection_kernels())
            else:
                self._kernels = BisectionKernels(self.n, *self._bound)
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
    root allocates them once).  The kernels initialise what they use.  The
    recursion's work counters live here too, and every address is taken
    once."""

    __slots__ = ("_held", "_pool", "_kinds", "work", "work_at")

    def __init__(self) -> None:
        self._held: dict[str, tuple[np.ndarray, int]] = {}
        # (n, rounds, attempts, stats rows, their address, pointers) of the
        # last pool: good for any smaller pool until an array moves
        self._pool = None
        self._kinds = (None, 0)  # the last pool kinds and their address
        self.work = np.zeros(4, dtype=np.int64)
        self.work_at = self.work.ctypes.data

    def kinds(self, kinds: np.ndarray) -> int:
        """The address of a pool's kinds (one array a recursion, as a rule)."""
        if self._kinds[0] is not kinds:
            self._kinds = (kinds, kinds.ctypes.data)
        return self._kinds[1]

    def get(self, name: str, size: int, dtype) -> tuple[np.ndarray, int]:
        """``(the first size entries, their address)``."""
        held = self._held.get(name)
        if held is None or len(held[0]) < size:
            array = tracked_empty(size, dtype, name=name)
            held = self._held[name] = (array, array.ctypes.data)
            self._pool = None
        return held[0][:size], held[1]

    def pointers(self, *specs) -> list[int]:
        return [self.get(*spec)[1] for spec in specs]

    def fm(self, n: int, rounds: int) -> list[int]:
        """2-way FM's scratch for ``rounds`` passes on ``n`` vertices."""
        return self.pointers(
            ("fm2way-gains", n, np.int64),
            ("fm2way-locked", n, np.uint8),
            ("fm2way-kept", rounds, np.int64),
            ("fm2way-moves", rounds * n, np.int64),
        )

    def pool(self, n: int, rounds: int, attempts: int):
        """``(stats rows, their address, scratch pointers)`` of a pool on
        ``n`` vertices: looked up once a recursion, again only when a pool
        is larger or shaped differently, or an array moved."""
        memo = self._pool
        if memo is None or memo[0] < n or memo[1:3] != (rounds, attempts):
            rows, rows_at = self.get("bisection-pool-stats", attempts * len(ROW_FIELDS), np.int64)
            pointers = self.pointers(
                ("bipartition-gain", n, np.int64),
                ("bipartition-in-block", n, np.uint8),
                ("bipartition-blocked", n, np.uint8),
                ("bipartition-visited", n, np.uint8),
                ("bipartition-grown", n, np.int64),
                ("fm2way-side", n, np.int8),
                ("bisection-best-side", n, np.int8),
                ("bisection-orders", n, np.int64),
            ) + self.fm(n, rounds)
            rows = rows.reshape(attempts, len(ROW_FIELDS))
            memo = self._pool = (n, rounds, attempts, rows, rows_at, pointers)
        return memo[3:]


class BisectionKernels:
    """``bisection_kernel.c`` on one workspace.  Graph pointers are prepared
    once; scratch comes from the recursion's :class:`_Scratch`, one heap
    buffer serves every search.  ``work`` accumulates the recursion's queue
    pops, pushes, FM passes and stale re-pushes."""

    __slots__ = ("n", "_functions", "_graph", "_arrays", "_scratch", "_bounds", "_heap")

    def __init__(self, n, arrays, functions, scratch, bounds, pointers=None) -> None:
        self.n = n
        self._functions = functions
        self._arrays = arrays  # the pointers below are only good while these live
        self._graph = pointers or tuple(None if a is None else a.ctypes.data for a in arrays)
        self._scratch = scratch
        self._bounds = bounds
        self._heap = None  # (heap, its address)

    @property
    def work(self) -> np.ndarray:
        return self._scratch.work

    @property
    def heap(self) -> np.ndarray:
        """The searches' queue buffer, taken at first use (a workspace that
        is only split never needs one): n + m entries of three words bound
        every push count (see the C header)."""
        if self._heap is None:
            size = 3 * (self.n + len(self._arrays[1]))
            self._heap = self._scratch.get("bisection-heap", size, np.int64)
        return self._heap[0]

    @heap.setter
    def heap(self, heap: np.ndarray) -> None:
        self._heap = (heap, heap.ctypes.data)

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
        # (W, largest degree, most attempts whose cut sums stay exact): bounds
        # for every subgraph, since subgraphs only drop edges
        most = (_native.CUT_SUM_LIMIT - 1) // total if total else math.inf
        bounds = (total, int(degrees.max(initial=0)), most)
        return cls(n, (xadj, adj, wgt, vwgt), functions, _Scratch(), bounds)

    def _queue(self) -> tuple[int, int, int]:
        """``(heap address, its capacity in entries, work address)``: the
        arguments every search, pool and depth call ends with."""
        heap = self.heap
        return self._heap[1], len(heap) // 3, self._scratch.work_at

    def _run(self, fn, *args) -> int:
        """The shared calling convention: workspace arrays, ``args``, heap, counters."""
        rc = fn(self.n, *self._graph, *args, *self._queue())
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        return rc

    def check_pool(self, attempts: int) -> None:
        """Refuse a pool of ``attempts`` whose cut sums a double would round
        (:func:`repro.graph._native.cut_sum_error`)."""
        if max(1, attempts) > self._bounds[2]:
            why = _native.cut_sum_error(attempts, self._bounds[0])
            raise ValueError(f"the compiled bisection pool cannot sum its cuts: {why}")

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
            *self._scratch.fm(n, rounds), rounds * n,
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

        The pool draws one 64-bit seed from ``rng``, whatever ``attempts``
        is and however many slots run; the kernel derives slot ``i``'s order
        from ``(seed, i)``.  A refusal leaves ``rng`` where it was."""
        n = self.n
        rounds = max(rounds, 0)
        if min(max0, max1) < 0:
            raise ValueError(f"bisection caps {max0}, {max1}: a cap is negative")
        self.check_pool(attempts)
        rows, rows_at, pointers = self._scratch.pool(n, rounds, attempts)
        part = tracked_empty(n, np.int32, name="bipartition-part")
        clamp = _native.clamp_weight
        before = rng.bit_generator.state
        try:
            self._run(
                self._functions[3], clamp(target0), clamp(max0), clamp(max1),
                self._scratch.kinds(kinds), len(kinds), attempts, sigmas, rounds, fm_patience(n),
                rng.bit_generator.random_raw(), *pointers, rounds * n, part.ctypes.data, rows_at,
            )  # fmt: skip
        except ValueError:
            rng.bit_generator.state = before
            raise
        return part, rows

    def split(self, labels, label_count: int, blocks, ids=None) -> list:
        """``[(workspace, ids)]`` of the subgraph each label of ``blocks``
        induces, in one call: the workspaces share these kernels' scratch
        and are bound to the kernels when first asked; ``ids`` names each
        subgraph vertex by ``ids`` of its vertex here (by the vertex itself
        when ``ids`` is ``None``)."""
        n = self.n
        xadj, adj, wgt, vwgt = self._arrays
        m, slots = len(adj), len(blocks)
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if len(labels) != n or (ids is not None and len(ids) != n):
            raise ValueError("one label and one id a vertex")
        get = self._scratch.get
        slot_of, slot_of_at = get("subgraph-slots", label_count, np.int64)
        slot_of.fill(-1)
        slot_of[list(blocks)] = np.arange(slots)
        info, info_at = get("subgraph-info", slots * _SPLIT_ROW, np.int64)
        if ids is not None:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
        out_xadj = tracked_empty(n + slots, np.int64, name="subgraph-indptr")
        out_adj = tracked_empty(m, np.int64, name="subgraph-adjncy")
        out_wgt = None if wgt is None else tracked_empty(m, np.int64, name="subgraph-adjwgt")
        out_vwgt = None if vwgt is None else tracked_empty(n, np.int64, name="subgraph-vwgt")
        out_ids = tracked_empty(n, np.int64, name="subgraph-ids")
        max_degree = self._bounds[1]
        (local_at, sort_at) = self._scratch.pointers(
            ("subgraph-local-ids", n, np.int64), ("subgraph-sort", 2 * max_degree, np.int64)
        )
        xadj_at, adj_at, wgt_at, vwgt_at, ids_at, out_ids_at = (
            None if a is None else a.ctypes.data
            for a in (out_xadj, out_adj, out_wgt, out_vwgt, ids, out_ids)
        )
        rc = self._functions[4](
            n, *self._graph, labels.ctypes.data, slot_of_at, label_count, slots,
            ids_at, local_at, xadj_at, adj_at, wgt_at, m, vwgt_at, out_ids_at,
            sort_at, max_degree, info_at,
        )  # fmt: skip
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        bound = (self._functions, self._scratch, self._bounds)
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
            child = BisectionWorkspace._induced(ns, sub, total, (*bound, pointers))
            out.append((child, out_ids[v0 : v0 + ns]))
        return out


class BisectionTree:
    """Recursive bisection's tree on one workspace, a depth of it per
    ``repro_bisect_depth`` call.  The first depth reads the workspace
    itself; each call writes the subgraphs of the next depth into a fresh
    arena the workspace's size (the nodes of one depth hold disjoint
    vertices and edges), which the next call reads, and the blocks of the
    nodes that end here into ``part``.  The caller names each depth's
    nodes by rows of :data:`NODE_FIELDS`; :attr:`root` is the row of
    :data:`CHILD_FIELDS` of the workspace split into ``k`` blocks.  A pool
    that cannot sum its cuts exactly is refused here, before anything is
    drawn."""

    def __init__(self, ws: BisectionWorkspace, part, k, kinds, attempts, rounds, sigmas) -> None:
        kernels = ws.kernels()
        kernels.check_pool(attempts)
        rounds = max(rounds, 0)
        xadj, adj, wgt, vwgt = kernels._arrays
        n, m = kernels.n, len(adj)
        self.root = [n, m, 0, 0, 0, int(wgt is None), k, 0, 0, ws.total_vertex_weight]
        self.ran = self.slots = 0
        self._kernels = kernels
        self._part = part
        self._weighted = (wgt is not None, vwgt is not None)
        # the arena a depth reads: its arrays, (xadj, its length, adj, wgt,
        # their length, vwgt, ids, their length) as the kernel takes them
        self._arena = kernels._arrays
        self._graph = (*kernels._graph[:1], n + 1, *kernels._graph[1:3], m, kernels._graph[3], None, n)
        self._spec = (
            kernels._scratch.kinds(kinds), len(kinds), attempts, sigmas, rounds, n,
            *kernels._scratch.pool(n, rounds, attempts)[2], rounds * n,
        )  # fmt: skip

    def depth(self, nodes: list, seeds: np.ndarray) -> list[list[int]]:
        """Run the bisections ``nodes`` (rows of :data:`NODE_FIELDS`) from
        ``seeds``: the rows of :data:`CHILD_FIELDS` of the next depth's
        subgraphs, in node order, side 0 first."""
        kernels, count = self._kernels, len(nodes)
        n, m = self.root[:2]
        rows = np.array(nodes, dtype=np.int64).reshape(count, len(NODE_FIELDS))
        get = kernels._scratch.get
        attempts = self._spec[2]
        stats, stats_at = get("bisection-pool-stats", count * attempts * len(ROW_FIELDS), np.int64)
        children, children_at = get("subgraph-info", 2 * count * len(CHILD_FIELDS), np.int64)
        labels_at, local_at, sort_at = kernels._scratch.pointers(
            ("bipartition-part", n, np.int32),
            ("subgraph-local-ids", n, np.int64),
            ("subgraph-sort", 2 * kernels._bounds[1], np.int64),
        )
        arena = None
        out = (None, 0, None, None, 0, None, None, 0)
        if int(rows[:, NODE_FIELDS.index("k")].max(initial=0)) > 2:  # a node splits
            weighted, vertex_weighted = self._weighted
            arena = (
                tracked_empty(n + 2 * count, np.int64, name="subgraph-indptr"),
                tracked_empty(m, np.int64, name="subgraph-adjncy"),
                tracked_empty(m, np.int64, name="subgraph-adjwgt") if weighted else None,
                tracked_empty(n, np.int64, name="subgraph-vwgt") if vertex_weighted else None,
                tracked_empty(n, np.int64, name="subgraph-ids"),
            )
            at = [None if a is None else a.ctypes.data for a in arena]
            out = (at[0], n + 2 * count, at[1], at[2], m, at[3], at[4], n)
        rc = kernels._functions[5](
            count, rows.ctypes.data, *self._graph, seeds.ctypes.data, len(seeds), *self._spec,
            labels_at, local_at, sort_at, kernels._bounds[1], *out, children_at,
            self._part.ctypes.data, len(self._part), stats_at, *kernels._queue(),
        )  # fmt: skip
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        self.ran += int(np.count_nonzero(stats.reshape(-1, len(ROW_FIELDS))[:, RAN]))
        self.slots += count * attempts
        if arena is not None:
            self._arena, self._graph = arena, out
        return children[: rc * len(CHILD_FIELDS)].reshape(rc, len(CHILD_FIELDS)).tolist()


def _order(order: np.ndarray, n: int) -> np.ndarray:
    order = np.ascontiguousarray(order, dtype=np.int64)
    if len(order) != n:
        raise ValueError("visiting order must name every vertex once")
    return order
