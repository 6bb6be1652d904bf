"""The workspace one bisection's attempts share, the compiled searches on it,
and the bisection tree on it, a depth per call: recursive bisection's, and
each split round of deep multilevel's."""

from __future__ import annotations

import math

import numpy as np

from repro.graph import _native
from repro.graph.access import full_adjacency
from repro.memory.scratch import tracked_empty, tracked_zeros

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
_K, _MAX0, _MAX1 = (NODE_FIELDS.index(name) for name in ("k", "max0", "max1"))


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
    """

    __slots__ = ("n", "vwgt", "total_vertex_weight", "xadj", "flat", "_kernels")

    def __init__(self, graph) -> None:
        n = graph.n
        src, dst, w = full_adjacency(graph)
        xadj = tracked_zeros(n + 1, np.int64, name="bisection-xadj")
        np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
        self.n = n
        self.vwgt = np.asarray(graph.vwgt)
        self.total_vertex_weight = graph.total_vertex_weight
        self.flat = (src, dst, w)
        self.xadj = xadj
        self._kernels = None

    @classmethod
    def of(cls, graph) -> "BisectionWorkspace":
        """``graph`` itself when it already is a workspace, else a new one."""
        return graph if isinstance(graph, cls) else cls(graph)

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
    """Named scratch arrays of one recursion: every search and depth on a
    workspace shares them, each taking a prefix of the array under the
    ledger name its Python list has, grown only when a larger call comes.
    The kernels initialise what they use.  The recursion's work counters
    live here too, their address taken once."""

    __slots__ = ("_held", "work", "work_at")

    def __init__(self) -> None:
        self._held: dict[str, tuple[np.ndarray, int]] = {}
        self.work = np.zeros(4, dtype=np.int64)
        self.work_at = self.work.ctypes.data

    def queue(self, entries: int) -> tuple[int, int, int]:
        """``(heap address, its capacity in entries, work address)`` of a
        queue of ``entries`` entries: the arguments every search and depth
        call ends with.  A graph's n + m entries of three words bound every
        push count of a search on it (see the C header)."""
        heap, heap_at = self.get("bisection-heap", 3 * entries, np.int64)
        return heap_at, len(heap) // 3, self.work_at

    def get(self, name: str, size: int, dtype) -> tuple[np.ndarray, int]:
        """``(the first size entries, their address)``."""
        held = self._held.get(name)
        if held is None or len(held[0]) < size:
            array = tracked_empty(size, dtype, name=name)
            held = self._held[name] = (array, array.ctypes.data)
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

    def pool(self, n: int, rounds: int) -> list[int]:
        """A pool's per-vertex scratch for nodes of up to ``n`` vertices."""
        return self.pointers(
            ("bipartition-gain", n, np.int64),
            ("bipartition-in-block", n, np.uint8),
            ("bipartition-blocked", n, np.uint8),
            ("bipartition-visited", n, np.uint8),
            ("bipartition-grown", n, np.int64),
            ("fm2way-side", n, np.int8),
            ("bisection-best-side", n, np.int8),
            ("bisection-orders", n, np.int64),
        ) + self.fm(n, rounds)


class BisectionKernels:
    """``bisection_kernel.c`` on one workspace.  Graph pointers are prepared
    once; scratch comes from the recursion's :class:`_Scratch`, one heap
    buffer serves every search.  ``work`` accumulates the recursion's queue
    pops, pushes, FM passes and stale re-pushes."""

    __slots__ = ("n", "_functions", "_graph", "_arrays", "_scratch", "_bounds")

    def __init__(self, n, arrays, functions, scratch, bounds) -> None:
        self.n = n
        self._functions = functions
        self._arrays = arrays  # the pointers below are only good while these live
        self._graph = tuple(None if a is None else a.ctypes.data for a in arrays)
        self._scratch = scratch
        self._bounds = bounds

    @property
    def work(self) -> np.ndarray:
        return self._scratch.work

    @classmethod
    def bind(cls, ws: BisectionWorkspace, functions) -> "BisectionKernels":
        n, xadj = ws.n, ws.xadj
        _, dst, w = ws.flat
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

    def _run(self, fn, *args) -> int:
        """The shared calling convention: workspace arrays, ``args``, heap, counters."""
        rc = fn(self.n, *self._graph, *args, *self._scratch.queue(self.n + len(self._arrays[1])))
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


class BisectionTree:
    """Recursive bisection's tree on one workspace, a depth of it per
    ``repro_bisect_depth`` call.  The first depth reads the workspace itself
    (its node :meth:`root`) or the subgraphs :meth:`split` wrote; each call
    writes the subgraphs of the next depth into a fresh arena the
    workspace's size (the nodes of one depth hold disjoint vertices and
    edges), which the next call reads, and the blocks of the nodes that end
    here into ``part``.  The caller names each depth's nodes by rows of
    :data:`NODE_FIELDS`.  The scratch of a depth is sized by its largest
    node."""

    def __init__(self, ws: BisectionWorkspace, part, kinds, attempts, rounds, sigmas) -> None:
        kernels = ws.kernels()
        xadj, adj, wgt, vwgt = kernels._arrays
        self.n, self.m = kernels.n, len(adj)
        self.total = ws.total_vertex_weight
        self.ran = self.slots = 0
        self.rows = None  # the last depth's pool rows, one a node and slot
        self._functions, self._scratch, self._bounds = (
            kernels._functions, kernels._scratch, kernels._bounds
        )
        self._part = part
        self._kinds = kinds  # the address below is only good while it lives
        self._pool = (kinds.ctypes.data, len(kinds), attempts, sigmas, max(rounds, 0))
        self._weighted = (wgt is not None, vwgt is not None)
        # the arena a depth reads: its arrays, (xadj, its length, adj, wgt,
        # their length, vwgt, ids, their length) as the kernel takes them;
        # the workspace's own until a split or a depth replaces them
        self._arena = kernels._arrays
        graph = kernels._graph
        self._graph = (graph[0], self.n + 1, *graph[1:3], self.m, graph[3], None, self.n)

    def root(self, k: int) -> list[int]:
        """The row of :data:`CHILD_FIELDS` of the workspace split into ``k`` blocks."""
        return [self.n, self.m, 0, 0, 0, int(not self._weighted[0]), k, 0, 0, self.total]

    def _next_arena(self, extra: int):
        """A fresh arena, and its pointers as :attr:`_graph` holds them, for
        subgraphs of up to ``extra`` more xadj entries than vertices."""
        n, m = self.n, self.m
        weighted, vertex_weighted = self._weighted
        arena = (
            tracked_empty(n + extra, np.int64, name="subgraph-indptr"),
            tracked_empty(m, np.int64, name="subgraph-adjncy"),
            tracked_empty(m, np.int64, name="subgraph-adjwgt") if weighted else None,
            tracked_empty(n, np.int64, name="subgraph-vwgt") if vertex_weighted else None,
            tracked_empty(n, np.int64, name="subgraph-ids"),
        )
        at = [None if a is None else a.ctypes.data for a in arena]
        return arena, (at[0], n + extra, at[1], at[2], m, at[3], at[4], n)

    def split(self, labels, label_count: int, blocks) -> list[list[int]]:
        """The tree's first step instead of :meth:`root`: write the subgraph
        each label of ``blocks`` induces in the workspace into the arena the
        first depth reads, in one ``repro_split`` call.  Returns their rows
        of :data:`CHILD_FIELDS`, in block order (k, first block and seed 0)."""
        n, slots, scratch = self.n, len(blocks), self._scratch
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if len(labels) != n:
            raise ValueError("one label a vertex")
        xadj_at, _, adj_at, wgt_at, _, vwgt_at, ids_at, _ = self._graph
        if ids_at is not None:
            raise ValueError("only the workspace itself splits, before any depth")
        slot_of, slot_of_at = scratch.get("subgraph-slots", label_count, np.int64)
        slot_of.fill(-1)
        slot_of[list(blocks)] = np.arange(slots)
        info, info_at = scratch.get("subgraph-info", slots * _SPLIT_ROW, np.int64)
        local_at, sort_at = scratch.pointers(
            ("subgraph-local-ids", n, np.int64), ("subgraph-sort", 2 * self._bounds[1], np.int64)
        )
        arena, out = self._next_arena(slots)
        rc = self._functions[3](
            n, xadj_at, adj_at, wgt_at, vwgt_at, labels.ctypes.data, slot_of_at, label_count,
            slots, None, local_at, out[0], out[2], out[3], self.m, out[5], out[6], sort_at,
            self._bounds[1], info_at,
        )  # fmt: skip
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        self._arena, self._graph = arena, out
        return [
            [ns, ms, v0 + s, v0, e0, unit, 0, 0, 0, total]
            for s, (ns, ms, v0, e0, total, unit) in enumerate(
                info.reshape(slots, _SPLIT_ROW).tolist()
            )
        ]

    def depth(self, nodes: list, seeds: np.ndarray) -> list[list[int]]:
        """Run the bisections ``nodes`` (rows of :data:`NODE_FIELDS`) from
        ``seeds``: the rows of :data:`CHILD_FIELDS` of the next depth's
        subgraphs, in node order, side 0 first.  A negative cap, or a pool
        whose cut sums a double would round
        (:func:`repro.graph._native.cut_sum_error`), is refused before the
        kernel runs."""
        count, scratch, (total, max_degree, most) = len(nodes), self._scratch, self._bounds
        rows = np.array(nodes, dtype=np.int64).reshape(count, len(NODE_FIELDS))
        caps = rows[:, _MAX0 : _MAX1 + 1]
        if caps.size and int(caps.min()) < 0:
            raise ValueError(f"bisection cap {int(caps.min())}: a cap is negative")
        attempts, rounds = self._pool[2], self._pool[4]
        if attempts > most:
            why = _native.cut_sum_error(attempts, total)
            raise ValueError(f"the compiled bisection pool cannot sum its cuts: {why}")
        # the largest node's vertices and queue entries, within the arena's
        n = min(max(int(rows[:, 0].max(initial=0)), 0), self.n)
        entries = min(max(int((rows[:, 0] + rows[:, 1]).max(initial=0)), 0), self.n + self.m)
        stats, stats_at = scratch.get(
            "bisection-pool-stats", count * attempts * len(ROW_FIELDS), np.int64
        )
        (labels_at,) = scratch.pointers(("bipartition-part", n, np.int32))
        # the split's scratch, the children's rows and the next arena, if a node splits
        local_at = sort_at = children = children_at = arena = None
        out = (None, 0, None, None, 0, None, None, 0)
        if int(rows[:, _K].max(initial=0)) > 2:
            children, children_at = scratch.get(
                "subgraph-info", 2 * count * len(CHILD_FIELDS), np.int64
            )
            local_at, sort_at = scratch.pointers(
                ("subgraph-local-ids", n, np.int64), ("subgraph-sort", 2 * max_degree, np.int64)
            )
            arena, out = self._next_arena(2 * count)
        rc = self._functions[4](
            count, rows.ctypes.data, *self._graph, seeds.ctypes.data, len(seeds), *self._pool, n,
            *scratch.pool(n, rounds), rounds * n, labels_at, local_at, sort_at, max_degree, *out,
            children_at, self._part.ctypes.data, len(self._part), stats_at,
            *scratch.queue(entries),
        )  # fmt: skip
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        self.rows = stats.reshape(count, attempts, len(ROW_FIELDS))
        self.ran += int(np.count_nonzero(self.rows[:, :, RAN]))
        self.slots += count * attempts
        if arena is None:
            return []
        self._arena, self._graph = arena, out
        return children[: rc * len(CHILD_FIELDS)].reshape(rc, len(CHILD_FIELDS)).tolist()


def _order(order: np.ndarray, n: int) -> np.ndarray:
    order = np.ascontiguousarray(order, dtype=np.int64)
    if len(order) != n:
        raise ValueError("visiting order must name every vertex once")
    return order
