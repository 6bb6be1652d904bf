"""The compiled bisection bound once to a graph: the two searches on it, and
the bisection tree on it, a depth per call -- recursive bisection's, and
each split round of deep multilevel's."""

from __future__ import annotations

import math

import numpy as np

from repro.graph import _native
from repro.graph.access import full_adjacency, vertex_segments
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


def _weights(array: np.ndarray) -> np.ndarray | None:
    """A contiguous int64 array, or ``None`` for all ones."""
    if not len(array) or (array.strides == (0,) and array[0] == 1):
        return None
    return np.ascontiguousarray(array, dtype=np.int64)


class _Scratch:
    """Named scratch arrays of one tree: every search and depth on it shares
    them, each taking a prefix of the array under the ledger name its
    Python list has, grown only when a larger call comes.  The kernels
    initialise what they use.  The tree's work counters live here too,
    their address taken once."""

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


class BisectionTree:
    """``bisection_kernel.c`` bound once to one graph: the two searches, and
    recursive bisection's tree a depth per ``repro_bisect_depth`` call.

    A CSR graph's own ``indptr`` / ``adjncy`` / ``adjwgt`` and ``vwgt`` are
    bound as they are, nothing copied; a compressed graph is decoded once
    and the copy is held (on the ledger) while the tree lives.  The first
    depth reads the bound graph (its node :meth:`root`) or the subgraphs
    :meth:`split` wrote of it; each depth call writes the subgraphs of the
    next into a fresh arena the graph's size (the nodes of one depth hold
    disjoint vertices and edges), which the next call reads, and the blocks
    of the nodes that end there into its ``part``.  The caller names each
    depth's nodes by rows of :data:`NODE_FIELDS`; every node runs the pool
    of ``attempts`` slots of ``kinds``, ``rounds`` FM passes an attempt.
    Scratch comes from one :class:`_Scratch`, a depth's sized by its largest
    node; ``work`` accumulates the queue pops, pushes, FM passes and stale
    re-pushes of every call.  Raises ``ValueError`` for an ``xadj`` that
    does not tile the adjacency and for weights the kernels' int64 /
    ``__int128`` arithmetic cannot hold (:func:`repro.graph._native.check_graph`
    refuses such an input graph before any work)."""

    def __init__(self, graph, kinds=(), attempts: int = 1, rounds: int = 0, sigmas=0.0) -> None:
        n = graph.n
        xadj, _, adj, w = vertex_segments(graph)
        if xadj is None:  # compressed: decoded once, the copy held while bound
            _, adj, w = full_adjacency(graph)
            xadj = tracked_zeros(n + 1, np.int64, name="bisection-xadj")
            np.cumsum(graph.degrees, out=xadj[1:])
        vertex_weights = np.asarray(graph.vwgt)
        degrees = np.diff(xadj)
        if (
            xadj.dtype != np.int64
            or not xadj.flags.c_contiguous
            or (len(xadj), len(w), len(vertex_weights)) != (n + 1, len(adj), n)
            or int(xadj[0]) != 0
            or int(xadj[-1]) != len(adj)
            or int(degrees.min(initial=0)) < 0
        ):
            raise ValueError("xadj does not tile the adjacency (corrupt graph?)")
        adj = np.ascontiguousarray(adj, dtype=np.int64)
        wgt = _weights(w)
        vwgt = _weights(vertex_weights)
        # every gain, and every sum of gains in a pass, is at most W
        total = len(adj) if wgt is None else _native.exact_sum(np.abs(wgt))
        why = _native.vertex_weight_error(vertex_weights)
        if why is None and total >= _native.WEIGHT_LIMIT:
            why = f"the summed |edge weights| {total} are not below 2^62"
        if why is not None:
            raise ValueError(f"the compiled bisection cannot hold this graph: {why}")
        # (W, largest degree, most attempts whose cut sums stay exact): bounds
        # for every subgraph, since subgraphs only drop edges
        most = (_native.CUT_SUM_LIMIT - 1) // total if total else math.inf
        self._bounds = (total, int(degrees.max(initial=0)), most)
        self.n, self.m = n, len(adj)
        self.total = graph.total_vertex_weight
        self.ran = self.slots = 0
        self.rows = None  # the last depth's pool rows, one a node and slot
        self._functions = _native.bisection_kernels()
        self._scratch = _Scratch()
        self._kinds = np.ascontiguousarray(kinds, dtype=np.int64)
        self.attempts, self.rounds = attempts, max(rounds, 0)
        self._pool = (self._kinds.ctypes.data, len(self._kinds), attempts, sigmas, self.rounds)
        self._weighted = (wgt is not None, vwgt is not None)
        # the bound arrays (the pointers below are only good while they
        # live), then the arena a depth reads, as the kernel takes it:
        # (xadj, its length, adj, wgt, their length, vwgt, ids, their length)
        self._arrays = (xadj, adj, wgt, vwgt)
        at = [None if a is None else a.ctypes.data for a in self._arrays]
        self._level = (at[0], n + 1, at[1], at[2], self.m, at[3], None, n)
        self._arena, self._graph = self._arrays, self._level

    @property
    def work(self) -> np.ndarray:
        return self._scratch.work

    def _run(self, fn, *args) -> int:
        """A search's calling convention: the bound graph, ``args``, heap, counters."""
        xadj_at, _, adj_at, wgt_at, _, vwgt_at, _, _ = self._level
        rc = fn(
            self.n, xadj_at, adj_at, wgt_at, vwgt_at, *args, *self._scratch.queue(self.n + self.m)
        )
        return _checked(rc)

    def grow_greedy(self, order: np.ndarray, target0: int, max0: int) -> np.ndarray:
        """Vertices greedy graph growing absorbed, in absorption order (a view
        of scratch: good until the next search on this tree)."""
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

    def fm2way(self, part, max_weights, rounds: int, patience: int) -> list[list[int]]:
        """The kept prefix of each 2-way FM pass run from ``part``, in order."""
        if rounds <= 0:
            return []
        n, get = self.n, self._scratch.get
        side, side_at = get("fm2way-side", n, np.int8)
        side[:] = part
        max0, max1 = map(_native.clamp_weight, max_weights)
        passes = self._run(
            self._functions[1], max0, max1, rounds, patience, side_at,
            *self._scratch.fm(n, rounds), rounds * n,
        )  # fmt: skip
        kept = get("fm2way-kept", rounds, np.int64)[0]
        moves = get("fm2way-moves", rounds * n, np.int64)[0]
        ends = np.cumsum(kept[:passes])
        return [prefix.tolist() for prefix in np.split(moves[: ends[-1]], ends[:-1])]

    def root(self, k: int) -> list[int]:
        """Start a tree at the bound graph: its row of :data:`CHILD_FIELDS`,
        split into ``k`` blocks."""
        self._arena, self._graph = self._arrays, self._level
        self.ran = self.slots = 0
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
        """Start a tree at the subgraphs of the bound graph instead of
        :meth:`root`: write the subgraph each label of ``blocks`` induces
        into the arena the first depth reads, in one ``repro_split`` call.
        Returns their rows of :data:`CHILD_FIELDS`, in block order (k, first
        block and seed 0)."""
        n, slots, scratch = self.n, len(blocks), self._scratch
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if len(labels) != n:
            raise ValueError("one label a vertex")
        slot_of, slot_of_at = scratch.get("subgraph-slots", label_count, np.int64)
        slot_of.fill(-1)
        slot_of[list(blocks)] = np.arange(slots)
        info, info_at = scratch.get("subgraph-info", slots * _SPLIT_ROW, np.int64)
        local_at, sort_at = scratch.pointers(
            ("subgraph-local-ids", n, np.int64), ("subgraph-sort", 2 * self._bounds[1], np.int64)
        )
        xadj_at, _, adj_at, wgt_at, _, vwgt_at, _, _ = self._level
        arena, out = self._next_arena(slots)
        _checked(self._functions[2](
            n, xadj_at, adj_at, wgt_at, vwgt_at, labels.ctypes.data, slot_of_at, label_count,
            slots, None, local_at, out[0], out[2], out[3], self.m, out[5], out[6], sort_at,
            self._bounds[1], info_at,
        ))  # fmt: skip
        self._arena, self._graph = arena, out
        self.ran = self.slots = 0
        return [
            [ns, ms, v0 + s, v0, e0, unit, 0, 0, 0, total]
            for s, (ns, ms, v0, e0, total, unit) in enumerate(
                info.reshape(slots, _SPLIT_ROW).tolist()
            )
        ]

    def depth(self, nodes: list, seeds: np.ndarray, part: np.ndarray) -> list[list[int]]:
        """Run the bisections ``nodes`` (rows of :data:`NODE_FIELDS`) from
        ``seeds``, the blocks of the nodes that end here written into
        ``part``: the rows of :data:`CHILD_FIELDS` of the next depth's
        subgraphs, in node order, side 0 first.  A negative cap, or a pool
        whose cut sums a double would round
        (:func:`repro.graph._native.cut_sum_error`), is refused before the
        kernel runs."""
        count, scratch, (total, max_degree, most) = len(nodes), self._scratch, self._bounds
        rows = np.array(nodes, dtype=np.int64).reshape(count, len(NODE_FIELDS))
        caps = rows[:, _MAX0 : _MAX1 + 1]
        if caps.size and int(caps.min()) < 0:
            raise ValueError(f"bisection cap {int(caps.min())}: a cap is negative")
        attempts, rounds = self.attempts, self.rounds
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
        rc = _checked(self._functions[3](
            count, rows.ctypes.data, *self._graph, seeds.ctypes.data, len(seeds), *self._pool, n,
            *scratch.pool(n, rounds), rounds * n, labels_at, local_at, sort_at, max_degree, *out,
            children_at, part.ctypes.data, len(part), stats_at, *scratch.queue(entries),
        ))  # fmt: skip
        self.rows = stats.reshape(count, attempts, len(ROW_FIELDS))
        self.ran += int(np.count_nonzero(self.rows[:, :, RAN]))
        self.slots += count * attempts
        if arena is None:
            return []
        self._arena, self._graph = arena, out
        return children[: rc * len(CHILD_FIELDS)].reshape(rc, len(CHILD_FIELDS)).tolist()


def _checked(rc: int) -> int:
    """A kernel's answer, or the ``ValueError`` its error code names."""
    if rc < 0:
        raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt graph?)")
    return rc


def _order(order: np.ndarray, n: int) -> np.ndarray:
    order = np.ascontiguousarray(order, dtype=np.int64)
    if len(order) != n:
        raise ValueError("visiting order must name every vertex once")
    return order
