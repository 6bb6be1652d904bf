"""The workspace one bisection's attempts share: arrays, and lists for the oracle."""

from __future__ import annotations

import numpy as np

from repro.graph import _native
from repro.graph.access import full_adjacency
from repro.memory.scratch import tracked_empty, tracked_slots, tracked_zeros

_UNSET = object()


class BisectionWorkspace:
    """One graph, flattened once, for the sequential searches and the bulk steps.

    ``xadj`` and ``flat = (src, dst, weight)`` are int64 arrays: the bulk
    steps (gains, cut, subgraph extraction) read them, and so do the compiled
    searches of ``bisection_kernel.c`` (:meth:`kernels`), which otherwise see
    a graph (``n``, ``vwgt``, ``total_vertex_weight``).  ``lists = (xadj, adj,
    wgt, vwgt)`` is the same adjacency as Python lists, the representation
    the oracle loops scan (a numpy scalar subscript costs several list
    subscripts); it is built when first asked for, and only then does the
    ``"bisection-workspace"`` ledger entry charge the lists' pointer arrays
    (8 B per slot, not the int objects behind them).  Nothing is cached on
    the graph itself, so a resident graph never carries either.
    """

    __slots__ = (
        "n", "vwgt", "total_vertex_weight", "flat", "xadj", "_lists", "_charge", "_kernels"
    )  # fmt: skip

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
        self._lists = self._charge = None
        self._kernels = _UNSET

    @classmethod
    def of(cls, graph) -> "BisectionWorkspace":
        """``graph`` itself when it already is a workspace, else a new one."""
        return graph if isinstance(graph, cls) else cls(graph)

    @property
    def lists(self) -> tuple[list, list, list, list]:
        if self._lists is None:
            _, dst, w = self.flat
            self._lists = (self.xadj.tolist(), dst.tolist(), w.tolist(), self.vwgt.tolist())
            self._charge = tracked_slots(2 * self.n + 1 + 2 * len(dst), "bisection-workspace")
        return self._lists

    def kernels(self) -> "BisectionKernels | None":
        """The compiled searches bound to this workspace, or ``None`` when the
        oracle loops must run: no library, or weights the kernels' int64 /
        ``__int128`` arithmetic cannot be proven to hold (exact Python integers
        can).  Raises ``ValueError`` for an ``xadj`` that does not tile ``adj``."""
        if self._kernels is _UNSET:
            functions = _native.bisection_kernels()
            self._kernels = functions and BisectionKernels.bind(self, functions)
        return self._kernels


def _weights(array: np.ndarray) -> tuple[np.ndarray | None, int, int]:
    """``(contiguous int64 array or None for all ones, min, max)``."""
    if not len(array) or (array.strides == (0,) and array[0] == 1):
        return None, 1, 1
    return np.ascontiguousarray(array, dtype=np.int64), int(array.min()), int(array.max())


class BisectionKernels:
    """``bisection_kernel.c`` on one workspace.  Graph pointers are prepared
    once; each search's scratch is allocated at its first run here, under the
    ledger names the oracle's lists carry, and reused by the later attempts
    (the kernels initialise what they use); one heap buffer serves them all.
    ``work`` accumulates the kernels' heap pops, pushes, FM passes and stale
    re-pushes."""

    __slots__ = ("n", "heap", "work", "_functions", "_graph", "_arrays", "_scratch")

    def __init__(self, n, arrays, functions) -> None:
        self.n = n
        self._functions = functions
        self._arrays = arrays  # the pointers below are only good while these live
        self._graph = tuple(None if a is None else a.ctypes.data for a in arrays)
        # n + m entries of (key, tie, vertex) bound every push count (see the C header)
        self.heap = tracked_empty(3 * (n + len(arrays[1])), np.int64, name="bisection-heap")
        self.work = np.zeros(4, dtype=np.int64)
        self._scratch = {}

    @classmethod
    def bind(cls, ws: BisectionWorkspace, functions) -> "BisectionKernels | None":
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
        wgt, lightest, heaviest = _weights(w)
        vwgt, lightest_vertex, heaviest_vertex = _weights(ws.vwgt)
        # every gain is at most a vertex's incident |weight|; 4 n^3 G^2 bounds
        # both sides of FM's stopping rule, evaluated in __int128
        gain_bound = max(heaviest, -lightest) * int(degrees.max(initial=0))
        if (
            4 * n**3 * gain_bound**2 >= 1 << 126
            or lightest_vertex < 0
            or heaviest_vertex * n >= _native.WEIGHT_LIMIT
        ):
            return None
        return cls(n, (xadj, adj, wgt, vwgt), functions)

    def _buffers(self, search, *specs) -> tuple[list[np.ndarray], list[int]]:
        """``(arrays, pointers)`` of one search's scratch, one per ``(ledger
        name, size, dtype)`` in ``specs``, allocated at the search's first run."""
        held = self._scratch.get(search)
        if held is None:
            arrays = [tracked_empty(size, dtype, name=name) for name, size, dtype in specs]
            held = self._scratch[search] = (arrays, [a.ctypes.data for a in arrays])
        return held

    def _run(self, fn, *args) -> int:
        """The shared calling convention: workspace arrays, ``args``, heap, counters."""
        heap, work = self.heap.ctypes.data, self.work.ctypes.data
        rc = fn(self.n, *self._graph, *args, heap, len(self.heap) // 3, work)
        if rc < 0:
            raise ValueError(f"{_native.BISECTION_ERRORS[rc]} (corrupt workspace?)")
        return rc

    def grow_greedy(self, order: np.ndarray, target0: int, max0: int) -> np.ndarray:
        """Vertices greedy graph growing absorbed, in absorption order (a view
        of scratch: good until the next growth on this workspace)."""
        n = self.n
        (*_, grown), pointers = self._buffers(
            "greedy",
            ("bipartition-gain", n, np.int64),
            ("bipartition-in-block", n, np.uint8),
            ("bipartition-blocked", n, np.uint8),
            ("bipartition-grown", n, np.int64),
        )
        order = _order(order, n)
        target0, max0 = _native.clamp_weight(target0), _native.clamp_weight(max0)
        count = self._run(self._functions[0], order.ctypes.data, target0, max0, *pointers, n)
        return grown[:count]

    def grow_bfs(self, order: np.ndarray, target0: int) -> np.ndarray:
        """Vertices BFS growth dequeued into block 0, in that order (a view of
        scratch, as above)."""
        n = self.n
        (_, queue), pointers = self._buffers(
            "bfs", ("bipartition-visited", n, np.uint8), ("bipartition-grown", n, np.int64)
        )
        order = _order(order, n)
        target0 = _native.clamp_weight(target0)
        count = self._run(self._functions[1], order.ctypes.data, target0, *pointers, n)
        return queue[:count]

    def fm2way(self, part, max_weights, rounds: int, patience: int) -> list[list[int]]:
        """The kept prefix of each 2-way FM pass run from ``part``, in order."""
        if rounds <= 0:
            return []
        n = self.n
        (side, _, _, kept, moves), pointers = self._buffers(
            ("fm2way", rounds),
            ("fm2way-side", n, np.int8),
            ("fm2way-gains", n, np.int64),
            ("fm2way-locked", n, np.uint8),
            ("fm2way-kept", rounds, np.int64),
            ("fm2way-moves", rounds * n, np.int64),
        )
        side[:] = part
        max0, max1 = map(_native.clamp_weight, max_weights)
        passes = self._run(
            self._functions[2], max0, max1, rounds, patience, *pointers, rounds * n
        )
        ends = np.cumsum(kept[:passes])
        return [prefix.tolist() for prefix in np.split(moves[: ends[-1]], ends[:-1])]


def _order(order: np.ndarray, n: int) -> np.ndarray:
    order = np.ascontiguousarray(order, dtype=np.int64)
    if len(order) != n:
        raise ValueError("visiting order must name every vertex once")
    return order
