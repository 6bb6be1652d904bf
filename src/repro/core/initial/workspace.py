"""The list-resident workspace that one bisection's attempts share."""

from __future__ import annotations

import numpy as np

from repro.graph.access import full_adjacency
from repro.memory.scratch import tracked_slots, tracked_zeros


class BisectionWorkspace:
    """One graph, flattened once: arrays for bulk steps, lists for loops.

    Initial partitioning runs sequential priority-queue scans over
    10^2..10^4-vertex graphs one element at a time, where a numpy scalar
    subscript costs several list subscripts.  ``lists = (xadj, adj, wgt,
    vwgt)`` serves those scans; ``flat = (src, dst, weight)`` serves the
    bulk steps (gains, cut, subgraph extraction), which otherwise see a
    graph (``n``, ``vwgt``, ``total_vertex_weight``).  Nothing is cached on
    the graph itself, so a resident graph never carries the lists.  The
    ``"bisection-workspace"`` ledger entry charges the lists' pointer
    arrays (8 B per slot), not the int objects behind them.
    """

    __slots__ = ("n", "vwgt", "total_vertex_weight", "flat", "lists", "_charge")

    def __init__(self, graph) -> None:
        n = graph.n
        src, dst, w = full_adjacency(graph)
        xadj = tracked_zeros(n + 1, np.int64, name="bisection-xadj")
        np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
        self.n = n
        self.vwgt = np.asarray(graph.vwgt)
        self.total_vertex_weight = graph.total_vertex_weight
        self.flat = (src, dst, w)
        self.lists = (xadj.tolist(), dst.tolist(), w.tolist(), self.vwgt.tolist())
        self._charge = tracked_slots(2 * n + 1 + 2 * len(dst), "bisection-workspace")

    @classmethod
    def of(cls, graph) -> "BisectionWorkspace":
        """``graph`` itself when it already is a workspace, else a new one."""
        return graph if isinstance(graph, cls) else cls(graph)
