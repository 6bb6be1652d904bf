"""2-way FM local search (Fiduccia-Mattheyses [1]) with rollback.

Used to polish bipartitions produced by greedy graph growing.  Single
priority queue over *all* movable vertices ordered by gain; each pass moves
vertices one at a time (locking them), tracks the best prefix seen, and
rolls back the tail.  Balance is enforced against per-side ceilings.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from repro.core.initial.workspace import BisectionWorkspace
from repro.core.kernels import two_way_gains
from repro.memory.scratch import tracked_slots


def fm2way_refine(
    graph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    rounds: int = 2,
    max_fruitless: int = 200,
) -> np.ndarray:
    """Improve a bipartition (of a graph or its :class:`BisectionWorkspace`)
    in place; returns the refined assignment."""
    ws = BisectionWorkspace.of(graph)
    n = ws.n
    xadj, adj, wgt, vwgt = ws.lists
    weights = np.zeros(2, dtype=np.int64)
    np.add.at(weights, part, ws.vwgt)
    side_weight = weights.tolist()

    for _ in range(rounds):
        side = part.tolist()  # ``part`` itself only receives the kept prefix
        gain = two_way_gains(ws, part).tolist()
        locked = [False] * n
        names = ("fm2way-gains", "fm2way-locked")
        charges = [tracked_slots(n, name) for name in names]  # held for the pass
        # counters 0..n-1 in vertex order, as n pushes would hand out
        heap = [(-g, u, u) for u, g in enumerate(gain)]
        heapify(heap)
        counter = n

        moves: list[int] = []
        best_prefix = 0
        balance_total = 0
        best_total = 0
        fruitless = 0

        while heap and fruitless < max_fruitless:
            neg_g, _, u = heappop(heap)
            if locked[u]:
                continue
            g = gain[u]
            if g != -neg_g:
                heappush(heap, (-g, counter, u))
                counter += 1
                continue
            locked[u] = True
            src = side[u]
            dst = 1 - src
            w = vwgt[u]
            if side_weight[dst] + w > max_weights[dst]:
                continue  # cannot move this pass
            side[u] = dst
            side_weight[src] -= w
            side_weight[dst] += w
            balance_total += g
            moves.append(u)
            if balance_total > best_total:
                best_total = balance_total
                best_prefix = len(moves)
                fruitless = 0
            else:
                fruitless += 1
            lo, hi = xadj[u], xadj[u + 1]
            for v, ew in zip(adj[lo:hi], wgt[lo:hi]):
                if locked[v]:
                    continue
                g = gain[v] - 2 * ew if side[v] == dst else gain[v] + 2 * ew
                gain[v] = g
                heappush(heap, (-g, counter, v))
                counter += 1

        # keep the best prefix; the tail beyond it only gives its weight back
        kept = moves[:best_prefix]
        part[kept] = 1 - part[kept]
        for u in moves[best_prefix:]:
            dst = side[u]
            side_weight[dst] -= vwgt[u]
            side_weight[1 - dst] += vwgt[u]
        if best_total <= 0:
            break
    return part
