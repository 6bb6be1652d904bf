"""2-way FM local search (Fiduccia-Mattheyses [1]) with rollback.

Used to polish bipartitions produced by greedy graph growing.  One priority
queue ordered by gain, seeded from the boundary (an interior vertex enters
when a neighbour moves); each pass moves vertices one at a time (locking
them), tracks the best prefix seen, and rolls back the tail.  Balance is
enforced against per-side ceilings.

A pass ends by the adaptive stopping rule of Osipov and Sanders
("Engineering Multilevel Graph Partitioning Algorithms") with KaMinPar's
initial-FM constants: once more than ``ln n`` moves have gone by since the
best prefix, stop when their number reaches ``variance / (STOP_DIVISOR *
mean**2)`` of those moves' gains, or when their mean gain is zero -- the
walk is then unlikely to climb back above the best prefix.  The rule is
evaluated on integer sums, cleared of divisions, so it is exact at any
magnitude here and in ``bisection_kernel.c`` (which carries it in
``__int128``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from repro.core.initial.workspace import BisectionWorkspace, fm_patience
from repro.core.kernels import two_way_gains
from repro.memory.scratch import tracked_slots

STOP_DIVISOR = 4  # the alpha = 1/4 of KaMinPar's initial FM


def fm2way_refine(
    graph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    rounds: int = 2,
) -> np.ndarray:
    """Improve a bipartition (of a graph or its :class:`BisectionWorkspace`)
    in place; returns the refined assignment."""
    ws = BisectionWorkspace.of(graph)
    n = ws.n
    patience = fm_patience(n)
    kernels = ws.kernels()
    if kernels is not None:
        for kept in kernels.fm2way(part, max_weights, rounds, patience):
            part[kept] = 1 - part[kept]
        return part
    # the oracle: the same search over the workspace's lists
    xadj, adj, wgt, vwgt = ws.lists
    tail, head, _ = ws.flat
    weights = np.zeros(2, dtype=np.int64)
    np.add.at(weights, part, ws.vwgt)
    side_weight = weights.tolist()

    for _ in range(rounds):
        side = part.tolist()  # ``part`` itself only receives the kept prefix
        gain = two_way_gains(ws, part).tolist()
        locked = [False] * n
        names = ("fm2way-gains", "fm2way-locked")
        charges = [tracked_slots(n, name) for name in names]  # held for the pass
        boundary = np.unique(tail[part[tail] != part[head]]).tolist()
        heap = [(-gain[u], u, u) for u in boundary]
        heapify(heap)
        counter = n  # later pushes sort after the seeds on equal gain

        moves: list[int] = []
        best_prefix = 0
        balance_total = 0
        best_total = 0
        # moves since the best prefix, the sum and sum of squares of their gains
        steps = fallen = squares = 0

        while heap:
            neg_g, _, u = heappop(heap)
            if locked[u]:
                continue
            g = gain[u]
            if g != -neg_g:
                continue  # stale: the update that changed the gain pushed its own entry
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
                steps = fallen = squares = 0
            else:
                steps += 1
                fallen += g
                squares += g * g
                # steps >= variance / (STOP_DIVISOR * mean**2), cleared of divisions
                if steps > patience and (
                    fallen == 0
                    or STOP_DIVISOR * (steps - 1) * fallen * fallen
                    >= steps * squares - fallen * fallen
                ):
                    break
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
