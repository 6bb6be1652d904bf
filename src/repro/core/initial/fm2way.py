"""2-way FM local search (Fiduccia-Mattheyses [1]) with rollback.

Used to polish bipartitions produced by greedy graph growing.  One priority
queue ordered by gain, seeded from the boundary (an interior vertex enters
when a neighbour moves); each pass moves vertices one at a time (locking
them), tracks the best prefix seen, and rolls back the tail.  Balance is
enforced against per-side ceilings.

A pass ends by the adaptive stopping rule of Osipov and Sanders
("Engineering Multilevel Graph Partitioning Algorithms") with KaMinPar's
initial-FM constants: once more than ``ln n`` moves have gone by since the
best prefix, stop when their number reaches ``variance / (4 *
mean**2)`` of those moves' gains, or when their mean gain is zero -- the
walk is then unlikely to climb back above the best prefix.  The rule is
evaluated on integer sums, cleared of divisions, by ``bisection_kernel.c``,
which runs every pass: its products compared exactly in 192 bits, for
every graph :func:`repro.graph._native.check_graph` admits.
"""

from __future__ import annotations

import numpy as np

from repro.core.initial.workspace import BisectionWorkspace, fm_patience


def fm2way_refine(
    graph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    rounds: int = 2,
) -> np.ndarray:
    """Improve a bipartition (of a graph or its :class:`BisectionWorkspace`)
    in place; returns the refined assignment."""
    ws = BisectionWorkspace.of(graph)
    for kept in ws.kernels().fm2way(part, max_weights, rounds, fm_patience(ws.n)):
        part[kept] = 1 - part[kept]
    return part
