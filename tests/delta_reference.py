"""The rebuild-from-edges ``apply_delta`` (tests only).

Production applies a delta as a sorted merge over the CSR's own key order
(:mod:`repro.serve.deltas`).  The oracle it must equal to the byte lives
here: the previous implementation, which canonicalises every surviving
undirected edge and rebuilds the whole CSR through ``from_edges``.
``tests/test_delta_differential.py`` chains random deltas through both.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.serve.deltas import GraphDelta


def _canonical_keys(edges: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return lo * n + hi


def reference_apply_delta(
    graph: CSRGraph, delta: GraphDelta
) -> tuple[CSRGraph, int]:
    """``(new_graph, changed)`` by rebuilding the CSR from its edge list."""
    n = graph.n + delta.add_vertices

    # existing undirected edges, canonical (lo, hi) with weights
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    mask = src < graph.adjncy
    eu = src[mask]
    ev = graph.adjncy[mask]
    ew = np.asarray(graph.adjwgt)[mask]
    keys = eu * n + ev
    changed = 0

    if len(delta.remove_edges):
        rkeys = np.unique(_canonical_keys(delta.remove_edges, n))
        hit = np.isin(keys, rkeys)
        changed += int(hit.sum())
        keep = ~hit
        eu, ev, ew, keys = eu[keep], ev[keep], ew[keep], keys[keep]

    if len(delta.add_edges):
        akeys = _canonical_keys(delta.add_edges, n)
        aw = (
            delta.add_weights
            if delta.add_weights is not None
            else np.ones(len(akeys), dtype=np.int64)
        )
        # dedupe within the batch: the last occurrence of a pair wins
        _, last = np.unique(akeys[::-1], return_index=True)
        sel = len(akeys) - 1 - last
        akeys, aw = akeys[sel], aw[sel]
        # replace weights of edges that already exist
        order = np.argsort(keys)
        pos = np.searchsorted(keys[order], akeys)
        pos_ok = pos < len(keys)
        exists = np.zeros(len(akeys), dtype=bool)
        exists[pos_ok] = keys[order][pos[pos_ok]] == akeys[pos_ok]
        if exists.any():
            tgt = order[pos[exists]]
            changed += int((ew[tgt] != aw[exists]).sum())
            ew = ew.copy()
            ew[tgt] = aw[exists]
        fresh = ~exists
        if fresh.any():
            changed += int(fresh.sum())
            eu = np.concatenate([eu, akeys[fresh] // n])
            ev = np.concatenate([ev, akeys[fresh] % n])
            ew = np.concatenate([ew, aw[fresh]])

    # vertex weights
    vwgt = None
    if graph.has_vertex_weights:
        vwgt = np.asarray(graph.vwgt).copy()
        if delta.add_vertices:
            vwgt = np.concatenate(
                [vwgt, np.ones(delta.add_vertices, dtype=np.int64)]
            )
    if delta.vertex_weights is not None and len(delta.vertex_weights):
        vs = delta.vertex_weights[:, 0]
        ws = delta.vertex_weights[:, 1]
        if vwgt is None:
            vwgt = np.ones(n, dtype=np.int64)
        changed += int((vwgt[vs] != ws).sum())
        vwgt[vs] = ws
        if not np.any(vwgt != 1):
            vwgt = None  # degenerated back to unit weights

    edges = np.stack([eu, ev], axis=1)
    if ew.size and not np.any(ew != 1):
        ew = None  # keep unit-weight graphs unit-weight (8-byte view)
    new_graph = from_edges(n, edges, ew, vwgt=vwgt, symmetrize=True)
    return new_graph, changed
