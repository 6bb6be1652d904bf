"""Graph deltas: the mutation unit of incremental repartitioning.

A :class:`GraphDelta` is a batch of edge insertions/removals plus
optional vertex-weight updates and vertex additions.  The service
applies deltas to the *finest* level only (the multilevel hierarchy is
never patched — a warm start re-runs refinement on the new finest graph
from the previous assignment), and accumulates the number of actually
changed edges into the drift counter that decides warm start vs full
repartition.

Semantics, chosen so a delta can never produce an invalid graph:

* self-loops in ``add_edges`` are rejected;
* adding an existing edge *replaces* its weight (an idempotent update);
* removing an absent edge is a no-op (and does not count as drift);
* vertex-weight updates replace the weight (must stay positive);
* ``add_vertices`` appends isolated vertices of unit weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must have shape (e, 2), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class GraphDelta:
    """One batch of mutations against a CSR graph."""

    add_edges: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    add_weights: np.ndarray | None = None
    remove_edges: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    vertex_weights: np.ndarray | None = None  # (v, new_weight) pairs
    add_vertices: int = 0

    def __post_init__(self):
        object.__setattr__(self, "add_edges", _as_edge_array(self.add_edges))
        object.__setattr__(
            self, "remove_edges", _as_edge_array(self.remove_edges)
        )
        if self.add_weights is not None:
            w = np.asarray(self.add_weights, dtype=np.int64)
            if len(w) != len(self.add_edges):
                raise ValueError("add_weights must align with add_edges")
            if w.size and w.min() <= 0:
                raise ValueError("edge weights must be positive")
            object.__setattr__(self, "add_weights", w)
        if self.vertex_weights is not None:
            vw = np.asarray(self.vertex_weights, dtype=np.int64)
            if vw.size == 0:
                vw = vw.reshape(0, 2)
            if vw.ndim != 2 or vw.shape[1] != 2:
                raise ValueError("vertex_weights must have shape (v, 2)")
            if vw.size and vw[:, 1].min() <= 0:
                raise ValueError("vertex weights must be positive")
            object.__setattr__(self, "vertex_weights", vw)
        if np.any(self.add_edges[:, 0] == self.add_edges[:, 1]):
            raise ValueError("delta adds a self-loop")
        if self.add_vertices < 0:
            raise ValueError("add_vertices must be >= 0")

    @property
    def num_requested(self) -> int:
        """Upper bound on the number of structural changes requested."""
        nvw = 0 if self.vertex_weights is None else len(self.vertex_weights)
        return len(self.add_edges) + len(self.remove_edges) + nvw

    def vertices(self, n: int) -> np.ndarray:
        """Every vertex this delta names on a graph of ``n`` vertices: edge
        endpoints, re-weighted and appended vertices (with repeats)."""
        parts = [self.add_edges.ravel(), self.remove_edges.ravel()]
        if self.vertex_weights is not None:
            parts.append(self.vertex_weights[:, 0])
        parts.append(np.arange(n, n + self.add_vertices, dtype=np.int64))
        return np.concatenate(parts)

    def to_dict(self) -> dict:
        """JSON round-trip form (the HTTP front end's wire format)."""
        d: dict = {
            "add": self.add_edges.tolist(),
            "remove": self.remove_edges.tolist(),
            "add_vertices": self.add_vertices,
        }
        if self.add_weights is not None:
            d["add_weights"] = self.add_weights.tolist()
        if self.vertex_weights is not None:
            d["vertex_weights"] = self.vertex_weights.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GraphDelta":
        return cls(
            add_edges=np.asarray(d.get("add", []), dtype=np.int64),
            add_weights=(
                np.asarray(d["add_weights"], dtype=np.int64)
                if d.get("add_weights") is not None
                else None
            ),
            remove_edges=np.asarray(d.get("remove", []), dtype=np.int64),
            vertex_weights=(
                np.asarray(d["vertex_weights"], dtype=np.int64)
                if d.get("vertex_weights") is not None
                else None
            ),
            add_vertices=int(d.get("add_vertices", 0)),
        )


def _locate(keys: np.ndarray, wanted: np.ndarray):
    """``(pos, hit)``: where each ``wanted`` key sits in ascending ``keys``."""
    pos = np.searchsorted(keys, wanted)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == wanted[hit]
    return pos, hit


def apply_delta(graph: CSRGraph, delta: GraphDelta) -> tuple[CSRGraph, int]:
    """Apply ``delta`` to a CSR graph; returns ``(new_graph, changed)``.

    ``changed`` counts the *actual* structural changes — edges really
    removed, edges added or re-weighted, vertex weights really changed —
    which is what feeds the service's cumulative drift counter.

    A CSR with sorted neighbourhoods already holds its directed keys
    ``src * n + dst`` in ascending order, so the delta is merged into that
    order (``searchsorted``, a keep mask, ``insert``) instead of rebuilding
    the graph; ``tests/delta_reference.py`` is the rebuild it must equal.
    """
    n = graph.n + delta.add_vertices
    named = delta.vertices(graph.n)
    bad = named[(named < 0) | (named >= n)]
    if len(bad):  # checked before anything is built
        raise ValueError(
            f"delta references vertex {int(bad[0])} but the graph has n={n}"
        )

    graph = graph.with_sorted_neighborhoods()
    adjncy, adjwgt = graph.adjncy, np.array(graph.adjwgt)
    degrees = np.append(graph.degrees, np.zeros(delta.add_vertices, np.int64))
    keys = np.repeat(np.arange(graph.n, dtype=np.int64) * n, graph.degrees)
    keys += adjncy
    changed = 0

    if len(delta.remove_edges):
        rkeys = np.unique(
            delta.remove_edges.min(axis=1) * n + delta.remove_edges.max(axis=1)
        )
        # both directions of each undirected edge
        rkeys = np.concatenate([rkeys, rkeys % n * n + rkeys // n])
        pos, hit = _locate(keys, rkeys)
        if hit.any():
            changed += int(hit.sum()) // 2
            keep = np.ones(len(keys), dtype=bool)
            keep[pos[hit]] = False
            keys, adjncy, adjwgt = keys[keep], adjncy[keep], adjwgt[keep]
            degrees -= np.bincount(rkeys[hit] // n, minlength=n)

    if len(delta.add_edges):
        akeys = delta.add_edges.min(axis=1) * n + delta.add_edges.max(axis=1)
        aw = (
            delta.add_weights
            if delta.add_weights is not None
            else np.ones(len(akeys), dtype=np.int64)
        )
        # dedupe within the batch: the last occurrence of a pair wins
        _, last = np.unique(akeys[::-1], return_index=True)
        sel = len(akeys) - 1 - last
        akeys, aw = akeys[sel], aw[sel]
        lo, hi = akeys // n, akeys % n
        pos, exists = _locate(keys, akeys)
        # replace weights of edges that already exist, both directions
        ew = aw[exists]
        changed += int((adjwgt[pos[exists]] != ew).sum())
        adjwgt[pos[exists]] = ew
        adjwgt[np.searchsorted(keys, hi[exists] * n + lo[exists])] = ew
        fresh = ~exists
        changed += int(fresh.sum())
        src = np.concatenate([lo[fresh], hi[fresh]])
        dst = np.concatenate([hi[fresh], lo[fresh]])
        fkeys = src * n + dst
        order = np.argsort(fkeys)
        at = np.searchsorted(keys, fkeys[order])
        adjncy = np.insert(adjncy, at, dst[order])
        adjwgt = np.insert(adjwgt, at, np.tile(aw[fresh], 2)[order])
        degrees += np.bincount(src, minlength=n)

    # vertex weights
    vwgt = None
    if graph.has_vertex_weights:
        vwgt = np.asarray(graph.vwgt).copy()
        if delta.add_vertices:
            vwgt = np.concatenate(
                [vwgt, np.ones(delta.add_vertices, dtype=np.int64)]
            )
    if delta.vertex_weights is not None and len(delta.vertex_weights):
        vs, ws = delta.vertex_weights.T
        if vwgt is None:
            vwgt = np.ones(n, dtype=np.int64)
        changed += int((vwgt[vs] != ws).sum())
        vwgt[vs] = ws
        if not np.any(vwgt != 1):
            vwgt = None  # degenerated back to unit weights

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    if not np.any(adjwgt != 1):
        adjwgt = None  # keep unit-weight graphs unit-weight (8-byte view)
    new_graph = CSRGraph(indptr, adjncy, adjwgt, vwgt, sorted_neighborhoods=True)
    return new_graph, changed


def random_delta(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    n_add: int = 0,
    n_remove: int = 0,
    weighted: bool = False,
) -> GraphDelta:
    """A reproducible random delta: used by the trace generator and tests.

    Removals sample existing edges; additions sample uniform non-loop
    pairs (which may or may not already exist — realistic churn contains
    both).
    """
    remove = np.empty((0, 2), dtype=np.int64)
    if n_remove and graph.m:
        src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
        mask = src < graph.adjncy
        eu, ev = src[mask], graph.adjncy[mask]
        idx = rng.choice(len(eu), size=min(n_remove, len(eu)), replace=False)
        remove = np.stack([eu[idx], ev[idx]], axis=1)
    add = np.empty((0, 2), dtype=np.int64)
    weights = None
    if n_add and graph.n >= 2:
        u = rng.integers(0, graph.n, size=n_add, dtype=np.int64)
        v = rng.integers(0, graph.n - 1, size=n_add, dtype=np.int64)
        v = np.where(v >= u, v + 1, v)  # never a self-loop
        add = np.stack([u, v], axis=1)
        if weighted:
            weights = rng.integers(1, 8, size=n_add, dtype=np.int64)
    return GraphDelta(add_edges=add, add_weights=weights, remove_edges=remove)
