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
* removals apply before additions, so removing and re-adding one pair in
  the same delta re-inserts it (two changes);
* vertex-weight updates replace the weight (must stay positive);
* ``add_vertices`` appends isolated vertices of unit weight.

Every entry must be an integer that fits int64: a float, a boolean or a
larger number is a :class:`DeltaFieldError` naming the wire field
(``add``, ``remove``, ``add_weights``, ``vertex_weights``,
``add_vertices``), never a silent truncation.

:func:`apply_delta` costs O(q log deg) for q named pairs plus one copy of
each graph array it changes: it binary-searches every pair inside its
sorted row, then makes one ``np.delete`` and one ``np.insert`` per array.
:func:`state_fingerprint` is the service's cache key after a delta, a
digest of the previous key and the delta's canonical form, so taking a
delta in never re-hashes the graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import DIGEST_SIZE

_INT64_MAX = np.iinfo(np.int64).max


class DeltaFieldError(ValueError):
    """A delta field the service must refuse; ``field`` is its wire name."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field


def _int64_array(value, name: str) -> np.ndarray:
    """``value`` as int64, refusing what ``np.asarray`` would bend: floats
    (truncated), booleans (read as 0/1) and integers beyond int64."""
    if isinstance(value, np.ndarray) and value.dtype.kind != "O":
        arr = value
        if arr.size and arr.dtype.kind not in "iu":
            raise DeltaFieldError(name, f"must hold integers, got {arr.dtype}")
        if arr.size and arr.dtype.kind == "u" and arr.max() > _INT64_MAX:
            raise DeltaFieldError(name, f"entry {int(arr.max())} exceeds int64")
        return arr.astype(np.int64, copy=False)
    arr = np.asarray(value, dtype=object)
    for kind in set(map(type, arr.ravel())):
        if kind is bool or not issubclass(kind, (int, np.integer)):
            raise DeltaFieldError(
                name, f"must hold integers, got {kind.__name__}"
            )
    if arr.size == 0:
        return np.empty(arr.shape, dtype=np.int64)
    try:
        return np.array(arr.tolist(), dtype=np.int64)
    except OverflowError:
        raise DeltaFieldError(name, "holds an entry beyond int64") from None


def _pairs(value, name: str) -> np.ndarray:
    arr = _int64_array(value, name)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DeltaFieldError(name, f"must have shape (e, 2), got {arr.shape}")
    return arr


def _canonical(lo: np.ndarray, hi: np.ndarray, *rest: np.ndarray):
    """Pairs ascending by ``(lo, hi)``, one per pair: the last occurrence."""
    order = np.lexsort((hi, lo))  # stable: repeats keep their input order
    lo, hi = lo[order], hi[order]
    last = np.ones(len(lo), dtype=bool)
    last[:-1] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return (lo[last], hi[last]) + tuple(r[order][last] for r in rest)


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
        object.__setattr__(self, "add_edges", _pairs(self.add_edges, "add"))
        object.__setattr__(
            self, "remove_edges", _pairs(self.remove_edges, "remove")
        )
        if self.add_weights is not None:
            w = _int64_array(self.add_weights, "add_weights")
            if w.ndim != 1 or len(w) != len(self.add_edges):
                raise DeltaFieldError("add_weights", "must align with add")
            if w.size and w.min() <= 0:
                raise DeltaFieldError("add_weights", "must be positive")
            object.__setattr__(self, "add_weights", w)
        if self.vertex_weights is not None:
            vw = _pairs(self.vertex_weights, "vertex_weights")
            if vw.size and vw[:, 1].min() <= 0:
                raise DeltaFieldError(
                    "vertex_weights", "must be positive (the second column)"
                )
            object.__setattr__(self, "vertex_weights", vw)
        loops = self.add_edges[:, 0] == self.add_edges[:, 1]
        if loops.any():
            u = int(self.add_edges[np.argmax(loops), 0])
            raise DeltaFieldError("add", f"holds a self-loop ({u}, {u})")
        count = self.add_vertices
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise DeltaFieldError(
                "add_vertices", f"must be an integer, got {count!r}"
            )
        if not 0 <= count <= _INT64_MAX:
            raise DeltaFieldError(
                "add_vertices", f"must be in [0, 2**63), got {count}"
            )
        object.__setattr__(self, "add_vertices", int(count))

    def vertices(self, n: int) -> np.ndarray:
        """Every vertex this delta names on a graph of ``n`` vertices: edge
        endpoints, re-weighted and appended vertices (with repeats)."""
        parts = [self.add_edges.ravel(), self.remove_edges.ravel()]
        if self.vertex_weights is not None:
            parts.append(self.vertex_weights[:, 0])
        parts.append(np.arange(n, n + self.add_vertices, dtype=np.int64))
        return np.concatenate(parts)

    # the canonical form: what apply_delta merges and state_fingerprint hashes
    @cached_property
    def removals(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` of every pair to remove, once, ascending."""
        e = self.remove_edges
        return _canonical(e.min(axis=1), e.max(axis=1))

    @cached_property
    def additions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, weight)`` of every pair to add or re-weight, ascending;
        a pair named twice keeps its last weight."""
        e = self.add_edges
        w = self.add_weights
        if w is None:
            w = np.ones(len(e), dtype=np.int64)
        return _canonical(e.min(axis=1), e.max(axis=1), w)

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
        """The wire form back; every field is checked as the constructor
        checks it (a :class:`DeltaFieldError` names the bad one)."""
        return cls(
            add_edges=d.get("add", []),
            add_weights=d.get("add_weights"),
            remove_edges=d.get("remove", []),
            vertex_weights=d.get("vertex_weights"),
            add_vertices=d.get("add_vertices", 0),
        )


def _search_rows(
    graph: CSRGraph, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, hit)``: where ``dst`` sits (or would be inserted) in row
    ``src`` of a graph with sorted rows, and whether it is there.

    One vectorised binary search over all queries: ``bit_length`` of the
    widest queried row steps, O(q log deg).  Rows of vertices past
    ``graph.n`` (appended by the delta) are empty, at the end.
    """
    indptr, adjncy = graph.indptr, graph.adjncy
    lo = indptr[np.minimum(src, graph.n)]
    end = indptr[np.minimum(src + 1, graph.n)]
    if not len(adjncy):
        return lo, np.zeros(len(src), dtype=bool)
    hi = end
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1  # == lo == hi once a search has closed
        less = adjncy.take(mid, mode="clip") < dst
        lo = np.where(less, np.minimum(mid + 1, hi), lo)
        hi = np.where(less, hi, mid)
    hit = (lo < end) & (adjncy.take(lo, mode="clip") == dst)
    return lo, hit


def apply_delta(graph: CSRGraph, delta: GraphDelta) -> tuple[CSRGraph, int]:
    """Apply ``delta`` to a CSR graph; returns ``(new_graph, changed)``.

    ``changed`` counts the *actual* structural changes — edges really
    removed, edges added or re-weighted, vertex weights really changed —
    which is what feeds the service's cumulative drift counter.

    The delta is merged into the sorted rows instead of rebuilding the
    graph: both orientations of every named pair are binary-searched inside
    their row (:func:`_search_rows`), removals are one ``np.delete`` and
    insertions one ``np.insert`` per array at those positions, re-weights
    are stores, and ``indptr`` is the old one plus the running sum of the
    per-row count changes.  A unit-weight graph keeps its zero-stride ``adjwgt``
    unless a non-unit weight arrives.  ``tests/delta_reference.py`` is the
    rebuild it must equal to the byte.
    """
    n = graph.n + delta.add_vertices
    named = delta.vertices(graph.n)
    bad = named[(named < 0) | (named >= n)]
    if len(bad):  # checked before anything is built
        raise ValueError(
            f"delta references vertex {int(bad[0])} but the graph has n={n}"
        )

    graph = graph.with_sorted_neighborhoods()
    rlo, rhi = delta.removals
    alo, ahi, aw = delta.additions
    nr, na = len(rlo), len(alo)
    # one search for both orientations of every removed and added pair
    pos, hit = _search_rows(
        graph,
        np.concatenate([rlo, rhi, alo, ahi]),
        np.concatenate([rhi, rlo, ahi, alo]),
    )

    # removals: both orientations of every pair that is there
    gone = pos[: 2 * nr][hit[: 2 * nr]]
    gone_src = np.concatenate([rlo, rhi])[hit[: 2 * nr]]
    changed = len(gone) // 2
    gone.sort()

    # additions: re-weight a pair that stays, insert one that is absent or
    # removed above
    fwd, bwd = pos[2 * nr : 2 * nr + na], pos[2 * nr + na :]
    stays = hit[2 * nr : 2 * nr + na]
    if len(gone):
        removed = gone.take(np.searchsorted(gone, fwd), mode="clip") == fwd
        stays = stays & ~removed
    old_w = graph.adjwgt
    changed += int(np.count_nonzero(old_w[fwd[stays]] != aw[stays]))
    fresh = ~stays
    changed += int(np.count_nonzero(fresh))
    ins_src = np.concatenate([alo[fresh], ahi[fresh]])
    ins_dst = np.concatenate([ahi[fresh], alo[fresh]])
    order = np.lexsort((ins_dst, ins_src))
    ins_src, ins_dst = ins_src[order], ins_dst[order]
    at = np.concatenate([fwd[fresh], bwd[fresh]])[order]
    at -= np.searchsorted(gone, at)  # positions after the deletion
    ins_w = np.concatenate([aw[fresh], aw[fresh]])[order]

    adjncy = graph.adjncy
    if len(gone):
        adjncy = np.delete(adjncy, gone)
    if len(at):
        adjncy = np.insert(adjncy, at, ins_dst)
    adjwgt = None
    if graph.has_edge_weights or np.any(aw != 1):
        adjwgt = old_w  # a unit view becomes a real array on its first copy
        if len(gone):
            adjwgt = np.delete(adjwgt, gone)
        if len(at):
            adjwgt = np.insert(adjwgt, at, ins_w)
        if stays.any():
            if adjwgt is old_w:
                adjwgt = np.array(old_w)
            where = np.concatenate([fwd[stays], bwd[stays]])
            where -= np.searchsorted(gone, where)
            where += np.searchsorted(at, where, side="right")
            adjwgt[where] = np.tile(aw[stays], 2)
        if graph.has_edge_weights and not np.any(adjwgt != 1):
            adjwgt = None  # keep unit-weight graphs unit-weight (8-byte view)

    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[: graph.n + 1] = graph.indptr
    indptr[graph.n + 1 :] = graph.indptr[-1]
    if len(gone) or len(at):
        shift = np.zeros(n + 1, dtype=np.int64)
        np.add.at(shift, ins_src + 1, 1)
        np.add.at(shift, gone_src + 1, -1)
        indptr += np.cumsum(shift, out=shift)

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

    new_graph = CSRGraph(indptr, adjncy, adjwgt, vwgt, sorted_neighborhoods=True)
    return new_graph, changed


def state_fingerprint(previous: str, delta: GraphDelta, graph: CSRGraph) -> str:
    """The service's key of ``graph``, which ``delta`` made from the graph
    keyed ``previous``: a blake2b-96 digest of ``previous`` and the delta's
    canonical form (new n and m, removed pairs, added or re-weighted pairs
    with their weights, vertex-weight updates with the last one per vertex,
    the appended count), each part length-prefixed.

    Same previous key and same canonical delta give the same content, so
    different content gets a different key exactly as with
    :func:`~repro.graph.fingerprint.graph_fingerprint`, at O(q) cost.  Two
    lineages that reach identical bytes get different keys: a cache miss,
    never a wrong answer.
    """
    vw = delta.vertex_weights
    if vw is None:
        vw = np.empty((0, 2), dtype=np.int64)
    vs, _, ws = _canonical(vw[:, 0], vw[:, 0], vw[:, 1])  # last per vertex
    parts = (
        np.array([graph.n, graph.num_directed_edges], dtype=np.int64),
        *delta.removals,
        *delta.additions,
        vs,
        ws,
        np.array([delta.add_vertices], dtype=np.int64),
    )
    h = hashlib.blake2b(previous.encode(), digest_size=DIGEST_SIZE)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
    return h.hexdigest()


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
