"""``apply_delta`` (row search + merge) against ``reference_apply_delta`` (rebuild).

Chains random deltas through both implementations and demands the same
bytes: ``indptr`` / ``adjncy`` / ``adjwgt`` / ``vwgt``, the unit-weight
flags, ``changed`` and therefore ``graph_fingerprint`` -- the ladder pins
``serve-churn``'s final graph and advances its checker's copy through the
public function, so "equivalent" is not enough.
"""

import numpy as np
import pytest
from delta_reference import reference_apply_delta
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.serve import GraphDelta, apply_delta

BASES = {
    "star": gen.star(2100),  # one row deeper than 2**11: the search depth
    "rgg2d": gen.rgg2d(60, 6.0, seed=3),
    "rhg": gen.rhg(60, 6.0, seed=3),
    "weblike": gen.weblike(60, 6.0, seed=3),
    "empty": from_edges(5, np.empty((0, 2), dtype=np.int64)),
    "no-vertices": from_edges(0, np.empty((0, 2), dtype=np.int64)),
    "single-edge": from_edges(2, np.array([[0, 1]], dtype=np.int64)),
}


def assert_same_graph(new: CSRGraph, ref: CSRGraph) -> None:
    for name in ("indptr", "adjncy", "adjwgt", "vwgt"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert new.has_edge_weights == ref.has_edge_weights
    assert new.has_vertex_weights == ref.has_vertex_weights
    assert new.sorted_neighborhoods and ref.sorted_neighborhoods
    assert graph_fingerprint(new) == graph_fingerprint(ref)


def existing_edges(graph: CSRGraph) -> np.ndarray:
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    keep = src < graph.adjncy
    return np.stack([src[keep], graph.adjncy[keep]], axis=1)


def mixed_delta(graph: CSRGraph, rng: np.random.Generator) -> GraphDelta:
    """One delta mixing every case the semantics list names."""
    add_vertices = int(rng.integers(0, 3)) if rng.random() < 0.4 else 0
    n = graph.n + add_vertices
    have = existing_edges(graph)
    shape = rng.integers(0, 6)
    if shape == 0 and len(have):  # remove every edge
        return GraphDelta(remove_edges=have)
    if shape == 1 and len(have):  # every weight back to 1
        return GraphDelta(
            add_edges=have[:, ::-1],
            add_weights=np.ones(len(have), dtype=np.int64),
            vertex_weights=np.stack(
                [np.arange(graph.n), np.ones(graph.n, dtype=np.int64)], axis=1
            ),
        )

    def pairs(count):  # uniform non-loop pairs: present or absent
        if n < 2:
            return np.empty((0, 2), dtype=np.int64)
        u = rng.integers(0, n, size=count)
        v = rng.integers(0, n - 1, size=count)
        return np.stack([u, np.where(v >= u, v + 1, v)], axis=1)

    def some(edges, count):
        if not len(edges):
            return edges
        picked = edges[rng.integers(0, len(edges), size=count)]
        flip = rng.random(len(picked)) < 0.5
        return np.where(flip[:, None], picked[:, ::-1], picked)

    removed = some(have, 4)
    remove = np.concatenate([removed, pairs(3)])
    # re-weights, fresh pairs, removed-then-added pairs, in-batch duplicates
    add = np.concatenate([some(have, 4), pairs(4), removed[:2]])
    add = np.concatenate([add, some(add, 3)])
    weights = None
    if rng.random() < 0.6:
        weights = rng.integers(1, 4, size=len(add))
    vertex_weights = None
    if n and rng.random() < 0.5:
        vs = rng.integers(0, n, size=3)
        vertex_weights = np.stack([vs, rng.integers(1, 3, size=3)], axis=1)
    return GraphDelta(
        add_edges=add,
        add_weights=weights,
        remove_edges=remove,
        vertex_weights=vertex_weights,
        add_vertices=add_vertices,
    )


@given(
    base=st.sampled_from(sorted(BASES)),
    seed=st.integers(0, 2**20),
    chain=st.integers(1, 6),
)
@settings(max_examples=120, deadline=None)
def test_chained_deltas_match_the_rebuild(base, seed, chain):
    rng = np.random.default_rng(seed)
    new = ref = BASES[base]
    for _ in range(chain):
        delta = mixed_delta(ref, rng)
        new, changed = apply_delta(new, delta)
        ref, ref_changed = reference_apply_delta(ref, delta)
        assert changed == ref_changed
        assert_same_graph(new, ref)
    new.validate()


def hub_graph(n=3000, hub=1500, seed=0) -> CSRGraph:
    """A weighted star whose hub sits mid-graph, plus a sparse ring: the hub
    row has degree n - 1 and rows before and after it."""
    rng = np.random.default_rng(seed)
    others = np.delete(np.arange(n), hub)
    spokes = np.stack([np.full(n - 1, hub), others], axis=1)
    ring = np.stack([others, np.roll(others, 1)], axis=1)
    edges = np.concatenate([spokes, ring])
    return from_edges(n, edges, rng.integers(1, 9, size=len(edges)))


def test_hub_row_is_searched_to_its_ends():
    graph = hub_graph()
    hub, last = 1500, graph.n - 1
    spokes = [[hub, 0], [hub, 1], [hub, 1499], [hub, 1501], [last, hub]]
    delta = GraphDelta(
        remove_edges=spokes + [[hub, 7]],
        # re-add two removed spokes, re-weight others, spokes to new vertices
        add_edges=[[0, hub], [hub, last], [hub, 2], [hub, 2998],
                   [hub, 3000], [3001, hub], [3000, 3001]],
        add_weights=[3, 1, 9, 9, 2, 2, 5],
        add_vertices=2,
    )
    new, changed = apply_delta(graph, delta)
    ref, ref_changed = reference_apply_delta(graph, delta)
    assert changed == ref_changed
    assert_same_graph(new, ref)
    assert new.degree(hub) == graph.degree(hub) - 6 + 2 + 2
    new.validate()


def test_pairs_removed_and_re_added_in_one_delta(rhg_graph):
    rng = np.random.default_rng(3)
    have = existing_edges(rhg_graph)
    picked = have[rng.choice(len(have), size=40, replace=False)]
    for weights in (None, rng.integers(1, 5, size=20)):
        delta = GraphDelta(
            remove_edges=picked, add_edges=picked[:20, ::-1], add_weights=weights
        )
        new, changed = apply_delta(rhg_graph, delta)
        ref, ref_changed = reference_apply_delta(rhg_graph, delta)
        assert changed == ref_changed == 60
        assert_same_graph(new, ref)


def test_edges_to_appended_vertices(tiny_graph, weighted_graph):
    for graph in (tiny_graph, weighted_graph):
        n = graph.n
        delta = GraphDelta(
            add_edges=[[n + 2, n], [0, n + 1], [n + 1, n + 2], [n, 1]],
            add_vertices=4,  # n + 3 stays isolated
        )
        new, changed = apply_delta(graph, delta)
        ref, ref_changed = reference_apply_delta(graph, delta)
        assert changed == ref_changed == 4
        assert_same_graph(new, ref)
        assert new.degree(n + 3) == 0 and new.degree(n + 2) == 2


def test_unit_weight_graph_keeps_its_zero_stride_view(rhg_graph):
    delta = mixed_delta(rhg_graph, np.random.default_rng(2))
    unit = GraphDelta(add_edges=delta.add_edges, remove_edges=delta.remove_edges)
    new, _ = apply_delta(rhg_graph, unit)
    assert not new.has_edge_weights and new.adjwgt.strides == (0,)
    heavy = GraphDelta(add_edges=[[0, 1]], add_weights=[4])
    assert apply_delta(new, heavy)[0].adjwgt.strides == (8,)


def test_remove_then_add_of_one_pair_counts_twice(weighted_graph):
    delta = GraphDelta(remove_edges=[[1, 0]], add_edges=[[0, 1]], add_weights=[5])
    new, changed = apply_delta(weighted_graph, delta)
    assert changed == 2
    assert_same_graph(new, reference_apply_delta(weighted_graph, delta)[0])


def test_last_duplicate_in_a_batch_wins(tiny_graph):
    delta = GraphDelta(add_edges=[[0, 4], [4, 0], [0, 4]], add_weights=[7, 3, 2])
    new, changed = apply_delta(tiny_graph, delta)
    assert changed == 1
    assert int(new.edge_weights(0)[list(new.neighbors(0)).index(4)]) == 2
    assert_same_graph(new, reference_apply_delta(tiny_graph, delta)[0])


def test_unsorted_input_is_sorted_first(rhg_graph):
    rng = np.random.default_rng(5)
    weights = rng.integers(1, 9, size=rhg_graph.m)
    graph = from_edges(rhg_graph.n, existing_edges(rhg_graph), weights)
    order = np.concatenate(
        [
            lo + rng.permutation(hi - lo)
            for lo, hi in zip(graph.indptr[:-1], graph.indptr[1:])
        ]
    ).astype(np.int64)
    shuffled = CSRGraph(graph.indptr, graph.adjncy[order], graph.adjwgt[order])
    assert not shuffled.sorted_neighborhoods
    delta = mixed_delta(graph, np.random.default_rng(11))
    new, changed = apply_delta(shuffled, delta)
    ref, ref_changed = reference_apply_delta(shuffled, delta)
    assert changed == ref_changed
    assert_same_graph(new, ref)


@pytest.mark.parametrize(
    "delta_kwargs, bad",
    [
        ({"add_edges": [[0, -1]]}, -1),
        ({"add_edges": [[0, 6]]}, 6),
        ({"remove_edges": [[-1, 5]]}, -1),
        ({"remove_edges": [[2, 17]]}, 17),
        ({"vertex_weights": [[-3, 2]]}, -3),
        ({"vertex_weights": [[6, 2]]}, 6),
    ],
)
def test_out_of_range_ids_are_named_before_anything_is_built(
    tiny_graph, delta_kwargs, bad
):
    with pytest.raises(ValueError, match=f"references vertex {bad} "):
        apply_delta(tiny_graph, GraphDelta(**delta_kwargs))
