"""The inputs the compiled kernels' integer arithmetic holds, refused by name
before any work (``repro.graph._native.check_graph``).

Four bounds, each stated on the input graph so that it holds at every
coarse level (contraction only sums weights, subgraphs only drop them):

* the vertex weights are >= 0 ...
* ... and sum to less than 2^62 (the kernels' int64 weight sums);
* ``10 W < 2^62``, ``W`` the sum of |edge weight| over the directed edges
  (k-way FM's abort slack, ten average edge weights, inside int64);
* ``attempts * W < 2^53`` (the bisection pool's skip rule divides cut sums
  as doubles), only where the run bisects: ``refine_partition()`` does not.

No bound involves the vertex count: 2-way FM's stopping rule compares its
products exactly (``tests/test_initial_kernel.py``), so a graph of any size
whose weights fit is taken.  Each bound is pinned on both sides of its
edge, through ``partition()``, ``refine_partition()``, ``dpartition()`` and
the service's ``register_graph`` / ``apply_delta`` / ``partition``, where a
refusal is the ``bad-request`` of every other malformed input, naming the
bound.
"""

from __future__ import annotations

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.config import terapart
from repro.core.partition import PartitionedGraph
from repro.core.refinement import fm_kernel
from repro.core.refinement.gain_table import make_gain_table
from repro.dist import dpartition
from repro.dist.dpartitioner import INITIAL_ATTEMPTS
from repro.graph import _native
from repro.graph.builder import from_edges
from repro.graph.compressed import CompressedGraph, compress_graph
from repro.serve import GraphDelta, ServiceError, ServiceHandle

CONFIG = terapart(seed=1)
LIMIT = _native.WEIGHT_LIMIT


def path_edges(n: int) -> np.ndarray:
    return np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64).reshape(-1, 2)


def vertex_total(over: bool, attempts: int):
    """8 vertices summing to 2^62 - 1, or 2^62."""
    vwgt = np.full(8, (LIMIT - 1) // 8, dtype=np.int64)
    vwgt[-1] += LIMIT - 1 - int(vwgt.sum()) + over
    return 8, None, vwgt


def vertex_negative(over: bool, attempts: int):
    """A vertex of weight 0, or of weight -1."""
    vwgt = np.ones(8, dtype=np.int64)
    vwgt[3] = -1 if over else 0
    return 8, None, vwgt


def slack(over: bool, attempts: int):
    """A 12-vertex path whose W puts 10 W just below 2^62, or at it."""
    n = 12
    w = (LIMIT - 1) // (10 * 2 * (n - 1)) + over
    return n, np.full(n - 1, w, dtype=np.int64), None


def cut_sum(over: bool, attempts: int):
    """A 12-vertex path whose W puts attempts * W just below 2^53, or at it."""
    n = 12
    w = ((1 << 53) - 1) // (attempts * 2 * (n - 1)) + over
    return n, np.full(n - 1, w, dtype=np.int64), None


BOUNDS = {
    "vertex-total": (vertex_total, r"the total vertex weight \d+ is not below 2\^62"),
    "vertex-negative": (vertex_negative, "a vertex weight is negative"),
    "slack": (slack, r"10 W is not below 2\^62"),
    "cut-sum": (cut_sum, r"attempts \* W is not below 2\^53"),
}
SIDES = {"inside": False, "outside": True}
# a run that bisects: inside the slack bound is outside the cut-sum bound
BISECTING = [
    (bound, side) for bound in BOUNDS for side in SIDES if (bound, side) != ("slack", "inside")
]
# a warm start: every bound but the bisection's
WARM = [(bound, side) for bound in BOUNDS if bound != "cut-sum" for side in SIDES]


def graph_of(bound: str, side: str, attempts: int):
    n, weights, vwgt = BOUNDS[bound][0](SIDES[side], attempts)
    return from_edges(n, path_edges(n), weights, vwgt)


def run(bound, side, attempts, call):
    """``call(graph)`` on the graph at ``side`` of ``bound``: refused by
    name outside, a partition of every vertex inside."""
    graph = graph_of(bound, side, attempts)
    if SIDES[side]:
        with pytest.raises(ValueError, match="graph refused: " + BOUNDS[bound][1]):
            call(graph)
        return
    part = np.asarray(call(graph).partition)
    assert part.shape == (graph.n,) and set(part.tolist()) <= {0, 1}


def warm_start(graph):
    return repro.refine_partition(graph, 2, np.arange(graph.n) % 2, CONFIG)


@pytest.mark.parametrize("bound, side", BISECTING)
def test_partition(bound, side):
    run(bound, side, CONFIG.initial.attempts, lambda g: repro.partition(g, 2, CONFIG))


@pytest.mark.parametrize("bound, side", WARM)
def test_refine_partition(bound, side):
    run(bound, side, CONFIG.initial.attempts, warm_start)


@pytest.mark.parametrize("side", list(SIDES))
def test_refine_partition_takes_the_bisection_bound(side):
    """A warm start bisects nothing: the graph ``partition()`` refuses for
    its cut sums is refined."""
    graph = graph_of("cut-sum", side, CONFIG.initial.attempts)
    assert warm_start(graph).partition.shape == (graph.n,)


@pytest.mark.parametrize("bound, side", BISECTING)
def test_dpartition(bound, side):
    run(bound, side, INITIAL_ATTEMPTS, lambda g: dpartition(g, 2, 2))


def test_compressed_input_is_checked_without_a_decode(monkeypatch):
    """A compressed graph's W was summed at compression: the check reads it
    and decodes nothing, on either side of the bound."""
    for side in SIDES:
        graph = graph_of("cut-sum", side, CONFIG.initial.attempts)
        cg = compress_graph(graph)
        assert cg.edge_weight_sum == _native.edge_weight_sum(graph)

        def no_decode(*args, **kwargs):
            raise AssertionError("check_graph decoded the graph")

        with monkeypatch.context() as patched:
            patched.setattr(CompressedGraph, "decode_chunk", no_decode)
            if SIDES[side]:
                with pytest.raises(ValueError, match=BOUNDS["cut-sum"][1]):
                    _native.check_graph(cg, CONFIG.initial.attempts)
            else:
                _native.check_graph(cg, CONFIG.initial.attempts)
        run("cut-sum", side, CONFIG.initial.attempts, lambda g: repro.partition(cg, 2, CONFIG))


@pytest.mark.parametrize(
    "n, edges, weight",
    [(12_000_000, 120_000_000, None), (1_000_000, 10_000_000, 1000)],
    ids=["unit-12M", "weighted-1M"],
)
def test_large_inputs_are_accepted(n, edges, weight):
    """The graphs of any size whose weights fit: 12M vertices of average
    degree 10, and 1M vertices with 10^7 directed edges of weight 1000.
    Both stand-ins hold their weights as one broadcast value, so nothing of
    their size is allocated."""
    graph = SimpleNamespace(
        n=n,
        vwgt=np.broadcast_to(np.int64(1), (n,)),
        num_directed_edges=edges,
        has_edge_weights=weight is not None,
        adjwgt=np.broadcast_to(np.int64(weight or 1), (edges,)),
    )
    _native.check_graph(graph, CONFIG.initial.attempts)
    _native.check_graph(graph, 0)


@pytest.fixture
def service():
    with ServiceHandle(config=CONFIG) as handle:
        yield handle


def assert_bad_request(bound, call):
    with pytest.raises(ServiceError) as err:
        call()
    assert err.value.code == "bad-request"
    assert err.value.detail == {"graph": "g"}
    assert re.search("graph refused: " + BOUNDS[bound][1], str(err.value)), str(err.value)


@pytest.mark.parametrize("bound, side", BISECTING)
def test_service_register_graph(service, bound, side):
    graph = graph_of(bound, side, CONFIG.initial.attempts)
    if SIDES[side]:
        assert_bad_request(bound, lambda: service.register_graph("g", graph))
        assert service.service.graph_names() == []
        return
    service.register_graph("g", graph)
    assert service.partition("g", 2).partition.shape == (graph.n,)


@pytest.mark.parametrize("bound, side", [c for c in BISECTING if c[0] != "vertex-negative"])
def test_service_apply_delta(service, bound, side):
    """A delta that takes a registered graph to ``side`` of ``bound``: a
    refused one leaves the graph, its key and its cached answer as they were.
    (A delta cannot make a vertex weight negative: ``GraphDelta`` refuses a
    weight below 1 itself.)"""
    target = graph_of(bound, side, CONFIG.initial.attempts)
    n = target.n
    service.register_graph("g", from_edges(n, path_edges(n)))
    before = service.partition("g", 2)
    if target.has_edge_weights:
        edges = path_edges(n)
        weights = [int(np.asarray(target.edge_weights(u))[-1]) for u in range(n - 1)]
        delta = GraphDelta(add_edges=edges, add_weights=weights)
    else:
        pairs = [[v, int(w)] for v, w in enumerate(np.asarray(target.vwgt).tolist())]
        delta = GraphDelta(vertex_weights=pairs)
    if SIDES[side]:
        assert_bad_request(bound, lambda: service.apply_delta("g", delta))
        again = service.partition("g", 2)  # the old key, the old answer
        assert again.mode == "cached" and np.array_equal(again.partition, before.partition)
        return
    info = service.apply_delta("g", delta)
    assert info["graph"] == "g"
    assert service.partition("g", 2).partition.shape == (n,)


@pytest.mark.parametrize("side", list(SIDES))
def test_service_request_with_more_attempts(service, side):
    """A request whose config bisects with more attempts than the service's
    is held to its own cut-sum bound when it is admitted: a bad request,
    not a failed run of a graph registration accepted."""
    attempts = 2 * CONFIG.initial.attempts
    graph = graph_of("cut-sum", side, attempts)
    assert not _native.cut_sum_error(CONFIG.initial.attempts, _native.edge_weight_sum(graph))
    config = CONFIG.with_(initial=replace(CONFIG.initial, attempts=attempts))
    service.register_graph("g", graph)
    if SIDES[side]:
        assert_bad_request("cut-sum", lambda: service.partition("g", 2, config=config))
        return
    assert service.partition("g", 2, config=config).partition.shape == (graph.n,)


@pytest.mark.parametrize("slack", [LIMIT - 1, LIMIT, -1])
def test_fm_abort_slack(slack):
    """k-way FM's abort slack inside int64, as the entry points guarantee
    (ten average edge weights, under ``10 W < 2^62``): the pass binds up to
    2^62 - 1 and refuses past it by name."""
    graph = graph_of("cut-sum", "inside", CONFIG.initial.attempts)
    pgraph = PartitionedGraph(graph, 2, np.arange(graph.n) % 2)
    table = make_gain_table("sparse", pgraph)
    if 0 <= slack < LIMIT:
        fm_kernel.bind(pgraph, table, graph.total_vertex_weight, slack=slack)
        return
    with pytest.raises(ValueError, match=f"FM abort slack {slack} is outside"):
        fm_kernel.bind(pgraph, table, graph.total_vertex_weight, slack=slack)
