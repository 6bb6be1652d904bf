"""Warm starts seeded by the delta: work and quality guards, no stopwatch.

``lp_refine(seeds=...)`` visits the seeds in round 0 and afterwards only
the vertices moved in the round before plus their neighbours; the service
derives the seeds from the deltas applied since the warm seed's partition
was computed.  The guards count scheduled vertices (``refine.lp_visited``)
and compare cuts against the full-sweep warm start on the same input.
"""

import numpy as np
import pytest

from repro.core import config as C
from repro.core.config import ServeConfig
from repro.core.partition import PartitionedGraph
from repro.core.partitioner import partition, refine_partition
from repro.graph import generators as gen
from repro.graph.access import chunk_adjacency
from repro.graph.compressed import compress_graph
from repro.serve import GraphDelta, ServiceHandle, apply_delta, random_delta

K = 8
GRAPH = gen.rhg(4000, 10.0, seed=1)
TRACED = C.terapart(seed=1).with_(obs=C.ObsConfig(enabled=True))


def half_percent_delta(graph, rng):
    per = max(2, int(0.005 * graph.m))
    return random_delta(graph, rng, n_add=per // 2, n_remove=per - per // 2)


def visited(result) -> int:
    return int(result.obs["counters"]["refine.lp_visited"])


def cut_of(graph, part) -> int:
    return PartitionedGraph(graph, K, np.asarray(part, dtype=np.int32)).cut_weight()


class TestWorkGuard:
    def test_seeded_warm_start_visits_the_frontier_not_the_graph(self):
        delta = half_percent_delta(GRAPH, np.random.default_rng(7))
        named = np.unique(delta.vertices(GRAPH.n))
        drifted, _ = apply_delta(GRAPH, delta)
        closed = np.union1d(named, chunk_adjacency(drifted, named)[1])
        start = partition(GRAPH, K, TRACED).partition
        n = GRAPH.n

        one_round = TRACED.with_(lp_refinement_rounds=1)
        first = refine_partition(drifted, K, start, one_round, seeds=named)
        assert visited(first) == len(named) == 131
        assert visited(first) <= len(closed)

        seeded = refine_partition(
            drifted, K, start, TRACED, extra_lp_rounds=2, seeds=named
        )
        sweep = refine_partition(drifted, K, start, TRACED, extra_lp_rounds=2)
        assert visited(seeded) == 131 and visited(seeded) < n // 4
        rounds = int(sweep.obs["counters"]["refine.lp_rounds"])
        assert visited(sweep) == rounds * n == 4000

        # a start round 0 changes: named vertices trade blocks (the block
        # weights stay), their old blocks pull them back and round 1 has a
        # frontier
        named = np.unique(np.random.default_rng(3).choice(n, 40, replace=False))
        moved_start = start.copy()
        moved_start[named] = start[np.roll(named, 1)]
        assert PartitionedGraph(GRAPH, K, moved_start).is_balanced(TRACED.epsilon)
        once = refine_partition(GRAPH, K, moved_start, one_round, seeds=named)
        movers = np.flatnonzero(once.partition != moved_start)
        assert len(movers) and np.isin(movers, named).all()
        frontier = np.union1d(movers, chunk_adjacency(GRAPH, movers)[1])
        two_rounds = TRACED.with_(lp_refinement_rounds=2)
        twice = refine_partition(GRAPH, K, moved_start, two_rounds, seeds=named)
        assert int(twice.obs["counters"]["refine.lp_rounds"]) == 2
        assert visited(twice) == len(named) + len(frontier)
        assert visited(twice) < n // 4

    def test_empty_and_repeated_seeds(self):
        start = partition(GRAPH, K, TRACED).partition
        nothing = refine_partition(GRAPH, K, start, TRACED, seeds=[])
        assert visited(nothing) == 0
        assert np.array_equal(nothing.partition, start)
        repeated = refine_partition(GRAPH, K, start, TRACED, seeds=[3, 3, 7])
        assert visited(repeated) == 2

    def test_a_warm_request_is_seeded_by_the_service(self):
        runs = []

        def recording_refine(*args, **kwargs):
            runs.append((kwargs["seeds"], refine_partition(*args, **kwargs)))
            return runs[-1][1]

        delta = half_percent_delta(GRAPH, np.random.default_rng(7))
        with ServiceHandle(TRACED, refine_fn=recording_refine) as h:
            h.register_graph("g", GRAPH)
            h.partition("g", K)
            h.apply_delta("g", delta)
            warm = h.partition("g", K)
            snap = h.metrics_snapshot()
        (seeds, result), = runs
        assert warm.mode == "warm"
        assert np.array_equal(seeds, np.unique(delta.vertices(GRAPH.n)))
        assert visited(result) < GRAPH.n // 4
        assert snap["serve.warm_seed_vertices"] == len(seeds)
        assert snap["serve.delta_seconds"] > 0

    def test_compressed_graphs_take_seeds_through_the_adjacency_seam(self):
        delta = half_percent_delta(GRAPH, np.random.default_rng(7))
        drifted, _ = apply_delta(GRAPH, delta)
        start = partition(GRAPH, K, TRACED).partition
        seeds = delta.vertices(GRAPH.n)
        on_csr = refine_partition(drifted, K, start, TRACED, seeds=seeds)
        on_compressed = refine_partition(
            compress_graph(drifted), K, start, TRACED, seeds=seeds
        )
        assert np.array_equal(on_csr.partition, on_compressed.partition)
        assert visited(on_csr) == visited(on_compressed)


@pytest.mark.parametrize("pseed", range(5))
def test_seeded_cut_tracks_the_full_sweep(pseed):
    """(b) within 1 % of the full-sweep warm cut over 8 chained deltas,
    (c) never above the unrefined seed partition's cut on the new graph."""
    cfg = C.terapart(seed=pseed)
    rng = np.random.default_rng(100 + pseed)
    graph = GRAPH
    part = partition(graph, K, cfg).partition
    seeded_total = sweep_total = 0
    for _ in range(8):
        delta = half_percent_delta(graph, rng)
        graph, _ = apply_delta(graph, delta)
        seeded = refine_partition(
            graph, K, part, cfg, extra_lp_rounds=2, seeds=delta.vertices(graph.n)
        )
        sweep = refine_partition(graph, K, part, cfg, extra_lp_rounds=2)
        assert seeded.balanced and sweep.balanced
        assert seeded.cut <= cut_of(graph, part)
        seeded_total += seeded.cut
        sweep_total += sweep.cut
        part = seeded.partition
    assert seeded_total <= 1.01 * sweep_total


def test_appended_and_reweighted_vertices_are_seeds():
    delta = GraphDelta(
        add_edges=[[3, GRAPH.n + 1]],
        remove_edges=[[9, 8]],
        vertex_weights=[[17, 4]],
        add_vertices=2,
    )
    named = set(delta.vertices(GRAPH.n).tolist())
    assert named == {3, GRAPH.n + 1, 9, 8, 17, GRAPH.n, GRAPH.n + 1}
    with ServiceHandle(C.terapart(seed=1)) as h:
        h.register_graph("g", GRAPH)
        h.partition("g", K)
        h.apply_delta("g", delta)
        entry = h.service._entries["g"]
        assert set(np.flatnonzero(entry.epoch).tolist()) == named
        assert len(entry.epoch) == GRAPH.n + 2
        warm = h.partition("g", K)
    assert warm.mode == "warm" and warm.balanced
    assert len(warm.partition) == GRAPH.n + 2


def test_refreshed_seed_is_charged_at_its_own_size():
    """The byte-LRU's resident bytes are the sum of its entries' real sizes,
    also after a warm refresh on a graph that grew."""
    with ServiceHandle(C.terapart(seed=1), ServeConfig()) as h:
        h.register_graph("g", GRAPH)
        h.partition("g", K)
        h.apply_delta("g", GraphDelta(add_vertices=50))
        assert h.partition("g", K).mode == "warm"
        cache = h.service.cache
        real = sum(cache.peek(key).nbytes for key in cache.keys())
        assert cache.stats.resident_bytes == real
        seed = next(cache.peek(k) for k in cache.keys() if k[0] == "seed")
        assert len(seed.partition) == GRAPH.n + 50
