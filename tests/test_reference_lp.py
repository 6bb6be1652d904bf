"""Equivalence tests: pseudocode-faithful Algorithms 1/2 vs each other.

These pin the correctness of the two-phase scheme at the data-structure
level: the hash-table/bump/flush machinery of Algorithm 2 must compute the
same ratings -- and hence identical clustering decisions -- as Algorithm 1's
per-thread sparse arrays, on the same visit order.
"""

import numpy as np
import pytest

from lp_reference import (
    lp_round_algorithm1,
    lp_round_algorithm2,
)
from repro.graph import generators as gen


def run_rounds(graph, algorithm, rounds=3, cap=9, seed=3, **kw):
    rng = np.random.default_rng(seed)
    clusters = np.arange(graph.n, dtype=np.int64)
    weights = np.asarray(graph.vwgt).astype(np.int64).copy()
    stats = []
    for _ in range(rounds):
        order = rng.permutation(graph.n).astype(np.int64)
        stats.append(algorithm(graph, clusters, weights, order, cap, **kw))
    return clusters, weights, stats


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("fam", ["grid", "web", "rgg", "kmer"])
    def test_algorithm2_matches_algorithm1(
        self, fam, grid_graph, web_graph, rgg_graph, kmer_graph
    ):
        g = {
            "grid": grid_graph,
            "web": web_graph,
            "rgg": rgg_graph,
            "kmer": kmer_graph,
        }[fam]
        c1, w1, _ = run_rounds(g, lp_round_algorithm1, rounds=2)
        c2, w2, _ = run_rounds(
            g,
            lambda *a, **k: lp_round_algorithm2(*a, t_bump=10_000, **k),
            rounds=2,
        )
        assert np.array_equal(c1, c2)
        assert np.array_equal(w1, w2)

    def test_small_t_bump_similar_outcome(self, web_graph):
        """Bumping defers a vertex to the second phase, where it sees newer
        labels -- decisions may differ from the unbumped run (exactly as in
        a real parallel execution), but the clustering outcome is
        statistically the same: similar cluster counts, caps respected."""
        c_hi, w_hi, _ = run_rounds(
            web_graph,
            lambda *a, **k: lp_round_algorithm2(*a, t_bump=10_000, **k),
            rounds=2,
        )
        c_lo, w_lo, s_lo = run_rounds(
            web_graph,
            lambda *a, **k: lp_round_algorithm2(*a, t_bump=8, **k),
            rounds=2,
        )
        # with T=8 on a web graph, plenty of vertices took the second phase
        assert sum(b for _, b in s_lo) > 0
        n_hi = len(np.unique(c_hi))
        n_lo = len(np.unique(c_lo))
        assert abs(n_hi - n_lo) < 0.25 * max(n_hi, n_lo)
        # weights stay consistent and capped in both runs
        for c, w in ((c_hi, w_hi), (c_lo, w_lo)):
            check = np.zeros(web_graph.n, dtype=np.int64)
            np.add.at(check, c, np.asarray(web_graph.vwgt))
            assert np.array_equal(check, w)
            assert check.max() <= 9

    def test_star_hub_is_bumped(self):
        g = gen.star(300)
        clusters = np.arange(g.n, dtype=np.int64)
        weights = np.asarray(g.vwgt).astype(np.int64).copy()
        order = np.arange(g.n, dtype=np.int64)
        _, bumped = lp_round_algorithm2(
            g, clusters, weights, order, max_cluster_weight=1000, t_bump=16
        )
        assert bumped >= 1

    def test_weight_cap_respected(self, grid_graph):
        cap = 5
        for algo in (
            lp_round_algorithm1,
            lambda *a, **k: lp_round_algorithm2(*a, t_bump=64, **k),
        ):
            clusters, weights, _ = run_rounds(grid_graph, algo, rounds=3, cap=cap)
            check = np.zeros(grid_graph.n, dtype=np.int64)
            np.add.at(check, clusters, np.asarray(grid_graph.vwgt))
            assert check.max() <= cap
            assert np.array_equal(check, weights)

    def test_weighted_graph_equivalence(self, text_graph):
        c1, _, _ = run_rounds(text_graph, lp_round_algorithm1, rounds=2)
        c2, _, _ = run_rounds(
            text_graph,
            lambda *a, **k: lp_round_algorithm2(*a, t_bump=10_000, **k),
            rounds=2,
        )
        assert np.array_equal(c1, c2)

    def test_thread_count_does_not_change_decisions(self, rgg_graph):
        outs = []
        for nt in (1, 2, 8):
            c, _, _ = run_rounds(
                rgg_graph,
                lambda *a, **k: lp_round_algorithm2(
                    *a, t_bump=64, num_threads=nt
                ),
                rounds=2,
            )
            outs.append(c)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])
