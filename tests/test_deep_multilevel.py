"""Tests for the deep multilevel scheme (KaMinPar [3]).

A split round is two kernel calls: one ``repro_split`` of the level by its
labels and one ``repro_bisect_depth`` over that arena, a ``k = 2`` node a
block.  It must give the per-block loop it replaced
(``oracles.split_round``: one split, then one pool a block, relabelling as
it goes) the same partition, block weights, budgets, generator state and
attempts counters, and a refused round must leave all of them as they were.
"""

import math
from collections import Counter

import numpy as np
import pytest

import oracles
import repro
from repro.core import config as C
from repro.core.initial import deep, workspace
from repro.core.initial.deep import (
    DeepState,
    deep_initial_partition,
    extend_partition,
    supported_block_count,
)
from repro.core.partition import PartitionedGraph
from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from test_bisection_depth import compiled_portfolio, traced
from test_initial_workspace import reweighted


class TestSupportedBlockCount:
    def test_scales_with_n(self):
        assert supported_block_count(64, 1000, 32) == 2
        assert supported_block_count(640, 1000, 32) == 20

    def test_clamped_to_k(self):
        assert supported_block_count(10**6, 8, 32) == 8

    def test_at_least_one(self):
        assert supported_block_count(1, 8, 32) == 1


class TestDeepInitial:
    def test_block_count_matches_support(self, grid_graph):
        part, state = deep_initial_partition(
            grid_graph, 16, 0.03, np.random.default_rng(0), factor=32
        )
        expected = supported_block_count(grid_graph.n, 16, 32)
        assert len(np.unique(part)) == expected
        assert state.k_current == expected
        assert state.budgets.sum() == 16

    def test_budgets_partition_k(self):
        g = gen.rgg2d(800, 8.0, seed=1)
        for k in (3, 7, 13):
            _, state = deep_initial_partition(
                g, k, 0.03, np.random.default_rng(1), factor=32
            )
            assert state.budgets.sum() == k
            assert np.all(state.budgets >= 1)

    def test_small_k_done_immediately(self):
        g = gen.grid2d(30, 30)
        part, state = deep_initial_partition(
            g, 2, 0.03, np.random.default_rng(2), factor=32
        )
        assert state.done()
        assert len(np.unique(part)) == 2


class TestExtendPartition:
    def test_splits_until_supported(self):
        g = gen.grid2d(40, 40)  # n=1600
        k = 32
        part, state = deep_initial_partition(
            g, k, 0.03, np.random.default_rng(3), factor=32
        )
        pg = PartitionedGraph(g, k, part)
        extend_partition(pg, state, np.random.default_rng(4), factor=32)
        assert state.k_current == supported_block_count(g.n, k, 32)
        assert state.budgets.sum() == k
        pg.validate()

    def test_noop_when_done(self):
        g = gen.grid2d(30, 30)
        part, state = deep_initial_partition(
            g, 2, 0.03, np.random.default_rng(5), factor=32
        )
        pg = PartitionedGraph(g, 2, part)
        assert extend_partition(pg, state, np.random.default_rng(6)) == 0


class TestEndToEnd:
    @pytest.mark.parametrize("k", [2, 5, 16, 33])
    def test_balanced_all_blocks(self, k):
        g = gen.rgg2d(2000, 8.0, seed=7)
        r = repro.partition(g, k, C.preset("terapart-deep", seed=1))
        assert r.balanced, (k, r.imbalance)
        assert r.pgraph.nonempty_blocks() == k
        r.pgraph.validate()

    def test_quality_close_to_recursive(self):
        g = gen.rgg2d(2000, 8.0, seed=8)
        deep = repro.partition(g, 16, C.preset("terapart-deep", seed=2))
        rec = repro.partition(g, 16, C.terapart(seed=2))
        assert deep.cut < 1.5 * rec.cut

    def test_deep_hierarchy_is_deeper(self):
        """Deep multilevel coarsens to constant size, so it builds more
        levels than classic (which stops at 32k vertices)."""
        g = gen.rgg2d(3000, 8.0, seed=9)
        deep = repro.partition(g, 64, C.preset("terapart-deep", seed=3))
        rec = repro.partition(g, 64, C.terapart(seed=3))
        assert deep.num_levels >= rec.num_levels

    def test_weighted_vertices(self, text_graph):
        r = repro.partition(text_graph, 8, C.preset("terapart-deep", seed=4))
        assert r.balanced


# --------------------------------------------------------------------- #
# the split round: two kernel calls against the per-block loop
# --------------------------------------------------------------------- #
def on_the_loop(fn, *args, python=False):
    """``fn(*args)`` with deep's split round the per-block loop it was, its
    pools compiled (one-node depth calls) unless ``python``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(deep, "_split_round", oracles.split_round)
        if not python:
            m.setattr(oracles, "bipartition_portfolio", compiled_portfolio)
        return fn(*args)


def rounds(graph, k, seed, factor=32):
    """A few blocks on ``graph`` (``deep_initial_partition`` at 16 times
    ``factor``), then ``extend_partition`` to what ``factor`` supports:
    ``(partition, block weights, budgets, generator state, attempts
    counters, splits)``."""
    rng = np.random.default_rng(seed)

    def run():
        part, state = deep_initial_partition(graph, k, 0.03, rng, factor=16 * factor)
        pgraph = PartitionedGraph(graph, k, part)
        splits = extend_partition(pgraph, state, rng, factor=factor)
        pgraph.validate()
        return pgraph, state, splits

    (pgraph, state, splits), counts = traced(run)
    return (
        pgraph.partition.tolist(), pgraph.block_weights.tolist(), state.budgets.tolist(),
        rng.bit_generator.state, counts, splits,
    )  # fmt: skip


ROUND_GRAPHS = {
    "csr": lambda: gen.rgg2d(3000, avg_degree=8, seed=2),
    "compressed": lambda: compress_graph(gen.weblike(3000, avg_degree=10, seed=3)),
}


class TestSplitRound:
    @pytest.mark.parametrize("k", [3, 8, 48, 64])
    @pytest.mark.parametrize("family", list(ROUND_GRAPHS))
    def test_is_the_loop(self, family, k):
        g = ROUND_GRAPHS[family]()
        for seed in (1, 2):
            got = rounds(g, k, seed)
            assert got == on_the_loop(rounds, g, k, seed)
            assert len(set(got[0])) == len(got[2]) == supported_block_count(g.n, k, 32)
            assert got[4]["initial.attempts_run"] > 0

    def test_is_the_python_loop(self):
        """The whole reference in Python: split, pools and loop."""
        g = reweighted(gen.rgg2d(400, avg_degree=6, seed=4), edge_weights=True, vertex_weights=True)
        assert rounds(g, 12, 3, factor=16) == on_the_loop(rounds, g, 12, 3, 16, python=True)

    def test_two_calls_a_round(self, monkeypatch):
        """One ``repro_split`` and one ``repro_bisect_depth`` a round,
        whatever its block count: six rounds for k = 64, not 63 pools."""
        functions = _native.bisection_kernels()
        calls = [0] * len(functions)

        def counted(i, fn):
            def call(*args):
                calls[i] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(
            _native,
            "bisection_kernels",
            lambda: tuple(counted(i, fn) for i, fn in enumerate(functions)),
        )
        g = gen.rgg2d(3000, avg_degree=8, seed=1)
        for k in (64, 48, 5):
            calls[:] = [0] * len(functions)
            _, state = deep_initial_partition(g, k, 0.03, np.random.default_rng(1))
            assert state.k_current == k
            depth = math.ceil(math.log2(k))
            assert calls == [0, 0, depth, depth], k

    @pytest.mark.parametrize("family", list(ROUND_GRAPHS))
    def test_a_level_is_bound_once(self, family, monkeypatch):
        """``extend_partition`` binds its level once (one
        ``bisection_kernels`` lookup, a compressed level decoded once, a CSR
        level never flattened), however many rounds it runs on it."""
        g = ROUND_GRAPHS[family]()
        rng = np.random.default_rng(1)
        part, state = deep_initial_partition(g, 64, 0.03, rng, factor=512)
        pgraph = PartitionedGraph(g, 64, part)
        binds, flattens = [], []
        functions, full_adjacency = _native.bisection_kernels, workspace.full_adjacency
        monkeypatch.setattr(
            _native, "bisection_kernels", lambda: binds.append(1) or functions()
        )
        monkeypatch.setattr(
            workspace, "full_adjacency", lambda graph: flattens.append(1) or full_adjacency(graph)
        )
        assert extend_partition(pgraph, state, rng, factor=32) >= 2
        assert len(binds) == 1
        assert len(flattens) == (family == "compressed")

    def test_a_round_allocates_each_scratch_name_once(self, monkeypatch):
        """The pool scratch is sized by the round's largest block up front:
        no name is allocated twice (grown) within a round."""
        g = gen.rgg2d(3000, avg_degree=8, seed=1)
        part, state = deep_initial_partition(g, 64, 0.03, np.random.default_rng(1), factor=256)
        pgraph = PartitionedGraph(g, 64, part)
        k_before = state.k_current
        names = Counter()
        real = workspace.tracked_empty

        def recorded(size, dtype, *, name):
            names[name] += 1
            return real(size, dtype, name=name)

        monkeypatch.setattr(workspace, "tracked_empty", recorded)
        tree = workspace.BisectionTree(g, deep._POOL_CODES, 4, 1, deep.POOL_SIGMAS)
        assert deep._split_round(pgraph, state, np.random.default_rng(2), tree)
        assert state.k_current == 2 * k_before
        assert names and max(names.values()) == 1, names


class TestRoundRefusals:
    """A refused round leaves the partition, the block weights, the budgets
    and the generator where it found them."""

    def snapshot(self, pgraph, state, rng):
        return (
            pgraph.partition.tolist(), pgraph.block_weights.tolist(), state.budgets.tolist(),
            rng.bit_generator.state,
        )  # fmt: skip

    def test_cut_sums_past_double_precision(self):
        """Two attempts keep attempts * W below 2^53, eight do not."""
        edges = np.array([[i, i + 1] for i in range(11)])
        g = from_edges(12, edges, np.full(11, 1 << 47, dtype=np.int64))
        rng = np.random.default_rng(0)
        part, state = deep_initial_partition(g, 4, 0.03, rng, factor=6, attempts=2)
        assert state.k_current == 2
        pgraph = PartitionedGraph(g, 4, part)
        before = self.snapshot(pgraph, state, rng)
        with pytest.raises(ValueError, match=r"attempts \* W is not below 2\^53"):
            extend_partition(pgraph, state, rng, factor=2, attempts=8)
        assert self.snapshot(pgraph, state, rng) == before

    def test_a_refusal_after_the_kernel_wrote(self, monkeypatch):
        """The depth entry runs every pool and writes every side, then
        refuses: nothing of it reaches the partition (the per-block loop
        had relabelled the blocks before the refusing one)."""
        g = gen.rgg2d(3000, avg_degree=8, seed=1)
        rng = np.random.default_rng(3)
        part, state = deep_initial_partition(g, 64, 0.03, rng, factor=256)
        pgraph = PartitionedGraph(g, 64, part)
        functions = _native.bisection_kernels()

        def refuses(*args):
            assert functions[3](*args) == 0
            return -2

        monkeypatch.setattr(_native, "bisection_kernels", lambda: (*functions[:3], refuses))
        before = self.snapshot(pgraph, state, rng)
        with pytest.raises(ValueError, match="capacity"):
            extend_partition(pgraph, state, rng, factor=32)
        assert self.snapshot(pgraph, state, rng) == before
