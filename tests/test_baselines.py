"""Tests for the five baseline partitioners."""

import hashlib

import numpy as np
import pytest

import repro
from repro.baselines import (
    heistream_partition,
    mtmetis_partition,
    parmetis_partition,
    sem_partition,
    xtrapulp_partition,
)
from repro.baselines.mtmetis import shem_matching
from repro.core import config as C
from repro.core.partition import PartitionedGraph
from repro.graph import generators as gen


@pytest.fixture(scope="module")
def rgg():
    return gen.rgg2d(2500, avg_degree=8, seed=41)


@pytest.fixture(scope="module")
def rhg():
    return gen.rhg(2500, avg_degree=8, seed=42)


def random_cut(graph, k, seed=0):
    rng = np.random.default_rng(seed)
    return PartitionedGraph(
        graph, k, rng.integers(0, k, size=graph.n).astype(np.int32)
    ).cut_weight()


class TestShemMatching:
    def test_is_a_matching(self, rgg):
        match = shem_matching(rgg, np.random.default_rng(0))
        # every matched group has size <= 2
        sizes = np.zeros(rgg.n, dtype=np.int64)
        np.add.at(sizes, match, 1)
        assert sizes.max() <= 2
        # leaders are group members
        for u in range(0, rgg.n, 97):
            assert match[match[u]] == match[u]

    def test_prefers_heavy_edges(self):
        from repro.graph.builder import from_edges

        g = from_edges(
            3, np.array([[0, 1], [1, 2]]), np.array([1, 100])
        )
        match = shem_matching(g, np.random.default_rng(0))
        assert match[1] == match[2]  # the weight-100 edge is matched


class TestMtMetis:
    def test_produces_partition(self, rgg):
        r = mtmetis_partition(rgg, 8, seed=1)
        assert len(np.unique(r.partition)) == 8
        assert r.cut < random_cut(rgg, 8) / 2
        assert not r.failed

    def test_memory_budget_failure(self, rgg):
        r = mtmetis_partition(rgg, 8, seed=1, memory_budget=1000)
        assert r.failed
        assert "memory" in r.failure_reason

    def test_uses_more_memory_than_terapart(self, rgg):
        mt = mtmetis_partition(rgg, 8, seed=1, p=96)
        tp = repro.partition(rgg, 8, C.terapart(seed=1, p=96))
        assert mt.peak_bytes > tp.peak_bytes

    def test_modeled_slower_than_terapart(self, rgg):
        mt = mtmetis_partition(rgg, 8, seed=1, p=96)
        tp = repro.partition(rgg, 8, C.terapart(seed=1, p=96))
        assert mt.modeled_seconds > tp.modeled_seconds

    def test_matching_hierarchy_deeper_than_lp(self, rgg):
        mt = mtmetis_partition(rgg, 8, seed=1)
        tp = repro.partition(rgg, 8, C.terapart(seed=1))
        assert mt.num_levels >= tp.num_levels


class TestXtraPulp:
    def test_partitions_but_worse_than_multilevel(self, rhg):
        xp = xtrapulp_partition(rhg, 8, seed=1)
        tp = repro.partition(rhg, 8, C.terapart(seed=1))
        assert xp.cut > 1.5 * tp.cut  # paper: 5.6x-68x at scale
        assert xp.cut < random_cut(rhg, 8)  # but far better than random

    def test_low_memory(self, rhg):
        xp = xtrapulp_partition(rhg, 8, seed=1)
        # O(n + k) auxiliary: labels dominate
        assert xp.peak_bytes < 3 * rhg.nbytes

    def test_all_blocks_used(self, rgg):
        xp = xtrapulp_partition(rgg, 8, seed=1)
        assert len(np.unique(xp.partition)) == 8


class TestHeiStream:
    def test_single_pass_quality_gap(self, rhg):
        hs = heistream_partition(rhg, 8, seed=1, buffer_size=256)
        tp = repro.partition(rhg, 8, C.terapart(seed=1))
        assert hs.cut > 1.5 * tp.cut
        assert hs.cut < random_cut(rhg, 8)

    def test_balanced_by_construction(self, rgg):
        hs = heistream_partition(rgg, 8, seed=1, buffer_size=256)
        assert hs.balanced

    def test_batch_count(self, rgg):
        hs = heistream_partition(rgg, 8, seed=1, buffer_size=500)
        assert hs.num_batches == -(-rgg.n // 500)

    def test_rhg_worse_than_rgg(self, rgg, rhg):
        """The paper's 3.1x vs 14.8x asymmetry: streaming hurts power-law
        graphs more."""
        ratios = {}
        for name, g in (("rgg", rgg), ("rhg", rhg)):
            hs = heistream_partition(g, 16, seed=1, buffer_size=256)
            tp = repro.partition(g, 16, C.terapart(seed=1))
            ratios[name] = hs.cut / max(1, tp.cut)
        assert ratios["rhg"] > ratios["rgg"] * 0.8


class TestSem:
    def test_produces_good_partition(self, rgg):
        se = sem_partition(rgg, 8, seed=1)
        tp = repro.partition(rgg, 8, C.terapart(seed=1))
        assert se.cut < 2.0 * tp.cut
        assert se.balanced

    def test_streams_multiple_passes(self, rgg):
        se = sem_partition(rgg, 8, seed=1)
        assert se.passes >= 3
        assert se.streamed_bytes > rgg.num_directed_edges * 16 * 2

    def test_modeled_much_slower_than_terapart(self, rgg):
        se = sem_partition(rgg, 8, seed=1)
        tp = repro.partition(rgg, 8, C.terapart(seed=1, p=16))
        assert se.modeled_seconds > 2 * tp.modeled_seconds

    def test_memory_is_o_n_plus_coarse(self, rgg):
        se = sem_partition(rgg, 8, seed=1)
        # far below the uncompressed graph + O(np) aux a naive run needs
        assert se.peak_bytes < 3 * rgg.nbytes


class TestParMetis:
    def test_distributed_multilevel_quality(self, rgg):
        pm = parmetis_partition(rgg, 8, ranks=4, seed=1)
        tp = repro.partition(rgg, 8, C.terapart(seed=1))
        assert pm.cut < 2.0 * tp.cut  # competitive (both multilevel)

    def test_memory_overhead_vs_xterapart(self, rgg):
        from repro.dist import dpartition

        pm = parmetis_partition(rgg, 8, ranks=4, seed=1)
        xt = dpartition(rgg, 8, 4, compressed=True)
        assert pm.max_rank_peak_bytes > 2 * xt.max_rank_peak_bytes

    def test_oom_budget(self, rgg):
        pm = parmetis_partition(
            rgg, 8, ranks=4, seed=1, rank_memory_budget=1000
        )
        assert pm.oom


# --------------------------------------------------------------------- #
# bit-stability of the two baselines that contract in-process
# --------------------------------------------------------------------- #
PIN_GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(1500, avg_degree=8, seed=31),
    "weblike": lambda: gen.weblike(1200, avg_degree=12, seed=7),
    "rhg": lambda: gen.rhg(1500, avg_degree=10, seed=5),
}

# (baseline, family, seed) -> (sha1 of the int64 partition, cut, peak_bytes)
# at k=8, recorded before Mt-Metis and SEM moved onto the shared contraction
# step; the same with and without the compiled library.  Re-recorded when
# each pool slot's order came from (seed, slot): sha1 and cut moved, no peak.
# SEM's inner partition runs terapart: ('sem', 'weblike', 2) moved again
# when one-pass contraction numbered its coarse vertices in leader order.
PINS = {
    ('mtmetis', 'rgg2d', 1): ('6b7e536d072f4eccb571d31f4e2ea39ccc628c43', 185, 648480),
    ('mtmetis', 'rgg2d', 2): ('62af4bd5ea7d1b1f802e7f628cd5edb5b8c657bc', 232, 652864),
    ('mtmetis', 'weblike', 1): ('375fd71d175181810534a72d0355843311fe7dfd', 1414, 1086728),
    ('mtmetis', 'weblike', 2): ('0c201668401059f84601655a1d8ab71d086ae987', 1471, 1086376),
    ('mtmetis', 'rhg', 1): ('06154915aba3da3deab517700b0887169ba1ef4b', 154, 616280),
    ('mtmetis', 'rhg', 2): ('6078430606c4aa7e3b792f8b2476ca4f5e418b2a', 132, 613680),
    ('sem', 'rgg2d', 1): ('3794ee2e4ff2cb7e33d968789b1151d109a70f8d', 175, 352664),
    ('sem', 'rgg2d', 2): ('35340a67c5c35ac57fbe399acdaf7a113272e23a', 147, 355000),
    ('sem', 'weblike', 1): ('08e040b5ea992319c396c144b2a14af91b7c183b', 1911, 776768),
    ('sem', 'weblike', 2): ('277bdfb3208f3dc0cf012791cab4cfa819da7a91', 1751, 771352),
    ('sem', 'rhg', 1): ('a73334ad949e0efddb73c92ece5e667316eaaedb', 312, 446480),
    ('sem', 'rhg', 2): ('39b401babd152697f504f0d1b5d0a29e8aaf9caf', 247, 441472),
}
BASELINES = {"mtmetis": mtmetis_partition, "sem": sem_partition}


@pytest.fixture(scope="module")
def pin_graphs():
    return {name: make() for name, make in PIN_GRAPHS.items()}


@pytest.mark.parametrize("key", list(PINS), ids=["-".join(map(str, key)) for key in PINS])
def test_baseline_pins(pin_graphs, key):
    baseline, family, seed = key
    r = BASELINES[baseline](pin_graphs[family], 8, seed=seed)
    digest = hashlib.sha1(np.ascontiguousarray(r.partition, dtype=np.int64).tobytes()).hexdigest()
    assert (digest, int(r.cut), int(r.peak_bytes)) == PINS[key]
