"""End-to-end tests of the distributed driver (dKaMinPar / xTeraPart)."""

import hashlib

import numpy as np
import pytest

from repro.dist import SimComm, dpartition
from repro.dist.dlp import distributed_lp_clustering
from repro.dist.dgraph import distribute_graph
from repro.dist.dpartitioner import DistConfig
from repro.graph import generators as gen
from repro.graph.builder import from_edges


@pytest.fixture(scope="module")
def medium_graph():
    return gen.rgg2d(2000, avg_degree=8, seed=31)


class TestDistributedLP:
    def test_clustering_is_valid(self, medium_graph):
        comm = SimComm(4)
        dg = distribute_graph(medium_graph, comm)
        labels = distributed_lp_clustering(dg, 16, rounds=3, batches=4)
        assert len(labels) == medium_graph.n
        assert labels.min() >= 0 and labels.max() < medium_graph.n
        # it actually clusters
        assert len(np.unique(labels)) < medium_graph.n / 1.5

    def test_respects_weight_cap(self, medium_graph):
        comm = SimComm(2)
        dg = distribute_graph(medium_graph, comm)
        cap = 5
        labels = distributed_lp_clustering(dg, cap, rounds=3, batches=2)
        sizes = np.zeros(medium_graph.n, dtype=np.int64)
        np.add.at(sizes, labels, 1)
        assert sizes.max() <= cap


class TestDPartition:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_produces_balanced_partition(self, medium_graph, compressed):
        r = dpartition(medium_graph, 8, 4, compressed=compressed)
        assert r.balanced, r.imbalance
        assert len(np.unique(r.partition)) == 8
        assert r.cut > 0

    def test_quality_similar_compressed_or_not(self, medium_graph):
        a = dpartition(medium_graph, 8, 4, compressed=False)
        b = dpartition(medium_graph, 8, 4, compressed=True)
        assert abs(a.cut - b.cut) <= 0.35 * max(a.cut, b.cut)

    def test_compression_reduces_rank_peak(self, medium_graph):
        a = dpartition(medium_graph, 8, 4, compressed=False)
        b = dpartition(medium_graph, 8, 4, compressed=True)
        assert b.max_rank_peak_bytes < a.max_rank_peak_bytes

    def test_multilevel_beats_flat_random(self, medium_graph):
        from repro.core.partition import PartitionedGraph

        r = dpartition(medium_graph, 8, 4)
        rng = np.random.default_rng(2)
        rand_cut = PartitionedGraph(
            medium_graph,
            8,
            rng.integers(0, 8, size=medium_graph.n).astype(np.int32),
        ).cut_weight()
        assert r.cut < rand_cut / 2

    def test_rank_count_flexibility(self, medium_graph):
        for ranks in (1, 2, 8):
            r = dpartition(medium_graph, 4, ranks)
            assert r.num_ranks == ranks
            assert r.balanced

    def test_oom_flag(self, medium_graph):
        cfg = DistConfig(seed=0, rank_memory_budget=1)
        r = dpartition(medium_graph, 4, 2, config=cfg)
        assert r.oom
        cfg = DistConfig(seed=0, rank_memory_budget=10**12)
        r = dpartition(medium_graph, 4, 2, config=cfg)
        assert not r.oom

    def test_comm_traffic_recorded(self, medium_graph):
        r = dpartition(medium_graph, 8, 4)
        assert r.comm.bytes_sent > 0
        assert r.comm.supersteps > 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batches", 0),
            ("batches", -3),
            ("lp_rounds", -1),
            ("refine_rounds", -1),
            ("max_levels", -2),
        ],
    )
    def test_config_refuses_settings_that_turn_lp_off(self, field, value):
        with pytest.raises(ValueError, match=f"DistConfig.{field} "):
            DistConfig(**{field: value})

    def test_cut_matches_recount(self, medium_graph):
        from repro.core.partition import PartitionedGraph

        r = dpartition(medium_graph, 8, 4)
        pg = PartitionedGraph(medium_graph, 8, r.partition)
        assert pg.cut_weight() == r.cut


DEGENERATE = {
    "empty": (lambda: from_edges(0, np.empty((0, 2), dtype=np.int64)), 8),
    "one-vertex": (lambda: from_edges(1, np.empty((0, 2), dtype=np.int64)), 8),
    "isolated": (lambda: from_edges(50, np.empty((0, 2), dtype=np.int64)), 8),
    "k-above-n": (lambda: gen.rgg2d(20, avg_degree=8, seed=1), 32),
    "star": (lambda: gen.star(401), 8),
}


@pytest.mark.parametrize("ranks", [1, 2, 4])
@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_graphs(name, compressed, ranks):
    """A valid, balanced assignment whose cut is the recount."""
    from repro.core.partition import PartitionedGraph

    make, k = DEGENERATE[name]
    graph = make()
    r = dpartition(graph, k, ranks, compressed=compressed)
    assert len(r.partition) == graph.n and r.balanced
    assert np.all((r.partition >= 0) & (r.partition < k))
    assert r.cut == PartitionedGraph(graph, k, r.partition).cut_weight()


# --------------------------------------------------------------------- #
# bit-stability contract of the dist layer
# --------------------------------------------------------------------- #
GOLDEN_GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(1500, avg_degree=8, seed=31),
    "weblike": lambda: gen.weblike(1200, avg_degree=12, seed=7),
    "rhg": lambda: gen.rhg(1500, avg_degree=10, seed=5),
}

# (family, compressed, ranks, seed) ->
#   (sha1 of the int64 partition, cut, max_rank_peak_bytes,
#    comm.bytes_sent, comm.messages)
# recorded at the commit before repro.dist moved onto the shared codec,
# access layer and kernels (k=8, default DistConfig otherwise); compression
# may change only the ledger peak, never the partition or the traffic.
# Six pins (rgg2d 4 ranks seed 2, weblike seed 1) were re-recorded when the
# initial partitioning of the gathered coarsest graph changed its contract
# (PR 17: cut and traffic moved, no peak did; old -> new in CHANGES.md).
GOLDEN = {
    ('rgg2d', False, 2, 1): ('9ae249977c09640d36b9d18d25aa84831fc647d2', 223, 192600, 5212, 101),
    ('rgg2d', False, 2, 2): ('bfb5034aa86a772ad7aa22aeb9e1c266606e3d54', 233, 192600, 5180, 101),
    ('rgg2d', False, 4, 1): ('84192bb268fb683bd019e14b7a6bbe1801187787', 157, 129400, 15244, 537),
    ('rgg2d', False, 4, 2): ('8127f78fd9d79822c8a618867e65ac05e349e428', 193, 129400, 15260, 537),
    ('rgg2d', True, 2, 1): ('9ae249977c09640d36b9d18d25aa84831fc647d2', 223, 91576, 5212, 101),
    ('rgg2d', True, 2, 2): ('bfb5034aa86a772ad7aa22aeb9e1c266606e3d54', 233, 91576, 5180, 101),
    ('rgg2d', True, 4, 1): ('84192bb268fb683bd019e14b7a6bbe1801187787', 157, 78089, 15244, 537),
    ('rgg2d', True, 4, 2): ('8127f78fd9d79822c8a618867e65ac05e349e428', 193, 78089, 15260, 537),
    ('weblike', False, 2, 1): ('4a24fa32beacc4752ebc6b33c3c5dddb0c6144f9', 2016, 341744, 13212, 157),
    ('weblike', False, 2, 2): ('fa5f123ce0c02d78447fbdebe61684e4426da412', 1957, 341744, 13372, 157),
    ('weblike', False, 4, 1): ('35dbb0d7b6dba05e6797574621984239fdccc208', 1860, 277304, 30240, 1137),
    ('weblike', False, 4, 2): ('52b99da2b0e8a05d50ef16e36c7f1746f604074c', 1790, 277304, 30552, 1137),
    ('weblike', True, 2, 1): ('4a24fa32beacc4752ebc6b33c3c5dddb0c6144f9', 2016, 177103, 13212, 157),
    ('weblike', True, 2, 2): ('fa5f123ce0c02d78447fbdebe61684e4426da412', 1957, 177103, 13372, 157),
    ('weblike', True, 4, 1): ('35dbb0d7b6dba05e6797574621984239fdccc208', 1860, 164457, 30240, 1137),
    ('weblike', True, 4, 2): ('52b99da2b0e8a05d50ef16e36c7f1746f604074c', 1790, 164457, 30552, 1137),
    ('rhg', False, 2, 1): ('3565696b98196954df686cbf05b05b5f9b3ac4e8', 406, 180504, 3676, 101),
    ('rhg', False, 2, 2): ('eca313b9d690fb12a461a14865ba7570f5cc13af', 424, 180504, 3692, 101),
    ('rhg', False, 4, 1): ('8de7c1ed61296f2201b06bcb923b7c470ced2b1c', 419, 114504, 10680, 537),
    ('rhg', False, 4, 2): ('78e6759678ff64fd0b4fc1b6788a6e8cfacf1e08', 336, 114504, 10656, 537),
    ('rhg', True, 2, 1): ('3565696b98196954df686cbf05b05b5f9b3ac4e8', 406, 88601, 3676, 101),
    ('rhg', True, 2, 2): ('eca313b9d690fb12a461a14865ba7570f5cc13af', 424, 88601, 3692, 101),
    ('rhg', True, 4, 1): ('8de7c1ed61296f2201b06bcb923b7c470ced2b1c', 419, 70155, 10680, 537),
    ('rhg', True, 4, 2): ('78e6759678ff64fd0b4fc1b6788a6e8cfacf1e08', 336, 70155, 10656, 537),
}


@pytest.fixture(scope="module")
def golden_graphs():
    return {name: make() for name, make in GOLDEN_GRAPHS.items()}


@pytest.mark.parametrize(
    "key", list(GOLDEN), ids=["-".join(map(str, key)) for key in GOLDEN]
)
def test_golden_pins(golden_graphs, key):
    family, compressed, ranks, seed = key
    r = dpartition(
        golden_graphs[family],
        8,
        ranks,
        compressed=compressed,
        config=DistConfig(seed=seed),
    )
    digest = hashlib.sha1(
        np.ascontiguousarray(r.partition, dtype=np.int64).tobytes()
    ).hexdigest()
    got = (
        digest,
        int(r.cut),
        int(r.max_rank_peak_bytes),
        int(r.comm.bytes_sent),
        int(r.comm.messages),
    )
    assert got == GOLDEN[key]
