"""Tests for the phase-boundary invariant layer (repro.verify.invariants)."""

import numpy as np
import pytest

import repro
from repro.core.config import DebugConfig, terapart, terapart_fm
from repro.core.context import PartitionContext
from repro.core.coarsening.lp_clustering import label_propagation_clustering
from repro.core.coarsening.one_pass_contraction import contract_one_pass
from repro.core.config import PartitionerConfig
from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import FullGainTable, SparseGainTable
from repro.graph import generators as gen
from repro.graph.compressed import compress_graph
from repro.graph.csr import CSRGraph
from repro.verify import (
    InvariantViolation,
    check_clustering,
    check_coarse_mapping,
    check_compressed_roundtrip,
    check_csr,
    check_gain_table_vs_recompute,
    check_partition,
)


@pytest.fixture
def graph():
    return gen.rgg2d(400, avg_degree=8, seed=2)


@pytest.fixture
def pgraph(graph):
    part = (np.arange(graph.n) % 4).astype(np.int32)
    return PartitionedGraph(graph, 4, part)


def _contraction(graph):
    cfg = PartitionerConfig(p=4)
    ctx = PartitionContext(
        config=cfg, k=2, total_vertex_weight=graph.total_vertex_weight
    )
    clustering = label_propagation_clustering(
        graph, ctx, max(1, graph.total_vertex_weight // 8)
    )
    out = contract_one_pass(
        graph, clustering.clusters, clustering.cluster_weights, ctx
    )
    return clustering, out


class TestCheckCsr:
    def test_valid_graph_passes(self, graph):
        check_csr(graph)

    def test_asymmetric_graph_fails_with_phase(self):
        g = CSRGraph(np.array([0, 1, 1]), np.array([1]))
        with pytest.raises(InvariantViolation, match=r"\[coarsen\].*symmetric"):
            check_csr(g, phase="coarsen")


class TestCheckPartition:
    def test_valid_partition_passes(self, pgraph):
        check_partition(pgraph)

    def test_corrupted_block_weights_fail(self, pgraph):
        pgraph.block_weights[2] += 5
        with pytest.raises(InvariantViolation, match="block 2 weight out of sync"):
            check_partition(pgraph)

    def test_out_of_range_block_fails(self, pgraph):
        pgraph.partition[7] = 9
        with pytest.raises(InvariantViolation, match="vertex 7"):
            check_partition(pgraph)

    def test_balance_ceiling_enforced_when_requested(self, graph):
        part = np.zeros(graph.n, dtype=np.int32)  # everything in block 0
        pg = PartitionedGraph(graph, 4, part)
        check_partition(pg)  # structurally fine
        with pytest.raises(InvariantViolation, match="exceeds"):
            check_partition(pg, epsilon=0.03)


class TestCheckClustering:
    def test_valid_clustering_passes(self, graph):
        cfg = PartitionerConfig(p=4)
        ctx = PartitionContext(
            config=cfg, k=2, total_vertex_weight=graph.total_vertex_weight
        )
        res = label_propagation_clustering(
            graph, ctx, max(1, graph.total_vertex_weight // 8)
        )
        check_clustering(graph, res.clusters, res.cluster_weights)

    def test_desynced_weights_fail(self, graph):
        clusters = np.arange(graph.n, dtype=np.int64)
        weights = np.asarray(graph.vwgt).astype(np.int64).copy()
        weights[5] += 1
        with pytest.raises(InvariantViolation, match="cluster 5"):
            check_clustering(graph, clusters, weights)

    def test_out_of_range_leader_fails(self, graph):
        clusters = np.arange(graph.n, dtype=np.int64)
        clusters[0] = graph.n + 3
        with pytest.raises(InvariantViolation, match="out of range"):
            check_clustering(graph, clusters, np.asarray(graph.vwgt))


class TestCheckCoarseMapping:
    def test_real_contraction_passes(self, graph):
        _, out = _contraction(graph)
        check_coarse_mapping(graph, out.coarse, out.fine_to_coarse)

    def test_out_of_range_mapping_fails(self, graph):
        _, out = _contraction(graph)
        f2c = out.fine_to_coarse.copy()
        f2c[0] = out.coarse.n + 7
        with pytest.raises(InvariantViolation, match="out-of-range coarse id"):
            check_coarse_mapping(graph, out.coarse, f2c)

    def test_weight_nonconservation_fails(self, graph):
        _, out = _contraction(graph)
        f2c = out.fine_to_coarse.copy()
        # remap one fine vertex to a different coarse vertex: vertex weight
        # sums no longer match
        f2c[0] = (f2c[0] + 1) % out.coarse.n
        with pytest.raises(InvariantViolation):
            check_coarse_mapping(graph, out.coarse, f2c)


class TestCheckCompressedRoundtrip:
    def test_roundtrip_passes(self, graph):
        check_compressed_roundtrip(graph, compress_graph(graph))

    def test_sampled_roundtrip_passes(self, graph):
        check_compressed_roundtrip(graph, compress_graph(graph), sample=32)

    def test_size_mismatch_fails(self, graph):
        other = gen.rgg2d(200, avg_degree=8, seed=3)
        with pytest.raises(InvariantViolation, match="mismatch"):
            check_compressed_roundtrip(graph, compress_graph(other))

    def test_corrupted_weights_fail(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=np.int64)
        from repro.graph.builder import from_edges

        g = from_edges(4, edges, np.array([2, 3, 4, 5], dtype=np.int64))
        cg = compress_graph(g)
        g.adjwgt[0] += 1  # tamper with the reference CSR
        with pytest.raises(InvariantViolation, match="decodes to"):
            check_compressed_roundtrip(g, cg)


class TestCheckGainTable:
    def test_full_table_passes(self, pgraph):
        check_gain_table_vs_recompute(FullGainTable(pgraph), pgraph)

    def test_sparse_table_passes(self, pgraph):
        check_gain_table_vs_recompute(SparseGainTable(pgraph), pgraph)

    def test_corrupted_full_table_fails(self, pgraph):
        table = FullGainTable(pgraph)
        u = int(np.argmax(np.asarray(pgraph.graph.degrees)))
        b = int(table.adjacent_blocks(u)[0])
        table._table[u, b] += 1
        with pytest.raises(InvariantViolation):
            check_gain_table_vs_recompute(table, pgraph)

    def test_corrupted_sparse_table_fails(self, pgraph):
        table = SparseGainTable(pgraph)
        nz = np.flatnonzero(table._vals)
        table._vals[nz[0]] += 1
        with pytest.raises(InvariantViolation):
            check_gain_table_vs_recompute(table, pgraph)


class TestDriverIntegration:
    def test_selfcheck_report_populated(self, graph):
        cfg = terapart(p=4).with_(debug=DebugConfig(validation_level=2))
        result = repro.partition(graph, 4, cfg)
        sc = result.selfcheck
        assert sc is not None
        assert sc["invariant_checks"] > 0
        assert set(sc) == {"validation_level", "invariant_checks"}

    def test_selfcheck_off_by_default(self, graph):
        result = repro.partition(graph, 4, terapart(p=4))
        assert result.selfcheck is None

    def test_fm_gain_table_checked_at_level_2(self, graph):
        cfg = terapart_fm(p=4).with_(debug=DebugConfig(validation_level=2))
        result = repro.partition(graph, 4, cfg)
        assert result.selfcheck is not None
