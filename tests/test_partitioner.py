"""End-to-end tests of the multilevel driver across all presets."""

import numpy as np
import pytest

import repro
from repro.core import config as C
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.memory import MemoryTracker
from repro.parallel import ParallelRuntime

PRESETS = list(C.PRESETS)


@pytest.fixture(scope="module")
def medium_rgg():
    return gen.rgg2d(1500, avg_degree=8, seed=21)


@pytest.fixture(scope="module")
def medium_web():
    return gen.weblike(1500, avg_degree=12, seed=22)


class TestEndToEnd:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_all_presets_produce_balanced_partitions(self, medium_rgg, preset):
        r = repro.partition(medium_rgg, 8, C.preset(preset, seed=1))
        assert r.balanced, f"{preset} violated balance: {r.imbalance}"
        assert r.pgraph.nonempty_blocks() == 8
        r.pgraph.validate()

    @pytest.mark.parametrize("k", [2, 5, 16, 31])
    def test_various_k(self, medium_rgg, k):
        r = repro.partition(medium_rgg, k, C.terapart(seed=2))
        assert r.balanced
        assert r.pgraph.nonempty_blocks() == k

    def test_k1_trivial(self, medium_rgg):
        r = repro.partition(medium_rgg, 1, C.terapart(seed=3))
        assert r.cut == 0
        assert r.balanced

    def test_multilevel_beats_flat_random(self, medium_rgg):
        r = repro.partition(medium_rgg, 8, C.terapart(seed=4))
        rng = np.random.default_rng(0)
        from repro.core.partition import PartitionedGraph

        rand_cut = PartitionedGraph(
            medium_rgg, 8, rng.integers(0, 8, size=medium_rgg.n).astype(np.int32)
        ).cut_weight()
        assert r.cut < rand_cut / 3

    def test_fm_improves_over_lp(self, medium_web):
        cut_lp = np.mean(
            [repro.partition(medium_web, 8, C.terapart(seed=s)).cut for s in range(2)]
        )
        cut_fm = np.mean(
            [
                repro.partition(medium_web, 8, C.terapart_fm(seed=s)).cut
                for s in range(2)
            ]
        )
        assert cut_fm <= cut_lp

    def test_accepts_precompressed_graph(self, medium_web):
        cg = compress_graph(medium_web)
        r = repro.partition(cg, 4, C.terapart(seed=5))
        assert r.balanced
        assert len(r.partition) == medium_web.n

    @pytest.mark.parametrize("preset", ["terapart", "terapart-fm"])
    def test_chunk_encoded_rows_partition_like_plain_ones(self, medium_web, preset):
        """Compressed == CSR with hubs: at a chunking threshold of 16 (chunks
        of 4) many rows are chunk-encoded, and the partition and cut are
        those of the CSR input, traced or not."""
        cg = compress_graph(medium_web, high_degree_threshold=16, chunk_length=4)
        assert cg.stats.num_chunked_vertices > 100
        want = repro.partition(medium_web, 8, C.preset(preset, seed=3))
        for obs in (False, True):
            cfg = C.preset(preset, seed=3, obs=C.ObsConfig(enabled=obs))
            got = repro.partition(cg, 8, cfg)
            assert np.array_equal(got.partition, want.partition) and got.cut == want.cut

    def test_deterministic_given_seed(self, medium_rgg):
        r1 = repro.partition(medium_rgg, 8, C.terapart(seed=6))
        r2 = repro.partition(medium_rgg, 8, C.terapart(seed=6))
        assert np.array_equal(r1.partition, r2.partition)
        assert r1.cut == r2.cut

    def test_different_seeds_differ(self, medium_rgg):
        r1 = repro.partition(medium_rgg, 8, C.terapart(seed=7))
        r2 = repro.partition(medium_rgg, 8, C.terapart(seed=8))
        assert not np.array_equal(r1.partition, r2.partition)


#: graphs whose first coarse levels span several contraction chunks
SEED_GRAPHS = {
    "weblike": lambda: gen.weblike(6000, avg_degree=12, seed=23),
    "rgg2d": lambda: gen.rgg2d(5000, avg_degree=8, seed=24),
}


@pytest.fixture(scope="module", params=sorted(SEED_GRAPHS))
def seed_graph(request):
    return SEED_GRAPHS[request.param]()


def partition_bytes(graph, k, cfg) -> bytes:
    return np.ascontiguousarray(repro.partition(graph, k, cfg).partition).tobytes()


class TestOnePartitionPerSeed:
    """A partition depends on the graph, k, the preset and its seed: not
    on the virtual thread count, and not on the memory optimisations."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_same_partition_at_every_p(self, seed_graph, preset):
        parts = [partition_bytes(seed_graph, 64, C.preset(preset, seed=3, p=p)) for p in (1, 2, 4, 8)]
        assert all(part == parts[0] for part in parts[1:])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_memory_optimisations_leave_the_partition_alone(self, seed_graph, seed):
        """The paper: two-phase LP, compression and one-pass contraction do
        not change what KaMinPar computes -- here, byte for byte."""
        names = ["kaminpar", "kaminpar+2lp", "kaminpar+2lp+compress", "terapart"]
        parts = [partition_bytes(seed_graph, 8, C.preset(name, seed=seed)) for name in names]
        assert all(part == parts[0] for part in parts[1:])


class TestMemoryBehaviour:
    def test_terapart_uses_less_memory_than_kaminpar(self, medium_web):
        """The paper's headline (Fig. 1/4/6), at p=96."""
        peak = {}
        for preset in ("kaminpar", "terapart"):
            r = repro.partition(medium_web, 16, C.preset(preset, seed=1, p=96))
            peak[preset] = r.peak_bytes
        assert peak["terapart"] < peak["kaminpar"] / 2

    def test_optimization_ladder_monotone(self, medium_web):
        """Each enabled optimization reduces peak memory (Fig. 1)."""
        ladder = [
            "kaminpar",
            "kaminpar+2lp",
            "kaminpar+2lp+compress",
            "terapart",
        ]
        peaks = [
            repro.partition(medium_web, 16, C.preset(nm, seed=2, p=96)).peak_bytes
            for nm in ladder
        ]
        for a, b in zip(peaks, peaks[1:]):
            assert b <= a * 1.05, (ladder, peaks)
        assert peaks[-1] < peaks[0] / 2

    def test_tracker_leak_free(self, medium_rgg):
        tracker = MemoryTracker()
        repro.partition(medium_rgg, 4, C.terapart(seed=3), tracker=tracker)
        tracker.assert_empty()

    def test_phase_peaks_recorded(self, medium_rgg):
        tracker = MemoryTracker()
        repro.partition(medium_rgg, 4, C.terapart(seed=4), tracker=tracker)
        phases = tracker.phases()
        assert any("coarsening" in p for p in phases)
        assert any("initial-partitioning" in p for p in phases)
        assert any("refinement" in p for p in phases)


class TestResultFields:
    def test_result_is_self_consistent(self, medium_rgg):
        r = repro.partition(medium_rgg, 8, C.terapart(seed=9))
        assert r.cut == r.pgraph.cut_weight()
        assert r.cut_fraction == pytest.approx(r.cut / medium_rgg.m)
        assert r.wall_seconds > 0
        assert r.modeled_seconds > 0
        assert r.config_name == "terapart"
        assert r.num_levels >= 1
        assert "initial-partitioning" in r.phase_stats

    def test_a_reused_runtime_reports_each_run_alone(self):
        """Two calls on one runtime: each result holds only its own run's
        costs and thread slices, and the second call leaves the first
        result's as they were."""
        graph = gen.rgg2d(3000, seed=3)
        cfg = C.terapart(seed=3).with_(obs=C.ObsConfig(enabled=True))

        def ledger(r):
            fields = [(s.work, s.span, s.bytes_moved, s.atomic_ops) for s in r.phase_stats.values()]
            threads = [(t["phase"], t["tid"], t["chunks"], t["items"]) for t in r.obs["threads"]]
            return r.modeled_seconds, list(r.phase_stats), fields, threads

        alone = ledger(repro.partition(graph, 8, cfg))
        runtime = ParallelRuntime(cfg.p)
        first = repro.partition(graph, 8, cfg, runtime=runtime)
        assert ledger(first) == alone
        second = repro.partition(graph, 8, cfg, runtime=runtime)
        assert ledger(second) == alone
        assert ledger(first) == alone
        warm = repro.refine_partition(graph, 8, first.partition, cfg)
        again = repro.refine_partition(graph, 8, first.partition, cfg, runtime=runtime)
        assert ledger(again) == ledger(warm)
        assert ledger(first) == alone


class TestEdgeCases:
    def test_empty_graph(self):
        from repro.graph.builder import from_edges

        g = from_edges(0, np.zeros((0, 2), dtype=np.int64))
        r = repro.partition(g, 1, C.terapart(seed=0))
        assert r.cut == 0

    def test_graph_without_edges(self):
        from repro.graph.builder import from_edges

        g = from_edges(20, np.zeros((0, 2), dtype=np.int64))
        r = repro.partition(g, 4, C.terapart(seed=0))
        assert r.cut == 0
        assert r.balanced

    def test_disconnected_components(self):
        from repro.graph.builder import from_edges

        parts = []
        for c in range(4):
            off = c * 10
            ring = [[off + i, off + (i + 1) % 10] for i in range(10)]
            parts.extend(ring)
        g = from_edges(40, np.array(parts))
        r = repro.partition(g, 4, C.terapart(seed=1))
        assert r.balanced

    def test_k_near_n(self):
        g = gen.grid2d(5, 5)
        r = repro.partition(g, 12, C.terapart(seed=2))
        assert r.balanced

    def test_star_graph(self):
        g = gen.star(400)
        r = repro.partition(g, 4, C.terapart(seed=3))
        assert r.balanced

    def test_weighted_graph(self, text_graph):
        r = repro.partition(text_graph, 4, C.terapart(seed=4))
        assert r.balanced
        r.pgraph.validate()


class TestVertexWeightTotal:
    """A total vertex weight past int64 is refused by name; 2^52-weight
    vertices, whose total fits, still partition under every preset."""

    @staticmethod
    def heavy(bits):
        from repro.graph.builder import from_edges

        base = gen.rgg2d(300, 8.0, seed=1)
        src = np.repeat(np.arange(base.n), base.degrees)
        edges = np.stack([src, base.adjncy], axis=1)[src < base.adjncy]
        return from_edges(base.n, edges, vwgt=np.full(base.n, 1 << bits, dtype=np.int64))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_a_total_past_int64_is_a_value_error(self, preset):
        g = self.heavy(55)  # 300 * 2^55: int64 wraps it to about -7.6e18
        total = 300 << 55
        with pytest.raises(ValueError, match=f"total vertex weight {total} "):
            repro.partition(g, 4, C.preset(preset, seed=1))
        with pytest.raises(ValueError, match=f"total vertex weight {total} "):
            repro.refine_partition(g, 4, np.arange(g.n) % 4, C.preset(preset, seed=1))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_a_total_that_fits_is_partitioned(self, preset):
        g = self.heavy(52)
        r = repro.partition(g, 4, C.preset(preset, seed=1))
        assert r.balanced and r.imbalance >= 0
        warm = repro.refine_partition(g, 4, r.partition, C.preset(preset, seed=1))
        assert warm.balanced and warm.cut <= r.cut


class TestDegenerateWarmStarts:
    """``refine_partition`` on the degenerate graphs ``partition`` is pinned
    on: valid, balanced output from a balanced or a one-block start under
    every preset, or a ``ValueError`` that names what is wrong."""

    CASES = {
        "empty": (lambda: from_edges(0, np.zeros((0, 2), dtype=np.int64)), 4),
        "isolated-50": (lambda: from_edges(50, np.zeros((0, 2), dtype=np.int64)), 4),
        "star-3000": (lambda: gen.star(3000), 4),
        "k-equals-n": (lambda: gen.rgg2d(20, 4.0, seed=1), 20),
        "k-above-n": (lambda: gen.rgg2d(20, 4.0, seed=1), 32),
    }

    @pytest.mark.parametrize("start", ["round-robin", "one-block"])
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("preset", PRESETS)
    def test_valid_and_balanced(self, preset, case, start):
        make, k = self.CASES[case]
        g = make()
        part_in = np.arange(g.n) % k if start == "round-robin" else np.zeros(g.n, dtype=np.int64)
        r = repro.refine_partition(g, k, part_in, C.preset(preset, seed=1))
        part = r.partition
        assert len(part) == g.n and r.num_levels == 0
        assert g.n == 0 or (part.min() >= 0 and part.max() < k)
        assert r.balanced and r.imbalance >= 0
        src = np.repeat(np.arange(g.n), g.degrees)
        assert r.cut == int(np.asarray(g.adjwgt)[part[src] != part[g.adjncy]].sum()) // 2

    @pytest.mark.parametrize("preset", PRESETS)
    def test_bad_starts_are_named(self, preset):
        g = gen.rgg2d(20, 4.0, seed=1)
        cfg = C.preset(preset, seed=1)
        for part_in, k, cause in (
            (np.zeros(5, dtype=np.int64), 4, "partition must assign every vertex"),
            (np.full(20, 7), 4, "out-of-range block IDs"),
            (np.full(20, -1), 4, "out-of-range block IDs"),
            (np.zeros(20, dtype=np.int64), 0, "k must be >= 1"),
        ):
            with pytest.raises(ValueError, match=cause):
                repro.refine_partition(g, k, part_in, cfg)
