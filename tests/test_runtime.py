"""Unit tests for the virtual-thread scheduler (repro.parallel.runtime)."""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compression import compress_graph_parallel
from repro.parallel.runtime import ParallelRuntime


class TestSchedule:
    def test_covers_all_items_once(self):
        rt = ParallelRuntime(4, chunk_size=7)
        order = np.random.default_rng(0).permutation(100)
        bounds, _ = rt.chunk_bounds(len(order))
        seen = np.concatenate([order[lo:hi] for lo, hi in bounds.tolist()])
        assert np.array_equal(seen, order)

    def test_round_robin_ownership(self):
        rt = ParallelRuntime(3, chunk_size=10)
        _, tids = rt.chunk_bounds(45)
        assert tids.tolist() == [0, 1, 2, 0, 1]

    def test_empty_order(self):
        bounds, tids = ParallelRuntime(2).chunk_bounds(0)
        assert bounds.shape == (0, 2)
        assert len(tids) == 0

    def test_chunk_sizes(self):
        bounds, _ = ParallelRuntime(2, chunk_size=8).chunk_bounds(20)
        assert (bounds[:, 1] - bounds[:, 0]).tolist() == [8, 8, 4]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ParallelRuntime(0)
        with pytest.raises(ValueError):
            ParallelRuntime(1, chunk_size=0)

    def test_deterministic_wrt_p(self):
        """Chunk bounds depend only on the count and chunk_size, not p."""
        b4, _ = ParallelRuntime(4, chunk_size=6).chunk_bounds(50)
        b8, _ = ParallelRuntime(8, chunk_size=6).chunk_bounds(50)
        assert b4.tolist() == b8.tolist()


class TestScheduleBalanced:
    """The packets of ``compress_graph_parallel``: runs of consecutive
    vertices with similar edge counts, owned round-robin."""

    def test_covers_all_items(self):
        rt = ParallelRuntime(4, chunk_size=10)
        _, traces = compress_graph_parallel(gen.weblike(100, seed=1), rt)
        assert sum(t.num_vertices for t in traces) == 100
        assert all(t.num_vertices > 0 for t in traces)
        assert [t.thread_id for t in traces] == [i % 4 for i in range(len(traces))]

    def test_balances_heavy_items(self):
        # two chunks' worth of vertices, half the edges on the hub: the hub
        # gets a packet of its own
        _, traces = compress_graph_parallel(gen.star(200), ParallelRuntime(2, chunk_size=100))
        assert traces[0].num_vertices == 1
        assert sum(t.num_vertices for t in traces) == 200

    def test_empty(self):
        # no packet: cutting would divide the summed weight by zero chunks
        empty = from_edges(0, np.empty((0, 2), dtype=np.int64))
        cg, traces = compress_graph_parallel(empty, ParallelRuntime(3, chunk_size=64))
        assert (cg.n, bytes(cg.data), cg.offsets.tolist()) == (0, b"", [0])
        assert traces == []


class TestStats:
    def test_record_parallel_work(self):
        rt = ParallelRuntime(8)
        rt.record("phase", work=80.0)
        s = rt.all_stats()["phase"]
        assert s.work == 80.0
        assert s.span == 0.0  # no irreducible critical path recorded

    def test_sequential_work_tracked_separately(self):
        """A one-thread phase is its own phase with ``max_parallelism=1``."""
        rt = ParallelRuntime(8)
        rt.record("sequential", work=80.0, max_parallelism=1)
        rt.record("parallel", work=80.0)
        stats = rt.all_stats()
        assert stats["sequential"].work == stats["parallel"].work == 80.0
        assert stats["sequential"].max_parallelism == 1
        assert stats["parallel"].max_parallelism == float("inf")

    def test_explicit_span_accumulates(self):
        rt = ParallelRuntime(8)
        rt.record("phase", work=80.0, span=5.0)
        rt.record("phase", work=80.0, span=7.0)
        assert rt.all_stats()["phase"].span == 12.0

    def test_max_parallelism_takes_minimum(self):
        rt = ParallelRuntime(8)
        rt.record("phase", work=1.0, max_parallelism=16)
        rt.record("phase", work=1.0, max_parallelism=4)
        assert rt.all_stats()["phase"].max_parallelism == 4

    def test_record_chunks_aggregates_per_phase_and_tid(self):
        """One chunk walk reports once: per-(phase, tid) chunks, items and
        seconds, and the walk's totals into the phase's WorkStats."""
        rt = ParallelRuntime(3)
        rt.record_chunks(
            "lp", np.array([0, 0, 1]), np.array([512, 256, 128]), np.array([0.5, 0.25, 0.1]),
            work=900.0, bytes_moved=14400.0, atomic_ops=2,
        )  # fmt: skip
        rt.record_chunks("lp", np.array([1]), np.array([64]), np.array([0.125]), work=64.0)
        rt.record_chunks("walk", np.array([2]), np.array([7]), np.array([1.0]))
        rows = rt.thread_slices()
        assert [(t["phase"], t["tid"], t["chunks"], t["items"]) for t in rows] == [
            ("lp", 0, 2, 768),
            ("lp", 1, 2, 192),
            ("walk", 2, 1, 7),
        ]
        assert [t["seconds"] for t in rows] == pytest.approx([0.75, 0.225, 1.0])
        s = rt.all_stats()["lp"]
        assert (s.work, s.bytes_moved, s.atomic_ops, s.span) == (964.0, 14400.0, 2, 0.0)
        # a walk that books no cost adds no WorkStats entry
        assert "walk" not in rt.all_stats()

    def test_ledger_reads_are_copies_and_clear_starts_afresh(self):
        rt = ParallelRuntime(2)
        rt.record("x", work=10)
        rt.record_chunks("x", np.array([1]), np.array([4]), np.array([0.5]))
        stats, rows = rt.all_stats(), rt.thread_slices()
        rt.record("x", work=20)
        rt.clear_ledger()
        assert stats["x"].work == 10 and rows[0]["chunks"] == 1
        assert rt.all_stats() == {} and rt.thread_slices() == []

    def test_stats_accumulate(self):
        rt = ParallelRuntime(2)
        rt.record("x", work=10, bytes_moved=100, atomic_ops=3)
        rt.record("x", work=20, bytes_moved=200, atomic_ops=4)
        s = rt.all_stats()["x"]
        assert s.work == 30
        assert s.bytes_moved == 300
        assert s.atomic_ops == 7
