"""Unit tests for pluggable schedule policies (repro.parallel.runtime)."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.coarsening.one_pass_contraction import contract_one_pass
from repro.core.config import terapart
from repro.core.context import PartitionContext
from repro.graph import generators as gen
from repro.parallel.runtime import SCHEDULE_POLICIES, ParallelRuntime
from repro.verify.conflicts import ConflictDetector


def _chunk_lists(runtime, order):
    """The chunks of a loop over ``order``, in the order they run."""
    bounds, _ = runtime.chunk_bounds(len(order))
    return [order[lo:hi].tolist() for lo, hi in bounds.tolist()]


def _run_order(runtime, count, **kwargs):
    """Indices of the chunks of a ``count``-position loop, in run order."""
    bounds, _ = runtime.chunk_bounds(count, **kwargs)
    return (bounds[:, 0] // runtime.chunk_size).tolist()


class TestExecutionOrder:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ParallelRuntime(2, schedule_policy="zigzag")

    def test_default_is_issue_order(self):
        rt = ParallelRuntime(2, chunk_size=4)
        assert _run_order(rt, 20) == list(range(5))

    def test_issue_policy_matches_default(self):
        order = np.arange(30)
        base = _chunk_lists(ParallelRuntime(2, chunk_size=4), order)
        issue = _chunk_lists(
            ParallelRuntime(2, chunk_size=4, schedule_policy="issue"), order
        )
        assert base == issue

    def test_reversed(self):
        rt = ParallelRuntime(2, chunk_size=4, schedule_policy="reversed")
        chunks = _chunk_lists(rt, np.arange(12))
        assert chunks == [[8, 9, 10, 11], [4, 5, 6, 7], [0, 1, 2, 3]]

    def test_random_is_seeded_and_reproducible(self):
        a = _chunk_lists(
            ParallelRuntime(2, chunk_size=4, schedule_policy="random", schedule_seed=5),
            np.arange(40),
        )
        b = _chunk_lists(
            ParallelRuntime(2, chunk_size=4, schedule_policy="random", schedule_seed=5),
            np.arange(40),
        )
        c = _chunk_lists(
            ParallelRuntime(2, chunk_size=4, schedule_policy="random", schedule_seed=6),
            np.arange(40),
        )
        assert a == b
        assert a != c

    def test_random_varies_per_region(self):
        rt = ParallelRuntime(2, chunk_size=2, schedule_policy="random", schedule_seed=1)
        order = np.arange(32)
        first = _chunk_lists(rt, order)
        second = _chunk_lists(rt, order)
        assert first != second  # fresh permutation per parallel region

    def test_heavy_first_uses_weights(self):
        rt = ParallelRuntime(2, chunk_size=2, schedule_policy="heavy-first")
        weights = np.array([1, 9, 3, 7])
        assert _run_order(rt, 8, weights=weights) == [1, 3, 2, 0]

    def test_heavy_first_falls_back_to_chunk_sizes(self):
        rt = ParallelRuntime(2, chunk_size=4, schedule_policy="heavy-first")
        # sizes 4, 4, 2: the short tail chunk runs last
        assert _run_order(rt, 10)[-1] == 2


class TestExecute:
    @pytest.mark.parametrize("policy", [None, *SCHEDULE_POLICIES])
    def test_every_item_executed_exactly_once(self, policy):
        rt = ParallelRuntime(3, chunk_size=5, schedule_policy=policy)
        order = np.random.default_rng(0).permutation(47)
        seen = np.concatenate(_chunk_lists(rt, order))
        assert sorted(seen.tolist()) == sorted(order.tolist())

    def test_owner_stays_attached_to_chunk(self):
        # reordering execution must not reassign chunks to other threads
        rt = ParallelRuntime(3, chunk_size=4, schedule_policy="reversed")
        bounds, tids = rt.chunk_bounds(24)
        chunks = (bounds[:, 0] // 4).tolist()
        assert chunks == [5, 4, 3, 2, 1, 0]
        assert tids.tolist() == [ci % 3 for ci in chunks]

    def test_announces_tid_to_detector(self):
        """One-pass contraction walks its bounds announcing each chunk's
        virtual thread; the region's barrier hands the thread back."""
        writes = []

        class Spy(ConflictDetector):
            def record_write(self, array, indices, tid=None):
                if array == "coarse-vwgt":
                    writes.append(self.current_tid)
                super().record_write(array, indices, tid)

        graph = gen.rgg2d(200, seed=1)
        runtime = ParallelRuntime(2, chunk_size=4, schedule_policy="issue")
        ctx = PartitionContext(terapart(seed=1), 2, graph.total_vertex_weight, runtime=runtime)
        det = Spy()
        runtime.attach_detector(det)
        clusters = np.arange(graph.n, dtype=np.int64) & ~1  # pairs (2i, 2i+1)
        weights = np.bincount(clusters, minlength=graph.n).astype(np.int64)
        out = contract_one_pass(graph, clusters, weights, ctx)
        assert out.coarse.n == 100
        assert writes == [i % 2 for i in range(25)]
        assert det.current_tid is None and det.clean
        # the walk reaches the runtime's thread slices once per chunk, under
        # its owner
        slices = [
            (t["phase"], t["tid"], t["chunks"], t["items"]) for t in runtime.thread_slices()
        ]
        assert slices == [("contraction", tid, 13 - tid, 52 - 4 * tid) for tid in (0, 1)]

    @pytest.mark.parametrize("leave", ["break", "raise"])
    def test_leaving_the_loop_early_hands_the_tid_back(self, leave):
        """After a break or a raise inside a region's chunk walk the code
        that follows is sequential: its accesses belong to no virtual
        thread."""
        rt = ParallelRuntime(2, chunk_size=4)
        det = ConflictDetector()
        rt.attach_detector(det)
        with pytest.raises(KeyError) if leave == "raise" else nullcontext():
            with rt.region("t"):
                _, tids = rt.chunk_bounds(16)
                for tid in tids.tolist():
                    det.current_tid = tid
                    if tid == 1:
                        if leave == "raise":
                            raise KeyError("inside the loop")
                        break
        assert det.current_tid is None
        det.record_write("shared", [0])
        assert det.accesses_recorded == 0

    def test_detach_returns_detector(self):
        rt = ParallelRuntime(2)
        det = ConflictDetector()
        rt.attach_detector(det)
        assert rt.detach_detector() is det
        assert rt.detector is None
