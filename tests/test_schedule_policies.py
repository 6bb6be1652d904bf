"""Unit tests for pluggable schedule policies (repro.parallel.runtime)."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.parallel.runtime import SCHEDULE_POLICIES, ParallelRuntime
from repro.verify.conflicts import ConflictDetector


def _chunk_lists(runtime, order):
    sched = runtime.schedule(order)
    return [c.tolist() for _, c in runtime.execute(sched)]


class TestExecutionOrder:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ParallelRuntime(2, schedule_policy="zigzag")

    def test_default_is_issue_order(self):
        rt = ParallelRuntime(2, chunk_size=4)
        sched = rt.schedule(np.arange(20))
        order = rt.execution_order(sched)
        assert order.tolist() == list(range(sched.num_chunks))

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
        sched = rt.schedule(np.arange(8))
        weights = np.array([1, 9, 3, 7])
        order = rt.execution_order(sched, weights=weights)
        assert order.tolist() == [1, 3, 2, 0]

    def test_heavy_first_falls_back_to_chunk_sizes(self):
        rt = ParallelRuntime(2, chunk_size=4, schedule_policy="heavy-first")
        sched = rt.schedule(np.arange(10))  # sizes 4, 4, 2
        order = rt.execution_order(sched)
        assert order.tolist()[-1] == 2  # the short tail chunk runs last

    def test_default_order_passthrough_without_policy(self):
        rt = ParallelRuntime(2, chunk_size=4)
        sched = rt.schedule(np.arange(12))
        custom = np.array([2, 0, 1])
        assert rt.execution_order(sched, default=custom).tolist() == [2, 0, 1]

    def test_policy_overrides_default_order(self):
        rt = ParallelRuntime(2, chunk_size=4, schedule_policy="reversed")
        sched = rt.schedule(np.arange(12))
        custom = np.array([2, 0, 1])
        assert rt.execution_order(sched, default=custom).tolist() == [2, 1, 0]


class TestExecute:
    @pytest.mark.parametrize("policy", [None, *SCHEDULE_POLICIES])
    def test_every_item_executed_exactly_once(self, policy):
        rt = ParallelRuntime(3, chunk_size=5, schedule_policy=policy)
        order = np.random.default_rng(0).permutation(47)
        sched = rt.schedule(order)
        seen = np.concatenate([c for _, c in rt.execute(sched)])
        assert sorted(seen.tolist()) == sorted(order.tolist())

    def test_owner_stays_attached_to_chunk(self):
        # reordering execution must not reassign chunks to other threads
        rt = ParallelRuntime(3, chunk_size=4, schedule_policy="reversed")
        sched = rt.schedule(np.arange(24))
        executed = list(rt.execute(sched))
        by_chunk = {tuple(c.tolist()): tid for tid, c in executed}
        for ci, chunk in enumerate(sched.chunks):
            assert by_chunk[tuple(chunk.tolist())] == ci % 3

    def test_announces_tid_to_detector(self):
        rt = ParallelRuntime(2, chunk_size=4)
        det = ConflictDetector()
        rt.attach_detector(det)
        det.begin_region("t")
        seen_tids = []
        sched = rt.schedule(np.arange(16))
        for tid, _chunk in rt.execute(sched):
            assert det.current_tid == tid
            seen_tids.append(tid)
        assert det.current_tid is None
        assert seen_tids == [0, 1, 0, 1]

    @pytest.mark.parametrize("leave", ["break", "raise"])
    def test_leaving_the_loop_early_hands_the_tid_back(self, leave):
        """After a break or a raise inside the loop the code that follows is
        sequential: its accesses belong to no virtual thread."""
        rt = ParallelRuntime(2, chunk_size=4)
        det = ConflictDetector()
        rt.attach_detector(det)
        det.begin_region("t")
        with pytest.raises(KeyError) if leave == "raise" else nullcontext():
            for tid, _chunk in rt.execute(rt.schedule(np.arange(16))):
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
