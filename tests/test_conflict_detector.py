"""Unit tests for the dynamic conflict detector (repro.verify.conflicts)."""

import numpy as np
import pytest

from rating_map import AtomicArray
from repro.verify.conflicts import ConflictDetector


@pytest.fixture
def det():
    d = ConflictDetector()
    d.begin_region("test-phase")
    return d


class TestWriteWrite:
    def test_different_threads_conflict(self, det):
        det.record_write("a", [3], tid=0)
        det.record_write("a", [3], tid=1)
        assert len(det.conflicts) == 1
        c = det.conflicts[0]
        assert (c.array, c.index, c.kind) == ("a", 3, "write-write")
        assert c.tids == (0, 1)
        assert c.phase == "test-phase"

    def test_same_thread_clean(self, det):
        det.record_write("a", [3, 4], tid=0)
        det.record_write("a", [3], tid=0)
        assert det.clean

    def test_disjoint_indices_clean(self, det):
        det.record_write("a", np.arange(0, 10), tid=0)
        det.record_write("a", np.arange(10, 20), tid=1)
        assert det.clean

    def test_different_arrays_clean(self, det):
        det.record_write("a", [3], tid=0)
        det.record_write("b", [3], tid=1)
        assert det.clean


class TestReadWrite:
    def test_read_then_write_conflicts(self, det):
        det.record_read("a", [7], tid=0)
        det.record_write("a", [7], tid=1)
        assert [c.kind for c in det.conflicts] == ["read-write"]

    def test_write_then_read_conflicts(self, det):
        det.record_write("a", [7], tid=0)
        det.record_read("a", [7], tid=1)
        assert [c.kind for c in det.conflicts] == ["read-write"]

    def test_read_read_clean(self, det):
        det.record_read("a", [7], tid=0)
        det.record_read("a", [7], tid=1)
        det.record_read("a", [7], tid=2)
        assert det.clean


class TestAtomic:
    def test_atomic_atomic_clean(self, det):
        det.record_atomic("w", [5], tid=0)
        det.record_atomic("w", [5], tid=1)
        assert det.clean

    def test_atomic_vs_plain_write_conflicts(self, det):
        det.record_atomic("w", [5], tid=0)
        det.record_write("w", [5], tid=1)
        assert [c.kind for c in det.conflicts] == ["atomic-write"]

    def test_plain_write_then_atomic_conflicts(self, det):
        det.record_write("w", [5], tid=0)
        det.record_atomic("w", [5], tid=1)
        assert [c.kind for c in det.conflicts] == ["atomic-write"]

    def test_atomic_vs_relaxed_read_clean(self, det):
        det.record_read("w", [5], tid=0)
        det.record_atomic("w", [5], tid=1)
        assert det.clean


class TestRegions:
    def test_region_boundary_clears_state(self, det):
        det.record_write("a", [1], tid=0)
        det.begin_region("next-round")
        det.record_write("a", [1], tid=1)  # barrier orders the two writes
        assert det.clean
        assert det.regions_checked == 2

    def test_no_current_tid_is_ignored(self):
        d = ConflictDetector()
        d.begin_region("seq")
        d.record_write("a", [1])  # sequential section: no tid announced
        d.record_write("a", [1])
        assert d.clean

    def test_current_tid_used_when_set(self):
        d = ConflictDetector()
        d.begin_region("r")
        d.current_tid = 0
        d.record_write("a", [1])
        d.current_tid = 1
        d.record_write("a", [1])
        assert len(d.conflicts) == 1

    def test_max_conflicts_cap(self):
        d = ConflictDetector(max_conflicts=3)
        d.begin_region("r")
        d.record_write("a", np.arange(10), tid=0)
        d.record_write("a", np.arange(10), tid=1)
        assert len(d.conflicts) == 3

    def test_summary_mentions_counts(self, det):
        det.record_write("a", [1, 2], tid=0)
        assert "no conflicts" in det.summary()
        det.record_write("a", [1], tid=1)
        assert "1 conflict" in det.summary()
        assert "a[1]" in det.summary()


class TestAtomicsIntegration:
    def test_atomic_array_conflicts_with_plain_write(self):
        d = ConflictDetector()
        d.begin_region("r")
        arr = AtomicArray(np.zeros(8, dtype=np.int64), detector=d, name="A")
        d.current_tid = 0
        arr.fetch_add(3, 1)
        arr.bulk_fetch_add(np.array([4, 5]), np.array([1, 1]))
        d.current_tid = 1
        d.record_write("A", [3])
        assert [c.kind for c in d.conflicts] == ["atomic-write"]
