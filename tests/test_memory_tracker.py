"""Unit tests for the allocation ledger (repro.memory.tracker) and the
tracked scratch constructors that charge it (repro.memory.scratch)."""

import gc

import numpy as np
import pytest

from repro.memory.scratch import (
    install_ledger,
    tracked_empty,
    tracked_full,
    tracked_zeros,
    uninstall_ledger,
)
from repro.memory.tracker import PAGE_SIZE, MemoryTracker, NullTracker


class TestBasicAccounting:
    def test_alloc_free_roundtrip(self):
        t = MemoryTracker()
        aid = t.alloc("buf", 1000)
        assert t.current_bytes == 1000
        t.free(aid)
        assert t.current_bytes == 0

    def test_peak_tracks_maximum(self):
        t = MemoryTracker()
        a = t.alloc("a", 100)
        b = t.alloc("b", 200)
        t.free(a)
        c = t.alloc("c", 50)
        assert t.peak_bytes == 300
        t.free(b)
        t.free(c)
        assert t.peak_bytes == 300
        assert t.current_bytes == 0

    def test_negative_size_rejected(self):
        t = MemoryTracker()
        with pytest.raises(ValueError):
            t.alloc("bad", -1)

    def test_double_free_raises(self):
        t = MemoryTracker()
        aid = t.alloc("x", 10)
        t.free(aid)
        with pytest.raises(KeyError):
            t.free(aid)

    def test_resize(self):
        t = MemoryTracker()
        aid = t.alloc("grow", 100)
        t.resize(aid, 500)
        assert t.current_bytes == 500
        assert t.peak_bytes == 500
        t.resize(aid, 50)
        assert t.current_bytes == 50
        assert t.peak_bytes == 500

    def test_breakdown_by_category(self):
        t = MemoryTracker()
        t.alloc("g", 100, "graph")
        t.alloc("c", 200, "clustering")
        t.alloc("c2", 300, "clustering")
        assert t.breakdown() == {"graph": 100, "clustering": 500}

    def test_peak_breakdown_snapshot(self):
        t = MemoryTracker()
        a = t.alloc("a", 1000, "graph")
        t.free(a)
        t.alloc("b", 10, "aux")
        assert t.peak_breakdown == {"graph": 1000}


class TestOvercommit:
    def test_overcommit_charges_touched_plus_page(self):
        t = MemoryTracker()
        aid = t.alloc("big", 10**9, "graph", overcommit=True)
        assert t.current_bytes == PAGE_SIZE
        t.touch(aid, 5000)
        assert t.current_bytes == 5000 + PAGE_SIZE

    def test_touch_is_monotone(self):
        t = MemoryTracker()
        aid = t.alloc("big", 10**6, overcommit=True)
        t.touch(aid, 5000)
        t.touch(aid, 100)  # shrink is a no-op (pages stay mapped)
        assert t.current_bytes == 5000 + PAGE_SIZE

    def test_touch_beyond_reservation_rejected(self):
        t = MemoryTracker()
        aid = t.alloc("big", 1000, overcommit=True)
        with pytest.raises(ValueError):
            t.touch(aid, 2000)

    def test_touch_ordinary_allocation_rejected(self):
        t = MemoryTracker()
        aid = t.alloc("plain", 100)
        with pytest.raises(ValueError):
            t.touch(aid, 50)

    def test_charge_capped_at_virtual_size(self):
        t = MemoryTracker()
        aid = t.alloc("tight", 1000, overcommit=True)
        t.touch(aid, 1000)
        # touched + page would exceed the reservation; charge caps there
        assert t.current_bytes == 1000

    def test_resize_overcommitted_rejected(self):
        t = MemoryTracker()
        aid = t.alloc("oc", 100, overcommit=True)
        with pytest.raises(ValueError):
            t.resize(aid, 50)


class TestPhases:
    def test_phase_peaks_are_scoped(self):
        t = MemoryTracker()
        with t.phase("a"):
            x = t.alloc("x", 100)
            t.free(x)
        with t.phase("b"):
            t.alloc("y", 50)
        assert t.phase_peak("a") == 100
        assert t.phase_peak("b") == 50

    def test_nested_phases_aggregate(self):
        t = MemoryTracker()
        with t.phase("outer"):
            with t.phase("inner1"):
                a = t.alloc("a", 100)
                t.free(a)
            with t.phase("inner2"):
                t.alloc("b", 300)
        assert t.phase_peak("outer") == 300
        assert t.phase_peak("outer/inner1") == 100
        assert t.phase_peak("outer/inner2") == 300

    def test_live_allocation_attributed_to_later_phase(self):
        # allocations surviving across phases count in subsequent peaks
        t = MemoryTracker()
        t.alloc("persistent", 1000)
        with t.phase("later"):
            pass
        assert t.phase_peak("later") == 1000

    def test_unknown_phase_peak_is_zero(self):
        t = MemoryTracker()
        assert t.phase_peak("nope") == 0

    def test_current_phase_path(self):
        t = MemoryTracker()
        assert t.current_phase == ""
        with t.phase("a"):
            with t.phase("b"):
                assert t.current_phase == "a/b"
            assert t.current_phase == "a"


class TestLeakDetection:
    def test_assert_empty_passes_when_clean(self):
        t = MemoryTracker()
        aid = t.alloc("x", 10)
        t.free(aid)
        t.assert_empty()

    def test_assert_empty_raises_on_leak(self):
        t = MemoryTracker()
        t.alloc("leaky", 10)
        with pytest.raises(AssertionError, match="leaky"):
            t.assert_empty()

    def test_assert_empty_honours_ignored_categories(self):
        t = MemoryTracker()
        t.alloc("g", 10, "graph")
        t.assert_empty(ignore_categories=("graph",))


class TestNullTracker:
    def test_null_tracker_records_nothing(self):
        t = NullTracker()
        aid = t.alloc("x", 10**12)
        t.touch(aid, 10)
        t.resize(aid, 20)
        t.free(aid)
        assert t.current_bytes == 0
        assert t.peak_bytes == 0


class TestTrackedScratch:
    def setup_method(self):
        uninstall_ledger()

    def teardown_method(self):
        uninstall_ledger()

    def test_no_ledger_plain_numpy(self):
        arr = tracked_empty(100, np.int64, name="x")
        assert arr.shape == (100,) and arr.dtype == np.int64

    def test_charges_and_frees_with_array_lifetime(self):
        tracker = MemoryTracker()
        install_ledger(tracker)
        arr = tracked_zeros(1000, np.int64, name="scratch-buf")
        assert tracker.current_bytes == arr.nbytes
        assert tracker.peak_bytes >= 8000
        del arr
        gc.collect()
        assert tracker.current_bytes == 0

    def test_full_and_values(self):
        tracker = MemoryTracker()
        install_ledger(tracker)
        arr = tracked_full(10, 7, np.int64, name="f")
        assert arr.tolist() == [7] * 10
        assert tracker.current_bytes == 80

    def test_uninstall_stops_charging(self):
        tracker = MemoryTracker()
        install_ledger(tracker)
        uninstall_ledger()
        _ = tracked_empty(1000, np.int64)
        assert tracker.current_bytes == 0
