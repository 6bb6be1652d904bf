"""Tests for the rating-map structures (Section IV-A1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rating_map import (
    FixedCapacityHashTable,
    SparseArrayRatingMap,
)


class TestFixedCapacityHashTable:
    def test_insert_and_get(self):
        t = FixedCapacityHashTable(8)
        assert t.insert_add(5, 10)
        assert t.insert_add(5, 3)
        assert t.get(5) == 13
        assert t.get(99) == 0
        assert len(t) == 1

    def test_argmax(self):
        t = FixedCapacityHashTable(8)
        t.insert_add(1, 5)
        t.insert_add(2, 9)
        t.insert_add(3, 7)
        assert t.argmax() == (2, 9)

    def test_argmax_empty(self):
        assert FixedCapacityHashTable(4).argmax() == (-1, 0)

    def test_reports_full(self):
        t = FixedCapacityHashTable(2)  # capacity rounds to pow2; load <= 1/2
        inserted = 0
        full_seen = False
        for key in range(100):
            if t.insert_add(key, 1):
                inserted += 1
            else:
                full_seen = True
                break
        assert full_seen
        assert inserted >= 2

    def test_existing_key_updatable_when_full(self):
        t = FixedCapacityHashTable(2)
        keys = []
        for key in range(100):
            if not t.insert_add(key, 1):
                break
            keys.append(key)
        # updating an existing key still works at capacity
        assert t.insert_add(keys[0], 5)
        assert t.get(keys[0]) == 6

    def test_clear(self):
        t = FixedCapacityHashTable(8)
        t.insert_add(3, 1)
        t.clear()
        assert len(t) == 0
        assert t.get(3) == 0

    def test_items_match_inserts(self):
        t = FixedCapacityHashTable(32)
        expected = {}
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = int(rng.integers(0, 20))
            v = int(rng.integers(1, 10))
            if t.insert_add(k, v):
                expected[k] = expected.get(k, 0) + v
        keys, vals = t.items()
        assert dict(zip(keys.tolist(), vals.tolist())) == expected

    def test_nbytes_scales_with_capacity(self):
        assert FixedCapacityHashTable(64).nbytes > FixedCapacityHashTable(8).nbytes

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FixedCapacityHashTable(0)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 100)), max_size=40))
    @settings(max_examples=50)
    def test_matches_dict_semantics(self, ops):
        t = FixedCapacityHashTable(64)
        ref: dict[int, int] = {}
        for k, v in ops:
            if t.insert_add(k, v):
                ref[k] = ref.get(k, 0) + v
        for k in range(31):
            assert t.get(k) == ref.get(k, 0)


class TestSparseArrayRatingMap:
    def test_add_and_argmax(self):
        m = SparseArrayRatingMap(100, num_threads=2)
        m.add(0, 5, 10)
        m.add(1, 7, 20)
        m.add(0, 7, 5)
        assert m.argmax() == (7, 25)

    def test_first_writer_tracks_nonzero(self):
        """Only the thread raising 0 -> positive records the cluster."""
        m = SparseArrayRatingMap(50, num_threads=3)
        m.add(0, 9, 1)
        m.add(1, 9, 1)
        m.add(2, 9, 1)
        nz = m.nonzero_clusters()
        assert nz.tolist() == [9]

    def test_reset_clears_only_touched(self):
        m = SparseArrayRatingMap(1000, num_threads=1)
        m.add(0, 3, 7)
        m.add(0, 500, 9)
        m.reset()
        assert m.array[3] == 0 and m.array[500] == 0
        assert len(m.nonzero_clusters()) == 0
        # reusable afterwards
        m.add(0, 3, 1)
        assert m.argmax() == (3, 1)

    def test_flush_table_applies_and_clears(self):
        m = SparseArrayRatingMap(100, num_threads=2)
        t = FixedCapacityHashTable(8)
        t.insert_add(4, 6)
        t.insert_add(9, 2)
        m.flush_table(0, t)
        assert len(t) == 0
        assert m.array[4] == 6 and m.array[9] == 2
        assert sorted(m.nonzero_clusters().tolist()) == [4, 9]

    def test_flush_deduplicates_across_threads(self):
        m = SparseArrayRatingMap(100, num_threads=2)
        t0 = FixedCapacityHashTable(8)
        t1 = FixedCapacityHashTable(8)
        t0.insert_add(4, 6)
        t1.insert_add(4, 5)
        m.flush_table(0, t0)
        m.flush_table(1, t1)
        assert m.array[4] == 11
        assert m.nonzero_clusters().tolist() == [4]

    def test_atomic_op_counting(self):
        m = SparseArrayRatingMap(10, num_threads=1)
        m.add(0, 1, 1)
        m.add(0, 2, 1)
        assert m.atomic_ops == 2

    def test_nbytes_proportional_to_n(self):
        assert SparseArrayRatingMap(1000).nbytes == 8 * 1000
