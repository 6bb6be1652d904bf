"""Unit tests for the atomic sparse array of the reference rating map
(``rating_map.AtomicArray``)."""

import numpy as np
import pytest

from rating_map import AtomicArray


class TestAtomicArray:
    def test_requires_int64(self):
        with pytest.raises(TypeError):
            AtomicArray(np.zeros(4, dtype=np.int32))

    def test_fetch_add_returns_previous(self):
        a = AtomicArray(np.zeros(4, dtype=np.int64))
        assert a.fetch_add(2, 5) == 0
        assert a.fetch_add(2, 3) == 5
        assert a.load(2) == 8

    def test_bulk_fetch_add_matches_scalar(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 50, size=200)
        deltas = rng.integers(1, 10, size=200)
        bulk = AtomicArray(np.zeros(50, dtype=np.int64))
        scalar = AtomicArray(np.zeros(50, dtype=np.int64))
        bulk_zero = bulk.bulk_fetch_add(idx, deltas)
        scalar_zero = np.zeros(200, dtype=bool)
        for i, (j, d) in enumerate(zip(idx.tolist(), deltas.tolist())):
            scalar_zero[i] = scalar.fetch_add(j, d) == 0
        assert np.array_equal(bulk.data, scalar.data)
        # first-writer-tracks semantics: same *set* of tracked slots
        assert set(idx[bulk_zero].tolist()) == set(idx[scalar_zero].tolist())
        # and each slot tracked exactly once
        assert len(idx[bulk_zero]) == len(set(idx[bulk_zero].tolist()))

    def test_bulk_fetch_add_empty(self):
        a = AtomicArray(np.zeros(4, dtype=np.int64))
        out = a.bulk_fetch_add(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert len(out) == 0

    def test_bulk_duplicate_indices_tracked_once(self):
        a = AtomicArray(np.zeros(4, dtype=np.int64))
        idx = np.array([1, 1, 1], dtype=np.int64)
        deltas = np.array([2, 3, 4], dtype=np.int64)
        was_zero = a.bulk_fetch_add(idx, deltas)
        assert a.load(1) == 9
        assert was_zero.sum() == 1
        assert was_zero[0]  # the first occurrence is the tracker

    def test_reset(self):
        a = AtomicArray(np.arange(5, dtype=np.int64))
        a.reset(np.array([1, 3]))
        assert a.data.tolist() == [0, 0, 2, 0, 4]
