"""Rating-map data structures (Section IV-A1), the structures the paper's
pseudocode names, for :mod:`lp_reference` and the unit tests.

A *rating map* aggregates, for one vertex ``u``, the total edge weight from
``u`` into each neighboring cluster.  Two implementations exist in
KaMinPar/TeraPart:

* :class:`FixedCapacityHashTable` -- small linear-probing table, memory
  proportional to its capacity (two-phase LP uses capacity ``~T_bump`` per
  thread).
* :class:`SparseArrayRatingMap` -- an ``n``-entry array plus a non-zero list
  used to reset it; classic LP allocates **one per thread** (the ``O(n*p)``
  culprit), two-phase LP allocates exactly **one**, shared, updated with
  atomic fetch-adds (:class:`AtomicArray`).

The clustering round itself rates in C (``core/kernels/lp_kernel.c``, one
``n``-entry sparse array for either variant) while the driver charges the
tracker for whichever structure the configured variant would allocate, so
the ledger reflects the real footprints.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_full, tracked_zeros


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


class AtomicArray:
    """An int64 array supporting per-slot fetch-add (the sparse array ``A``).

    Backed by numpy; exposes both scalar fetch-add (faithful to Algorithm 2)
    and a bulk variant used by the hash-table flush, which applies a batch of
    (index, delta) pairs and reports which slots rose from zero -- the
    condition under which a thread appends the cluster to its local non-zero
    list ``L_t``.
    """

    def __init__(self, data: np.ndarray) -> None:
        if data.dtype != np.int64:
            raise TypeError(f"AtomicArray requires int64, got {data.dtype}")
        self._data = data
        self.op_count = 0

    @property
    def data(self) -> np.ndarray:
        return self._data

    def __len__(self) -> int:
        return len(self._data)

    def load(self, idx: int) -> int:
        return int(self._data[idx])

    def fetch_add(self, idx: int, delta: int) -> int:
        self.op_count += 1
        prev = int(self._data[idx])
        self._data[idx] = prev + delta
        return prev

    def bulk_fetch_add(
        self, indices: np.ndarray, deltas: np.ndarray
    ) -> np.ndarray:
        """Apply ``A[indices] += deltas``; return mask of slots that were 0.

        Duplicate indices within one batch are handled sequentially (as the
        individual atomic adds would be): only the *first* add that raises a
        slot from zero reports True for that slot.
        """
        self.op_count += len(indices)
        was_zero = tracked_zeros(len(indices), bool, name="atomic-was-zero")
        # np.add.at handles duplicates; we need per-op previous values only
        # to detect zero-crossings, so detect duplicates first.
        if len(indices) == 0:
            return was_zero
        unique, first_pos = np.unique(indices, return_index=True)
        zero_before = self._data[unique] == 0
        np.add.at(self._data, indices, deltas)
        was_zero[first_pos[zero_before]] = True
        return was_zero

    def reset(self, indices: np.ndarray) -> None:
        self._data[indices] = 0


class FixedCapacityHashTable:
    """Linear-probing int64->int64 map with fixed capacity (no growth).

    ``insert_add`` returns False when the table is full and the key is new --
    the signal two-phase LP uses to *bump* a vertex to the second phase.
    """

    __slots__ = ("capacity", "_keys", "_vals", "_size")

    EMPTY = -1

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = _next_pow2(2 * capacity)
        self._keys = tracked_full(
            self.capacity, self.EMPTY, np.int64, name="hash-table-keys"
        )
        self._vals = tracked_zeros(
            self.capacity, np.int64, name="hash-table-vals"
        )
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes + self._vals.nbytes

    def _slot(self, key: int) -> int:
        # multiplicative hashing; capacity is a power of two
        return (key * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF) % self.capacity

    def insert_add(self, key: int, delta: int) -> bool:
        """Add ``delta`` to ``key``'s value; False if full and key absent."""
        keys = self._keys
        i = self._slot(key)
        cap = self.capacity
        for _ in range(cap):
            k = keys[i]
            if k == key:
                self._vals[i] += delta
                return True
            if k == self.EMPTY:
                if self._size * 2 >= cap:  # keep load factor <= 1/2
                    return False
                keys[i] = key
                self._vals[i] = delta
                self._size += 1
                return True
            i = (i + 1) % cap
        return False

    def get(self, key: int, default: int = 0) -> int:
        keys = self._keys
        i = self._slot(key)
        for _ in range(self.capacity):
            k = keys[i]
            if k == key:
                return int(self._vals[i])
            if k == self.EMPTY:
                return default
            i = (i + 1) % self.capacity
        return default

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        mask = self._keys != self.EMPTY
        return self._keys[mask], self._vals[mask]

    def argmax(self) -> tuple[int, int]:
        """Return ``(key, value)`` with the maximum value; (-1, 0) if empty."""
        keys, vals = self.items()
        if len(keys) == 0:
            return -1, 0
        i = int(np.argmax(vals))
        return int(keys[i]), int(vals[i])

    def clear(self) -> None:
        self._keys.fill(self.EMPTY)
        self._vals.fill(0)
        self._size = 0


class SparseArrayRatingMap:
    """The ``n``-entry sparse-array rating map with a non-zero list.

    In two-phase LP a single instance is shared across threads; additions go
    through :class:`AtomicArray` fetch-adds and each virtual thread keeps its
    own non-zero buffer ``L_t``.  Only the thread whose add raised a slot
    from zero appends the cluster to its buffer, preventing duplicates in
    ``L = union L_t`` (Algorithm 2, lines 19-21).
    """

    def __init__(self, n: int, num_threads: int = 1) -> None:
        self._atomic = AtomicArray(
            tracked_zeros(n, np.int64, name="sparse-rating-array")
        )
        self._nonzero: list[list[int]] = [[] for _ in range(num_threads)]
        self.num_threads = num_threads

    @property
    def nbytes(self) -> int:
        return self._atomic.data.nbytes

    @property
    def array(self) -> np.ndarray:
        return self._atomic.data

    def add(self, tid: int, cluster: int, weight: int) -> None:
        prev = self._atomic.fetch_add(cluster, weight)
        if prev == 0:
            self._nonzero[tid].append(cluster)

    def flush_table(self, tid: int, table: FixedCapacityHashTable) -> None:
        """Apply a first-phase hash table's entries (the contention shield).

        The paper flushes the per-thread hash tables into the shared array in
        bulk to reduce the number of atomic increments.
        """
        keys, vals = table.items()
        was_zero = self._atomic.bulk_fetch_add(keys, vals)
        self._nonzero[tid].extend(keys[was_zero].tolist())
        table.clear()

    def nonzero_clusters(self) -> np.ndarray:
        if not any(self._nonzero):
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(b, dtype=np.int64) for b in self._nonzero if b]
        )

    def argmax(self) -> tuple[int, int]:
        clusters = self.nonzero_clusters()
        if len(clusters) == 0:
            return -1, 0
        vals = self._atomic.data[clusters]
        i = int(np.argmax(vals))
        return int(clusters[i]), int(vals[i])

    def reset(self) -> None:
        """Clear only the touched entries (O(#nonzero), not O(n))."""
        clusters = self.nonzero_clusters()
        self._atomic.reset(clusters)
        for b in self._nonzero:
            b.clear()

    @property
    def atomic_ops(self) -> int:
        return self._atomic.op_count
