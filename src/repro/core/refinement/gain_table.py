"""Gain tables for FM refinement (Section V).

A gain table caches, per vertex ``u`` and block ``V_i``, the *affinity*
``w(u, V_i) = sum of weights of edges from u into V_i``.  The gain of moving
``u`` to ``V_i`` is then ``w(u, V_i) - w(u, Pi(u))``.  Three strategies,
matching Figure 7:

* :class:`NoGainTable` -- recompute affinities from scratch on every query
  (2.7x slower on average in the paper; order-of-magnitude on 67 instances).
* :class:`FullGainTable` -- the standard dense ``n x k`` table, ``O(nk)``
  memory.
* :class:`SparseGainTable` -- the paper's ``O(m)`` table: vertices with
  ``deg(v) >= k`` keep a dense ``k``-entry row; low-degree vertices use tiny
  fixed-capacity linear-probing hash tables of ``Theta(deg(v))`` slots, with
  *variable entry width* (8/16/32/64 bits) chosen as the smallest
  ``w > log2(U)`` where ``U`` is the vertex's total incident edge weight.
  Deletions (affinity dropping to zero) backward-shift elements to close the
  probe gap, so each table is guarded by a (simulated) spinlock.

All tables share one interface: ``affinity``, ``adjacent_blocks``,
``nbytes`` and ``kernel_arrays`` (the arrays the compiled FM pass,
``fm_kernel.c``, reads and updates in place: the gain queries and the
updates after a move are the kernel's) -- and ``seeds``, the boundary
vertices of the partition it was built from, which the round's pass starts
from.  The full and sparse tables are filled by one compiled call, which
lists the seeds in the same walk (:func:`fm_kernel.build_table`).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.refinement import fm_kernel


def entry_width_bits(total_incident_weight: int) -> int:
    """Smallest w in {8, 16, 32, 64} with ``w > log2(U)``."""
    for w in (8, 16, 32, 64):
        if total_incident_weight < (1 << w):
            return w
    return 64


class NoGainTable:
    """Gain "cache" that recomputes everything from scratch."""

    kind = "none"

    def __init__(self, pgraph, tracker=None) -> None:
        self._pgraph = pgraph
        self.recompute_edges = 0  # scratch-scan work, feeds the cost model
        self._aid = None
        self.seeds = fm_kernel.boundary_vertices(pgraph)

    @property
    def nbytes(self) -> int:
        return 0

    def affinity(self, u: int, block: int) -> int:
        g = self._pgraph.graph
        nbrs, wgts = g.neighbors_and_weights(u)
        self.recompute_edges += len(nbrs)
        mask = self._pgraph.partition[np.asarray(nbrs)] == block
        return int(np.asarray(wgts)[mask].sum())

    def adjacent_blocks(self, u: int) -> np.ndarray:
        g = self._pgraph.graph
        nbrs = np.asarray(g.neighbors(u))
        self.recompute_edges += len(nbrs)
        return np.unique(self._pgraph.partition[nbrs])

    def kernel_arrays(self) -> tuple[None, None, None, None]:
        """``(keys, vals, offsets, dense)`` as the compiled FM pass takes a
        table: nothing cached."""
        return None, None, None, None

    def free(self, tracker=None) -> None:
        pass


class FullGainTable:
    """Dense ``n x k`` affinity table (the standard implementation)."""

    kind = "full"

    def __init__(self, pgraph, tracker=None) -> None:
        self._pgraph = pgraph
        n, k = pgraph.graph.n, pgraph.k
        self._table = np.zeros((n, k), dtype=np.int64)
        _, self.seeds = fm_kernel.build_table(self)
        self._aid = (
            tracker.alloc("gain-table-full", self._table.nbytes, "gain-table")
            if tracker is not None
            else None
        )
        self._tracker = tracker

    @property
    def nbytes(self) -> int:
        return self._table.nbytes

    def affinity(self, u: int, block: int) -> int:
        return int(self._table[u, block])

    def adjacent_blocks(self, u: int) -> np.ndarray:
        return np.flatnonzero(self._table[u])

    def kernel_arrays(self) -> tuple[None, np.ndarray, None, None]:
        """``(keys, vals, offsets, dense)`` as the compiled FM pass takes a
        table: the ``n x k`` rows, updated in place."""
        return None, self._table, None, None

    def free(self, tracker=None) -> None:
        t = tracker or self._tracker
        if t is not None and self._aid is not None:
            t.free(self._aid)
            self._aid = None


class SparseGainTable:
    """The paper's ``O(m)``-memory gain table.

    Low-degree vertices (``deg < k``) get a linear-probing hash table with
    ``capacity = next_pow2(2 * deg)`` slots; high-degree vertices a dense
    ``k``-entry row.  All slots live in two contiguous arrays (keys/values)
    addressed through a per-vertex offset -- mirroring the paper's single
    contiguous allocation with per-vertex pointers and per-vertex entry
    width.  ``nbytes`` reports the *modelled* footprint with variable-width
    entries; the backing numpy arrays are int64/int32 for simplicity.
    """

    kind = "sparse"

    EMPTY = -1

    def __init__(self, pgraph, tracker=None) -> None:
        self._pgraph = pgraph
        g = pgraph.graph
        n, k = g.n, pgraph.k
        degrees = np.asarray(g.degrees)
        self._dense = degrees >= k
        # a hash row's capacity by degree, looked up: degrees below
        # min(k, max degree + 1), then k for a dense row
        top = min(k, int(degrees.max(initial=0)) + 1)
        per_degree = np.maximum(1, np.arange(top, dtype=np.int64))
        lookup = np.append(
            np.maximum(2, 2 ** np.ceil(np.log2(2 * per_degree)).astype(np.int64)), k
        )
        caps = lookup[np.minimum(degrees, top)]
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(caps, out=self._offsets[1:])
        total = int(self._offsets[-1])
        self._caps = caps
        self._keys = np.full(total, self.EMPTY, dtype=np.int32)
        self._vals = np.zeros(total, dtype=np.int64)
        # one kernel call fills the slots and the entry widths (from each
        # vertex's total incident weight) and lists the seeds
        self._width_bits = np.empty(n, dtype=np.int64)
        self.lock_acquisitions, self.seeds = fm_kernel.build_table(self)
        self._aid = (
            tracker.alloc("gain-table-sparse", self.nbytes, "gain-table")
            if tracker is not None
            else None
        )
        self._tracker = tracker

    # -- slot arithmetic ------------------------------------------------ #
    def _range(self, u: int) -> tuple[int, int]:
        return int(self._offsets[u]), int(self._offsets[u + 1])

    def _probe(self, u: int, block: int) -> int:
        """Slot index of ``block`` in u's table, or -(insert_pos+1)."""
        lo, hi = self._range(u)
        cap = hi - lo
        i = (block * 0x9E3779B1 & 0xFFFFFFFF) % cap
        for _ in range(cap):
            slot = lo + i
            k = self._keys[slot]
            if k == block:
                return slot
            if k == self.EMPTY:
                return -(slot + 1)
            i = (i + 1) % cap
        raise RuntimeError(f"gain table for vertex {u} is full (degree bound violated?)")

    # -- interface ------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Modelled footprint: per-slot variable-width value + offsets.

        Dense rows store only values (direct-indexed); hash slots store a
        4-byte key plus the variable-width value.
        """
        widths = self._width_bits // 8
        caps = self._caps
        value_bytes = int(np.sum(caps * widths))
        key_bytes = int(np.sum(caps[~self._dense] * 4))
        return value_bytes + key_bytes + self._offsets.nbytes

    def width_mix(self) -> dict[int, int]:
        """Vertex count per entry width in bits (the paper's width mix)."""
        bits, counts = np.unique(self._width_bits, return_counts=True)
        return {int(b): int(c) for b, c in zip(bits.tolist(), counts.tolist())}

    def affinity(self, u: int, block: int) -> int:
        if self._dense[u]:
            lo, _ = self._range(u)
            return int(self._vals[lo + block])
        slot = self._probe(u, block)
        return int(self._vals[slot]) if slot >= 0 else 0

    def adjacent_blocks(self, u: int) -> np.ndarray:
        lo, hi = self._range(u)
        if self._dense[u]:
            return np.flatnonzero(self._vals[lo:hi])
        mask = self._keys[lo:hi] != self.EMPTY
        return np.sort(self._keys[lo:hi][mask].astype(np.int64))

    def kernel_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, vals, offsets, dense)`` as the compiled FM pass takes a
        table: the slots, the row offsets and the dense-row flags, the slots
        updated in place by the kernel's probe and backward-shift delete
        rules (:meth:`_probe`'s hash and probe order)."""
        return self._keys, self._vals, self._offsets, self._dense

    def free(self, tracker=None) -> None:
        t = tracker or self._tracker
        if t is not None and self._aid is not None:
            t.free(self._aid)
            self._aid = None


@contextmanager
def gain_table_for_round(kind, pgraph, ctx):
    """One FM round's table: built under the ``gain-table-build`` span, its
    footprint (and width mix, if it has one) reported, freed on exit."""
    tracer = ctx.tracer
    with tracer.span("gain-table-build"):
        table = make_gain_table(kind, pgraph, ctx.tracker)
    if tracer.enabled:
        tracer.add("gain_table.bytes", table.nbytes)
        mix = getattr(table, "width_mix", None)
        if mix is not None:
            for bits, count in mix().items():
                tracer.add(f"gain_table.width{bits}_rows", count)
    try:
        yield table
    finally:
        table.free(ctx.tracker)


def make_gain_table(kind, pgraph, tracker=None):
    """Factory keyed by :class:`repro.core.config.GainTableKind` or str."""
    name = getattr(kind, "value", kind)
    if name == "none":
        return NoGainTable(pgraph, tracker)
    if name == "full":
        return FullGainTable(pgraph, tracker)
    if name == "sparse":
        return SparseGainTable(pgraph, tracker)
    raise KeyError(f"unknown gain table kind {kind!r}")
