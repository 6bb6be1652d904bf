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
``apply_move``, ``nbytes`` and ``kernel_arrays`` (the arrays the compiled FM
pass, ``fm_kernel.c``, updates in place).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.kernels.gains import (
    batch_hash_insert,
    entry_width_bits_bulk,
)
from repro.graph.access import (
    chunk_adjacency,
    full_adjacency,
    segment_reduce_ratings,
)
from repro.memory.scratch import tracked_zeros


def entry_width_bits(total_incident_weight: int) -> int:
    """Smallest w in {8, 16, 32, 64} with ``w > log2(U)``."""
    for w in (8, 16, 32, 64):
        if total_incident_weight < (1 << w):
            return w
    return 64


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


class NoGainTable:
    """Gain "cache" that recomputes everything from scratch."""

    kind = "none"

    def __init__(self, pgraph, tracker=None) -> None:
        self._pgraph = pgraph
        self.recompute_edges = 0  # scratch-scan work, feeds the cost model
        self._aid = None

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

    def gains(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(blocks, gains) for all adjacent blocks of ``u``."""
        g = self._pgraph.graph
        nbrs, wgts = g.neighbors_and_weights(u)
        self.recompute_edges += len(nbrs)
        blocks = self._pgraph.partition[np.asarray(nbrs)]
        uniq, inv = np.unique(blocks, return_inverse=True)
        aff = tracked_zeros(len(uniq), np.int64, name="gain-recompute-aff")
        np.add.at(aff, inv, np.asarray(wgts))
        cur = int(self._pgraph.partition[u])
        cur_aff = int(aff[np.searchsorted(uniq, cur)]) if cur in uniq else 0
        return uniq, aff - cur_aff

    def gains_many(
        self, us: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`gains`: ``(owner, blocks, gains)`` pair lists.

        ``owner`` indexes into ``us``; blocks are ascending within each
        owner, exactly the per-vertex :meth:`gains` output concatenated.
        """
        us = np.asarray(us, dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        if len(us) == 0:
            return e, e, e
        g = self._pgraph.graph
        owner, nbrs, wgts = chunk_adjacency(g, us)
        self.recompute_edges += int(len(nbrs))
        if len(owner) == 0:
            return e, e, e
        part = self._pgraph.partition
        o, b, v = segment_reduce_ratings(
            owner, part[nbrs].astype(np.int64), wgts, self._pgraph.k
        )
        return o, b, v - _current_affinities(part, us, o, b, v)

    def apply_move(self, u: int, src: int, dst: int) -> None:
        pass  # nothing cached

    def kernel_arrays(self) -> tuple[None, None, None, None]:
        """``(keys, vals, offsets, dense)`` as the compiled FM pass takes a
        table: nothing cached."""
        return None, None, None, None

    def free(self, tracker=None) -> None:
        pass


def _current_affinities(part, us, o, b, v) -> np.ndarray:
    """Per-pair affinity of each owner's *current* block (0 when the owner
    has no neighbor in its own block)."""
    cur = part[us].astype(np.int64)
    iscur = b == cur[o]
    cur_aff = tracked_zeros(len(us), np.int64, name="gains-many-cur-aff")
    cur_aff[o[iscur]] = v[iscur]
    return cur_aff[o]


class FullGainTable:
    """Dense ``n x k`` affinity table (the standard implementation)."""

    kind = "full"

    def __init__(self, pgraph, tracker=None) -> None:
        self._pgraph = pgraph
        n, k = pgraph.graph.n, pgraph.k
        self._table = np.zeros((n, k), dtype=np.int64)
        src, dst, wgt = full_adjacency(pgraph.graph)
        np.add.at(self._table, (src, pgraph.partition[dst]), wgt)
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

    def gains(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        blocks = np.flatnonzero(self._table[u])
        cur = int(self._pgraph.partition[u])
        return blocks, self._table[u, blocks] - self._table[u, cur]

    def gains_many(
        self, us: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`gains` over the dense rows of ``us``."""
        us = np.asarray(us, dtype=np.int64)
        if len(us) == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        rows = self._table[us]
        o, b = np.nonzero(rows)
        o = o.astype(np.int64)
        b = b.astype(np.int64)
        v = rows[o, b]
        cur = self._pgraph.partition[us].astype(np.int64)
        return o, b, v - rows[o, cur[o]]

    def apply_move(self, u: int, src: int, dst: int) -> None:
        """Update neighbor affinities after ``u`` moved ``src -> dst``."""
        g = self._pgraph.graph
        nbrs, wgts = g.neighbors_and_weights(u)
        nbrs = np.asarray(nbrs)
        wgts = np.asarray(wgts)
        np.subtract.at(self._table, (nbrs, src), wgts)
        np.add.at(self._table, (nbrs, dst), wgts)

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
        caps = np.where(
            self._dense,
            k,
            np.maximum(2, 2 ** np.ceil(np.log2(2 * np.maximum(degrees, 1))).astype(np.int64)),
        ).astype(np.int64)
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(caps, out=self._offsets[1:])
        total = int(self._offsets[-1])
        self._caps = caps
        self._keys = np.full(total, self.EMPTY, dtype=np.int32)
        self._vals = np.zeros(total, dtype=np.int64)
        # one pass over the edges fills both the entry widths (from each
        # vertex's total incident weight) and the table itself
        src, dst, wgt = full_adjacency(g)
        inc = np.zeros(n, dtype=np.int64)
        np.add.at(inc, src, wgt)
        self._width_bits = entry_width_bits_bulk(inc)
        self.lock_acquisitions = 0
        self._build(src, dst, wgt)
        self._aid = (
            tracker.alloc("gain-table-sparse", self.nbytes, "gain-table")
            if tracker is not None
            else None
        )
        self._tracker = tracker

    # -- construction -------------------------------------------------- #
    def _build(self, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray) -> None:
        if len(src) == 0:
            return
        # aggregate all (vertex, block) affinities in one vectorized pass
        po, pb, pa = segment_reduce_ratings(
            src, self._pgraph.partition[dst].astype(np.int64), wgt, self._pgraph.k
        )
        # dense rows scatter directly; hash rows insert via the rank-wave
        # kernel, which reproduces the probe sequence of one `_insert_add`
        # per pair (pairs arrive grouped by vertex, blocks ascending)
        dense_pair = self._dense[po]
        if np.any(dense_pair):
            d = np.flatnonzero(dense_pair)
            self._vals[self._offsets[po[d]] + pb[d]] = pa[d]
        h = np.flatnonzero(~dense_pair)
        if len(h):
            # one lock acquisition per hash insert, as `_insert_add` counts;
            # aggregated affinities are > 0 (edge weights are positive), so
            # every pair lands as a fresh key
            self.lock_acquisitions += len(h)
            rows = po[h]
            batch_hash_insert(
                self._keys,
                self._vals,
                self._offsets[rows],
                self._caps[rows],
                pb[h],
                pa[h],
                empty=self.EMPTY,
            )

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

    def _insert_add(self, u: int, block: int, delta: int) -> None:
        if self._dense[u]:
            lo, _ = self._range(u)
            self._vals[lo + block] += delta
            return
        self.lock_acquisitions += 1
        slot = self._probe(u, block)
        if slot >= 0:
            self._vals[slot] += delta
            if self._vals[slot] == 0:
                self._delete_slot(u, slot)
            elif self._vals[slot] < 0:
                raise AssertionError(
                    f"negative affinity at vertex {u}, block {block}"
                )
        else:
            if delta == 0:
                return
            pos = -slot - 1
            self._keys[pos] = block
            self._vals[pos] = delta

    def _delete_slot(self, u: int, slot: int) -> None:
        """Backward-shift deletion: move up elements to close the gap [20]."""
        lo, hi = self._range(u)
        cap = hi - lo
        i = slot - lo
        self._keys[slot] = self.EMPTY
        self._vals[slot] = 0
        j = (i + 1) % cap
        while self._keys[lo + j] != self.EMPTY:
            k = int(self._keys[lo + j])
            home = (k * 0x9E3779B1 & 0xFFFFFFFF) % cap
            # can k move into the hole at i? yes iff home is cyclically
            # outside (i, j]
            if (j - home) % cap >= (j - i) % cap:
                self._keys[lo + i] = k
                self._vals[lo + i] = self._vals[lo + j]
                self._keys[lo + j] = self.EMPTY
                self._vals[lo + j] = 0
                i = j
            j = (j + 1) % cap
            if j == (slot - lo):
                break

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

    def gains(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        # one row read instead of a probe per adjacent block
        lo, hi = self._range(u)
        cur = int(self._pgraph.partition[u])
        if self._dense[u]:
            row = self._vals[lo:hi]
            blocks = np.flatnonzero(row)
            return blocks, row[blocks] - row[cur]
        keys = self._keys[lo:hi]
        mask = keys != self.EMPTY
        blocks = keys[mask].astype(np.int64)
        vals = self._vals[lo:hi][mask]
        order = np.argsort(blocks, kind="stable")
        blocks = blocks[order]
        vals = vals[order]
        j = int(np.searchsorted(blocks, cur))
        cur_aff = int(vals[j]) if j < len(blocks) and blocks[j] == cur else 0
        return blocks, vals - cur_aff

    def gains_many(
        self, us: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`gains`: gather every row of ``us`` in one pass."""
        us = np.asarray(us, dtype=np.int64)
        if len(us) == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        lo = self._offsets[us]
        cap = self._caps[us]
        total = int(cap.sum())
        owner = np.repeat(np.arange(len(us), dtype=np.int64), cap)
        seg = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(cap) - cap, cap
        )
        slots = np.repeat(lo, cap) + seg
        vals = self._vals[slots]
        dense_slot = np.repeat(self._dense[us], cap)
        slot_keys = self._keys[slots]
        # dense rows address blocks by slot position; hash rows by key
        block = np.where(dense_slot, seg, slot_keys.astype(np.int64))
        keep = np.where(dense_slot, vals != 0, slot_keys != self.EMPTY)
        o, b, v = owner[keep], block[keep], vals[keep]
        order = np.lexsort((b, o))
        o, b, v = o[order], b[order], v[order]
        return o, b, v - _current_affinities(self._pgraph.partition, us, o, b, v)

    def apply_move(self, u: int, src: int, dst: int) -> None:
        g = self._pgraph.graph
        nbrs, wgts = g.neighbors_and_weights(u)
        for v, w in zip(np.asarray(nbrs).tolist(), np.asarray(wgts).tolist()):
            self._insert_add(v, src, -w)
            self._insert_add(v, dst, w)

    def kernel_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, vals, offsets, dense)`` as the compiled FM pass takes a
        table: the slots, the row offsets and the dense-row flags, the slots
        updated in place by :meth:`_insert_add`'s probe and delete rules."""
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
