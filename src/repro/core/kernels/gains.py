"""Bulk gain computation and sparse-gain-table hash kernels.

``move_gains`` scores a refinement chunk's candidate moves in one pass;
``two_way_gains`` / ``two_way_cut`` serve 2-way FM on the coarsest graphs;
``batch_hash_insert`` / ``batch_hash_probe`` vectorize the sparse gain
table's per-vertex linear-probing hash tables, replicating the scalar
probe sequence bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.graph.access import full_adjacency
from repro.memory.scratch import tracked_empty, tracked_full, tracked_zeros

#: Knuth multiplicative constant -- must match ``SparseGainTable._probe``.
HASH_MULT = 0x9E3779B1

#: gain-table entry widths and their value thresholds (w > log2(U))
_WIDTH_THRESHOLDS = np.int64(1) << np.array([8, 16, 32], dtype=np.int64)
_WIDTH_BITS = np.array([8, 16, 32, 64], dtype=np.int64)


def move_gains(
    po: np.ndarray,
    pb: np.ndarray,
    pr: np.ndarray,
    cur_of_owner: np.ndarray,
    num_owners: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gain of moving each chunk vertex to each adjacent block.

    ``(po, pb, pr)`` is the segment-reduced affinity list of one chunk
    (owner, block, affinity); ``cur_of_owner`` maps chunk-local owner
    index to its current block.  Returns ``(gain, is_current)`` aligned
    with the pair list: ``gain = affinity(b) - affinity(current block)``,
    with the current affinity 0 when the owner has no neighbor in its own
    block.
    """
    is_current = pb == cur_of_owner[po]
    cur_aff = tracked_zeros(num_owners, np.int64, name="move-gains-cur-aff")
    cur_aff[po[is_current]] = pr[is_current]
    return pr - cur_aff[po], is_current


def flat_adjacency(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` as a bisection workspace holds it, else decoded."""
    return getattr(graph, "flat", None) or full_adjacency(graph)


def two_way_gains(graph, part: np.ndarray) -> np.ndarray:
    """``gain[u] = w(edges to other side) - w(edges to own side)``, on a graph
    or a bisection workspace (whose held adjacency saves the expansion)."""
    gain = tracked_zeros(graph.n, np.int64, name="fm2way-gains")
    src, dst, w = flat_adjacency(graph)
    np.add.at(gain, src, np.where(part[dst] == part[src], -w, w))
    return gain


def two_way_cut(graph, part: np.ndarray) -> int:
    """Total weight of edges crossing a bipartition (graph or workspace)."""
    src, dst, w = flat_adjacency(graph)
    return int(w[part[dst] != part[src]].sum()) // 2


def entry_width_bits_bulk(total_incident_weight: np.ndarray) -> np.ndarray:
    """Vectorized ``entry_width_bits``: smallest w in {8,16,32,64} with
    ``U < 2**w`` (64 when none fits)."""
    u = np.asarray(total_incident_weight, dtype=np.int64)
    return _WIDTH_BITS[np.searchsorted(_WIDTH_THRESHOLDS, u, side="right")]


def batch_hash_insert(
    keys: np.ndarray,
    vals: np.ndarray,
    lo: np.ndarray,
    caps: np.ndarray,
    blocks: np.ndarray,
    deltas: np.ndarray,
    empty: int = -1,
) -> None:
    """Insert ``(block, delta)`` pairs into per-row linear-probing tables.

    ``lo``/``caps`` give each pair's row offset and capacity into the flat
    ``keys``/``vals`` arrays; pairs must arrive *grouped by row* in the
    row's insertion order, with distinct blocks per row and every target
    slot initially empty (the build-from-empty case).

    Exactness: a row's probe path depends only on the keys already placed
    in that row, so inserting in *rank waves* -- wave ``j`` places the
    ``j``-th pair of every row simultaneously (at most one pending pair
    per row, rows disjoint) -- replays the sequential per-row insertion
    order exactly, including the linear-probe steps.  A pair still unplaced
    after its wave has probed every slot of the widest row is in a full row:
    a ``RuntimeError``, as :func:`batch_hash_probe` raises.
    """
    m = len(blocks)
    if m == 0:
        return
    assert int(blocks.max()) <= np.iinfo(np.int32).max
    idx = np.arange(m, dtype=np.int64)
    first = tracked_empty(m, np.bool_, name="hash-insert-first")
    first[0] = True
    first[1:] = lo[1:] != lo[:-1]
    rank = idx - np.maximum.accumulate(np.where(first, idx, 0))
    pos = (blocks * HASH_MULT & 0xFFFFFFFF) % caps
    for j in range(int(rank.max()) + 1):
        sel = np.flatnonzero(rank == j)
        p = pos[sel]
        # a row's free slot, if it has one, is at most its capacity away
        for _ in range(int(caps[sel].max())):
            slot = lo[sel] + p
            occupied = keys[slot] != empty
            placeable = ~occupied
            if np.any(placeable):
                s = slot[placeable]
                keys[s] = blocks[sel[placeable]].astype(np.int32)
                vals[s] = deltas[sel[placeable]]
            sel = sel[occupied]
            p = (p[occupied] + 1) % caps[sel]
            if not len(sel):
                break
        if len(sel):
            raise RuntimeError("gain-table insert overran row capacity (table full?)")


def batch_hash_probe(
    keys: np.ndarray,
    lo: np.ndarray,
    caps: np.ndarray,
    blocks: np.ndarray,
    empty: int = -1,
) -> np.ndarray:
    """Slot index of ``blocks[i]`` in row ``i``'s table, or -1 if absent.

    Vectorized linear probing with the same hash and step as the scalar
    ``SparseGainTable._probe``; queries retire as they hit their key or an
    empty slot.
    """
    m = len(blocks)
    out = tracked_full(m, -1, np.int64, name="hash-probe-slot")
    if m == 0:
        return out
    live = np.arange(m, dtype=np.int64)
    p = (blocks * HASH_MULT & 0xFFFFFFFF) % caps
    steps = 0
    max_steps = int(caps.max())
    while len(live):
        slot = lo[live] + p
        k = keys[slot]
        found = k == blocks[live]
        out[live[found]] = slot[found]
        cont = (k != empty) & ~found
        live = live[cont]
        p = (p[cont] + 1) % caps[live]
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                "gain-table probe overran row capacity (table full?)"
            )
    return out
