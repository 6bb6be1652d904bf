"""Per-vertex scalar references for the bulk kernels (tests only).

The production tree has exactly one implementation of each hot phase --
the chunk kernels in :mod:`repro.core.kernels` and the bulk varint
encoder.  The oracle they are checked against lives here: one
same-signature sequential loop per kernel, written the way the phase
would read without numpy batching.  ``tests/test_kernels.py`` compares
each pair on edge cases; :func:`scalar_references` swaps the references
in for the kernels in every module that imported them, so
``tests/test_bulk_equivalence.py`` can run the whole pipeline on the
oracle and demand bit-identical partitions.
"""

from __future__ import annotations

import contextlib
import heapq
import sys
from collections import Counter, deque

import numpy as np
import pytest

import oracles
from repro.core.kernels.gains import HASH_MULT
from repro.core.refinement.gain_table import entry_width_bits


def scalar_commit(targets, prevs, weights, capacities, limits):
    """Sequential "move if the target still fits" loop."""
    per_bucket = isinstance(limits, np.ndarray)
    acc = np.ones(len(targets), dtype=bool)
    for i in range(len(targets)):
        t, w = int(targets[i]), int(weights[i])
        lim = int(limits[t]) if per_bucket else limits
        if capacities[t] + w > lim:
            acc[i] = False
            continue
        capacities[int(prevs[i])] -= w
        capacities[t] += w
    return acc


def brute_best(owner, rank, tiebreak=None):
    """Per owner, maximize (rank, tiebreak, position): one ``>=`` scan."""
    best: dict[int, tuple[tuple[int, int], int]] = {}
    for i, o in enumerate(np.asarray(owner).tolist()):
        key = (int(rank[i]), int(tiebreak[i]) if tiebreak is not None else 0)
        if o not in best or key >= best[o][0]:
            best[o] = (key, i)
    return np.array([best[o][1] for o in sorted(best)], dtype=np.int64)


def scalar_move_gains(po, pb, pr, cur_of_owner, num_owners):
    """gain = affinity(block) - affinity(current block), pair by pair."""
    cur_aff = [0] * num_owners
    for o, b, r in zip(po.tolist(), pb.tolist(), pr.tolist()):
        if b == int(cur_of_owner[o]):
            cur_aff[o] = r
    gain = np.array(
        [r - cur_aff[o] for o, r in zip(po.tolist(), pr.tolist())],
        dtype=np.int64,
    )
    is_current = np.array(
        [b == int(cur_of_owner[o]) for o, b in zip(po.tolist(), pb.tolist())],
        dtype=bool,
    )
    return gain, is_current


def _home_slot(block: int, cap: int) -> int:
    return (block * HASH_MULT & 0xFFFFFFFF) % cap


def scalar_hash_insert(keys, vals, lo, caps, blocks, deltas, empty=-1):
    """One linear-probing insert per pair, in pair order."""
    assert len(blocks) == 0 or int(blocks.max()) <= np.iinfo(np.int32).max
    for i in range(len(blocks)):
        base, cap, block = int(lo[i]), int(caps[i]), int(blocks[i])
        p = _home_slot(block, cap)
        while keys[base + p] != empty:
            p = (p + 1) % cap
        keys[base + p] = block
        vals[base + p] = deltas[i]


def scalar_hash_probe(keys, lo, caps, blocks, empty=-1):
    """Slot of ``blocks[i]`` in row ``i``'s table, or -1 if absent."""
    out = np.full(len(blocks), -1, dtype=np.int64)
    for i in range(len(blocks)):
        base, cap, block = int(lo[i]), int(caps[i]), int(blocks[i])
        p = _home_slot(block, cap)
        for _ in range(cap):
            k = keys[base + p]
            if k == block:
                out[i] = base + p
                break
            if k == empty:
                break
            p = (p + 1) % cap
    return out


def scalar_entry_widths(total_incident_weight):
    return np.array(
        [entry_width_bits(int(w)) for w in np.asarray(total_incident_weight).tolist()],
        dtype=np.int64,
    )


def scalar_encode_stream(values, lengths=None):
    out = bytearray()
    oracles.encode_stream(np.asarray(values, dtype=np.int64), out)
    return np.frombuffer(bytes(out), dtype=np.uint8)


def scalar_two_way_gains(graph, part):
    """gain[u] = w(edges to the other side) - w(edges to u's own side)."""
    n = graph.n
    gain = np.zeros(n, dtype=np.int64)
    for u in range(n):
        nbrs, wgts = graph.neighbors_and_weights(u)
        if len(nbrs) == 0:
            continue
        same = part[np.asarray(nbrs)] == part[u]
        w = np.asarray(wgts)
        gain[u] = int(w[~same].sum() - w[same].sum())
    return gain


def scalar_two_way_cut(graph, part):
    """Weight of the edges crossing a bipartition, vertex by vertex."""
    total = 0
    for u in range(graph.n):
        nbrs, wgts = graph.neighbors_and_weights(u)
        if len(nbrs) == 0:
            continue
        cross = part[np.asarray(nbrs)] != part[u]
        total += int(np.asarray(wgts)[cross].sum())
    return total // 2


# --------------------------------------------------------------------- #
# initial partitioning: the two seeding loops whose decisions the
# list-resident bisection workspace left alone, as they ran before it
# (numpy scalar subscripts, one accessor call per vertex), kept verbatim.
# 2-way FM and greedy graph growing have no reference: production no
# longer walks the way those loops did, and ``tests/test_initial_workspace
# .py`` holds them to properties instead.
# --------------------------------------------------------------------- #
def scalar_random_bipartition(graph, target_weight0, rng):
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    part = np.ones(n, dtype=np.int32)
    weight0 = 0
    for u in rng.permutation(n).tolist():
        if weight0 >= target_weight0:
            break
        part[u] = 0
        weight0 += int(vwgt[u])
    return part


def scalar_bfs_bipartition(graph, target_weight0, rng):
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    part = np.ones(n, dtype=np.int32)
    visited = np.zeros(n, dtype=bool)
    weight0 = 0
    order = rng.permutation(n)
    oi = 0
    q: deque[int] = deque()
    while weight0 < target_weight0:
        if not q:
            while oi < n and visited[order[oi]]:
                oi += 1
            if oi >= n:
                break
            q.append(int(order[oi]))
            visited[order[oi]] = True
        u = q.popleft()
        part[u] = 0
        weight0 += int(vwgt[u])
        for v in np.asarray(graph.neighbors(u)).tolist():
            if not visited[v]:
                visited[v] = True
                q.append(v)
    return part


def scalar_rebalance(pgraph, max_block_weight):
    """``rebalance`` as it read before the members of an overloaded block
    were scored in one chunk: one ``neighbors_and_weights(u)`` per member."""
    g = pgraph.graph
    vwgt = np.asarray(g.vwgt)
    part = pgraph.partition
    moves = 0
    max_block_weight = np.broadcast_to(
        np.asarray(max_block_weight, dtype=np.int64), (pgraph.k,)
    )

    overloaded = [
        b for b in range(pgraph.k) if pgraph.block_weights[b] > max_block_weight[b]
    ]
    for b in overloaded:
        members = np.flatnonzero(part == b)
        heap: list[tuple[int, int, int, int]] = []
        counter = 0
        for u in members.tolist():
            nbrs, wgts = g.neighbors_and_weights(u)
            nbrs = np.asarray(nbrs)
            wgts = np.asarray(wgts)
            if len(nbrs):
                blocks = part[nbrs]
                uniq, inv = np.unique(blocks, return_inverse=True)
                aff = np.zeros(len(uniq), dtype=np.int64)
                np.add.at(aff, inv, wgts)
                own = int(aff[np.searchsorted(uniq, b)]) if b in uniq else 0
                ext = [
                    (int(a), int(t)) for t, a in zip(uniq.tolist(), aff.tolist()) if t != b
                ]
                best_aff, best_t = max(ext) if ext else (0, -1)
            else:
                own, best_aff, best_t = 0, 0, -1
            loss = own - best_aff
            heapq.heappush(heap, (loss, counter, u, best_t))
            counter += 1

        while pgraph.block_weights[b] > max_block_weight[b] and heap:
            _, _, u, target = heapq.heappop(heap)
            if part[u] != b:
                continue
            w = int(vwgt[u])
            if (
                target >= 0
                and pgraph.block_weights[target] + w <= max_block_weight[target]
            ):
                pgraph.move(u, target)
                moves += 1
                continue
            headroom = max_block_weight - pgraph.block_weights
            lightest = int(np.argmax(headroom))
            if (
                lightest != b
                and pgraph.block_weights[lightest] + w <= max_block_weight[lightest]
            ):
                pgraph.move(u, lightest)
                moves += 1
    return moves


#: kernel name -> (home module, scalar reference)
REFERENCES = {
    "bulk_size_constrained_commit": ("repro.core.kernels.commit", scalar_commit),
    "segment_best_last": ("repro.core.kernels.segments", brute_best),
    "move_gains": ("repro.core.kernels.gains", scalar_move_gains),
    "batch_hash_insert": ("repro.core.kernels.gains", scalar_hash_insert),
    "batch_hash_probe": ("repro.core.kernels.gains", scalar_hash_probe),
    "entry_width_bits_bulk": ("repro.core.kernels.gains", scalar_entry_widths),
    "encode_stream_bulk": ("repro.graph.varint", scalar_encode_stream),
}


@contextlib.contextmanager
def scalar_references():
    """Run the body with every bulk kernel replaced by its scalar reference.

    The swap reaches each loaded ``repro.*`` module holding the kernel
    under its own name (``from ... import`` bindings included), and the
    test-side :mod:`oracles`.  The compiled LP round (``lp_kernel.c``) and
    the compiled packet encoder (``repro_encode_run``) replace the very
    pipelines those kernels form, so both are swapped for their numpy
    oracles for the body (:func:`oracles.installed`): the run is the numpy
    pipeline on the scalar references.  Yields a
    :class:`~collections.Counter` of reference calls so a caller can prove
    the oracle actually ran.
    """
    calls: Counter = Counter()

    def counted(name, ref):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return ref(*args, **kwargs)

        return wrapper

    with oracles.installed("lp", "encode"), pytest.MonkeyPatch.context() as mp:
        for name, (home, ref) in REFERENCES.items():
            original = getattr(sys.modules[home], name)
            holders = [
                mod
                for modname, mod in list(sys.modules.items())
                if (modname.startswith("repro") or modname == "oracles")
                and getattr(mod, name, None) is original
            ]
            assert len(holders) >= 2, name  # home + at least one caller
            wrapped = counted(name, ref)
            for mod in holders:
                mp.setattr(mod, name, wrapped)
        yield calls
