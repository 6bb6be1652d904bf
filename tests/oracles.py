"""The numpy and Python twins the compiled kernels replaced, kept as their
reference: every kernel == oracle test compares against the functions here.

Each hot phase runs one compiled kernel in production (``graph/_native.py``
builds them or raises).  The code here is what those phases ran before,
moved here unchanged but for the seam: the LP drivers' numpy chunk
pipelines, distributed LP's picks, the numpy contraction step, the codec's
scalar VarInt routines, per-vertex block codec and numpy chunk decoder and
run encoder, k-way FM's Python pass with the gain
tables' Python queries and updates, the tables' numpy build and the numpy
seed scan, and initial partitioning's list loops,
Python attempt pool, subgraph extraction, bisection recursion and deep
multilevel's per-block split round.

:func:`installed` puts them in the drivers' place for the body of a
``with``: it swaps every loaded ``repro.*`` binding of a kernel entry for
the twin with its contract, so ``partition()``, ``dpartition()`` and the
service run on the oracles end to end.
"""

from __future__ import annotations

import contextlib
import heapq
import importlib
import math
import pkgutil
import sys
import time
from collections import deque
from heapq import heapify, heappop, heappush

import numpy as np
import pytest

import repro
from repro.core.initial import bipartition, deep, fm2way, recursive
from repro.core.initial.recursive import POOL, POOL_SIGMAS
from repro.core.initial.workspace import _weights, fm_patience
from repro.core.kernels import (
    aggregate_coarse_edges,
    bulk_size_constrained_commit,
    gather_cluster_members,
    lp_chunk,
    move_gains,
    segment_best_last,
    two_way_cut,
    two_way_gains,
)
from repro.core.kernels.gains import batch_hash_insert, entry_width_bits_bulk
from repro.core.kernels.lp_chunk import NANOS
from repro.core.refinement import fm_kernel
from repro.graph import _native, compressed
from repro.graph.access import (
    chunk_adjacency,
    full_adjacency,
    installed_tracer,
    segment_reduce_ratings,
)
from repro.graph.compressed import (
    MIN_INTERVAL_LEN,
    CompressedGraph,
    CompressionConfig,
    CompressionStats,
    _refuse,
    _sort_rows,
    split_intervals,
)
from repro.graph.csr import CSRGraph, _ones_like_view
from repro.graph.varint import (
    MAX_VARINT64_BYTES,
    _assemble_payloads,
    _decode_spans,
    as_byte_array,
    decode_varint,
    encode_stream_bulk,
    varint_lengths,
    zigzag_encode,
)
from repro.core.partition import PartitionedGraph
from repro.memory.scratch import (
    tracked_empty,
    tracked_full,
    tracked_ones,
    tracked_slots,
    tracked_zeros,
)


# --------------------------------------------------------------------- #
# label propagation: the numpy chunk pipelines and their rounds
# --------------------------------------------------------------------- #
def clustering_step(graph, clusters, cluster_weights, max_cluster_weight):
    """The numpy pipeline of one chunk: ``step(chunk)`` with the contract of
    ``clustering_step`` in ``tests/test_lp_kernel.py`` (the kernel's round
    over one chunk)."""
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    none = np.empty(0, dtype=np.int64)

    def step(chunk):
        owner, nbrs, wgts = chunk_adjacency(graph, chunk)
        if len(owner) == 0:
            return None
        pair_owner, pair_cluster, pair_rating = segment_reduce_ratings(
            owner, clusters[nbrs], wgts, n
        )
        # nc(u): distinct neighbor clusters per chunk vertex
        nc = np.bincount(pair_owner, minlength=len(chunk))

        u_of_pair = chunk[pair_owner]
        fits = cluster_weights[pair_cluster] + vwgt[u_of_pair] <= max_cluster_weight
        is_current = pair_cluster == clusters[u_of_pair]
        # rank: rating first, keep-bonus on ties, then a seeded
        # pseudo-random jitter -- LP must break remaining ties
        # randomly or mesh clusters snake toward extreme IDs
        jitter = (
            ((pair_cluster * 0x9E3779B1) ^ (u_of_pair * 0x85EBCA6B)) >> 7
        ) & 0x3F
        rank = ((2 * pair_rating + is_current) << 6) | jitter

        # unconstrained favorite per owner
        fav_pairs = segment_best_last(pair_owner, rank)
        fav_us, fav = u_of_pair[fav_pairs], pair_cluster[fav_pairs]

        # constrained best per owner over the same segments:
        # ranks are >= 0, so a pair that does not fit wins only
        # where none fits, and that owner has no target
        ok = fits | is_current
        best = segment_best_last(pair_owner, np.where(ok, rank, -1))
        best = best[ok[best]]
        if len(best) == 0:
            return len(owner), fav_us, fav, nc, 0, none
        best_cluster = pair_cluster[best]

        # commit sequentially (atomic weight updates in the
        # paper); re-check the cap because earlier commits in
        # this chunk may have filled the target cluster
        us = u_of_pair[best]
        cur = clusters[us]
        want_move = best_cluster != cur
        # safe-target commits apply with one scatter-add;
        # contended targets replay in order inside the kernel
        mv_us = us[want_move]
        mv_tgt = best_cluster[want_move]
        acc = bulk_size_constrained_commit(
            mv_tgt,
            cur[want_move],
            vwgt[mv_us],
            cluster_weights,
            max_cluster_weight,
        )
        acc_us = mv_us[acc]
        clusters[acc_us] = mv_tgt[acc]
        return len(owner), fav_us, fav, nc, len(best), acc_us

    return step


def refinement_step(graph, part, block_weights, max_block_weight):
    """The numpy pipeline of one chunk: ``step(chunk)`` with the contract of
    ``refinement_step`` in ``tests/test_lp_kernel.py`` (``max_block_weight``
    one limit a block)."""
    g = graph
    k = len(block_weights)
    vwgt = np.asarray(g.vwgt)
    none = np.empty(0, dtype=np.int64)

    def step(chunk):
        owner, nbrs, wgts = chunk_adjacency(g, chunk)
        if len(owner) == 0:
            return None
        po, pb, pr = segment_reduce_ratings(
            owner, part[nbrs].astype(np.int64), wgts, k
        )
        us = chunk[po]
        # gain of moving owner to block pb = pr - affinity(current block)
        cur_of_owner = part[chunk].astype(np.int64)
        gain, is_current = move_gains(po, pb, pr, cur_of_owner, len(chunk))
        fits = block_weights[pb] + vwgt[us] <= max_block_weight[pb]
        ok = fits & ~is_current & (gain > 0)
        if not np.any(ok):
            return len(owner), none
        po2, pb2, g2 = po[ok], pb[ok], gain[ok]
        best = segment_best_last(po2, g2)
        # commit against the real block-weight array; the kernel replays
        # contended blocks in candidate order
        mv_us = chunk[po2[best]]
        mv_tgt = pb2[best]
        acc = bulk_size_constrained_commit(
            mv_tgt,
            part[mv_us].astype(np.int64),
            vwgt[mv_us],
            block_weights,
            max_block_weight,
        )
        acc_us = mv_us[acc]
        part[acc_us] = mv_tgt[acc].astype(np.int32)
        return len(owner), acc_us

    return step


class OracleRound:
    """A round entry of ``lp_kernel.c`` on a chunk step: ``round(order,
    bounds, moved)`` runs ``step`` over the chunks in order and returns
    their stats rows."""

    def __init__(self, step, row) -> None:
        self.step, self._row = step, row

    def __call__(self, order, bounds, moved=None) -> np.ndarray:
        bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 2)
        stats = np.zeros((len(bounds), NANOS + 1), dtype=np.int64)
        at = 0
        for i, (lo, hi) in enumerate(bounds.tolist()):
            t0 = time.perf_counter_ns()
            out = self.step(order[lo:hi])
            stats[i, NANOS] = time.perf_counter_ns() - t0
            if out is None:  # no edge in this chunk
                continue
            stats[i, :NANOS], movers = self._row(out)
            if moved is not None:
                moved[at : at + len(movers)] = movers
                at += len(movers)
        return stats


def clustering_round(
    graph, vwgt, clusters, cluster_weights, max_cluster_weight, maps, favorites, t_bump: int
):
    """:func:`repro.core.kernels.lp_chunk.clustering_round` on the oracle
    (which reads ``vwgt``, the graph's, off the graph)."""
    step = clustering_step(graph, clusters, cluster_weights, max_cluster_weight)

    def row(out):
        edges, fav_us, fav, nc, targets, moved = out
        favorites[fav_us] = fav
        bumped = nc >= t_bump
        return (edges, targets, len(moved), int(bumped.sum()), int(nc[bumped].sum())), moved

    return OracleRound(step, row)


def refinement_round(graph, vwgt, part, block_weights, limits):
    """:func:`repro.core.kernels.lp_chunk.refinement_round` on the oracle
    (which reads ``vwgt``, the graph's, off the graph)."""
    step = refinement_step(graph, part, block_weights, limits)
    return OracleRound(step, lambda out: ((out[0], 0, len(out[1]), 0, 0), out[1]))


# --------------------------------------------------------------------- #
# distributed LP's picks
# --------------------------------------------------------------------- #
def cluster_pick(graph, labels, weights, max_cluster_weight):
    """``pick(mine)`` of clustering in numpy: the oracle of
    :func:`~repro.core.kernels.lp_chunk.cluster_pick_step`."""
    vwgt = np.asarray(graph.vwgt)

    def pick(mine):
        owner, nbr, w = chunk_adjacency(graph, mine)
        po, pl, ratings = segment_reduce_ratings(owner, labels[nbr], w, graph.n)
        # ties favor the current label, then a jitter keyed by batch position
        is_current = pl == labels[mine][po]
        jitter = ((pl * 0x9E3779B1) ^ (po * 0x85EBCA6B)) >> 7 & 0x3F
        best = segment_best_last(po, ((2 * ratings + is_current) << 6) | jitter)
        us, pl = mine[po[best]], pl[best]
        move = (pl != labels[us]) & (weights[pl] + vwgt[us] <= max_cluster_weight)
        return us[move], pl[move]

    return pick


def refine_pick(graph, part, block_weights, k, max_block_weight):
    """``pick(mine)`` of refinement in numpy: the oracle of
    :func:`~repro.core.kernels.lp_chunk.refine_pick_step`."""
    vwgt = np.asarray(graph.vwgt)

    def pick(mine):
        owner, nbr, w = chunk_adjacency(graph, mine)
        po, pb, ratings = segment_reduce_ratings(owner, part[nbr], w, k)
        gain, is_cur = move_gains(po, pb, ratings, part[mine], len(mine))
        fits = block_weights[pb] + vwgt[mine[po]] <= max_block_weight
        ok = fits & ~is_cur & (gain > 0)
        po, pb = po[ok], pb[ok]
        best = segment_best_last(po, gain[ok])
        return mine[po[best]], pb[best]

    return pick


def cluster_pick_step(graph, clusters, cluster_weights, max_cluster_weight, maps):
    """:func:`repro.core.kernels.lp_chunk.cluster_pick_step` on the oracle."""
    return cluster_pick(graph, clusters, cluster_weights, max_cluster_weight)


def refine_pick_step(graph, part, block_weights, max_block_weight):
    """:func:`repro.core.kernels.lp_chunk.refine_pick_step` on the oracle."""
    return refine_pick(graph, part, block_weights, len(block_weights), max_block_weight)


# --------------------------------------------------------------------- #
# contraction: the numpy step and the argsort grouping
# --------------------------------------------------------------------- #
def contraction_step(graph, labels: np.ndarray, label_count: int):
    """:func:`repro.core.kernels.lp_chunk.contraction_step` in numpy: flatten
    the member lists into one gather, read the members' adjacency, and
    aggregate it into coarse edges with a sort-based segment reduction,
    group ``g`` keyed by ``g``; the pairs are copied into ``out`` if given."""

    def step(members, groups, out=None):
        groups = np.asarray(groups, dtype=np.int64)
        count = len(groups) - 1
        keys = np.arange(count)
        members, owner = gather_cluster_members(
            members, groups[:-1] - groups[0], groups[1:] - groups[0], keys
        )
        member, nbrs, wgts = chunk_adjacency(graph, members)
        po, pc, pw, _ = aggregate_coarse_edges(
            owner[member], labels[nbrs], wgts, keys, label_count, count
        )
        if out is not None and len(pc):
            out[:, : len(pc)] = pc, pw
            pc, pw = out[0, : len(pc)], out[1, : len(pc)]
        return len(member), np.bincount(po, minlength=count), pc, pw

    return step


def group_by_label(labels: np.ndarray, label_count: int):
    """:func:`repro.core.kernels.lp_chunk.group_by_label` as the stable
    argsort it equals."""
    members = np.argsort(labels, kind="stable")
    offsets = np.searchsorted(labels[members], np.arange(label_count + 1))
    return members, offsets


# --------------------------------------------------------------------- #
# the codec: scalar VarInts, the per-vertex block codec, numpy chunk decode
# and run encode
# --------------------------------------------------------------------- #
def varint_len(value: int) -> int:
    """Number of bytes :func:`encode_varint` produces for ``value``."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    n = 1
    value >>= 7
    while value:
        n += 1
        value >>= 7
    return n


def encode_varint(value: int, out: bytearray) -> int:
    """Append the VarInt encoding of ``value`` to ``out``; return byte count."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    n = 0
    while True:
        byte = value & 0x7F
        value >>= 7
        n += 1
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return n


def encode_signed_varint(value: int, out: bytearray) -> int:
    """Append a signed VarInt (sign bit in bit 0 of the first byte)."""
    # The paper stores "an additional sign bit"; we fold it into the
    # least-significant bit so small magnitudes stay small either way.
    zz = ((-value) << 1) | 1 if value < 0 else value << 1
    return encode_varint(zz, out)


def decode_signed_varint(buf, pos: int) -> tuple[int, int]:
    zz, pos = decode_varint(buf, pos)
    value = zz >> 1
    if zz & 1:
        value = -value
    return value, pos


def encode_stream(values: np.ndarray, out: bytearray) -> int:
    """Append VarInt encodings of every element of ``values``; return bytes."""
    total = 0
    append = out.append
    for v in values.tolist():
        if v < 0:
            raise ValueError(f"varint cannot encode negative value {v}")
        while True:
            byte = v & 0x7F
            v >>= 7
            total += 1
            if v:
                append(byte | 0x80)
            else:
                append(byte)
                break
    return total


def decode_stream(buf, pos: int, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` VarInts starting at ``buf[pos:]``."""
    out = tracked_empty(count, np.int64, name="varint-decode-values")
    for i in range(count):
        result = 0
        shift = 0
        while True:
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        out[i] = result
    return out, pos


def zigzag_decode(zz: np.ndarray) -> np.ndarray:
    """Vectorized inverse of the signed-VarInt sign fold (bit 0 = sign)."""
    zz = np.asarray(zz, dtype=np.int64)
    mag = zz >> 1
    return np.where(zz & 1, -mag, mag)


def decode_stream_bulk(buf, pos: int, count: int) -> tuple[np.ndarray, int]:
    """Byte-parallel equivalent of :func:`decode_stream`.

    Scans a window of the buffer for terminator bytes, widening it until
    ``count`` values are covered (streams average well under two bytes per
    value, so the initial guess of two bytes/value almost always suffices).
    """
    if count == 0:
        return np.empty(0, dtype=np.int64), pos
    data = as_byte_array(buf)
    limit = min(len(data), pos + count * MAX_VARINT64_BYTES)
    hi = min(limit, pos + 2 * count + 8)
    while True:
        window = data[pos:hi]
        term = np.flatnonzero((window & 0x80) == 0)
        if len(term) >= count or hi >= limit:
            break
        hi = limit
    if len(term) < count:
        raise ValueError("varint stream truncated (corrupt stream?)")
    ends = term[:count]
    starts = tracked_empty(count, np.int64, name="varint-span-starts")
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    nbytes = int(ends[-1]) + 1
    values = _decode_spans(window[:nbytes], starts, lengths)
    return values, pos + nbytes


#: a signed value whose sign fold fits 63 bits lies strictly inside +-2^62
_FOLD_LIMIT = 1 << 62


def _weight_gaps(w: np.ndarray, row_head: np.ndarray | None = None) -> np.ndarray:
    """Signed weight gaps in int64, wrapping like the decoder's cumsum;
    ``row_head`` marks the entries whose gap is taken against 0."""
    gaps = np.diff(w, prepend=np.int64(0))
    if row_head is not None:
        gaps[row_head] = w[row_head]
    return gaps


def encode_block(
    u: int,
    nbrs: np.ndarray,
    wgts: np.ndarray | None,
    out: bytearray,
    cfg: CompressionConfig,
    stats: CompressionStats,
) -> None:
    """Encode one chunk (or whole low-degree neighborhood)."""
    gaps = None
    if wgts is not None:
        gaps = _weight_gaps(np.asarray(wgts, dtype=np.int64))
        if np.any((gaps >= _FOLD_LIMIT) | (gaps <= -_FOLD_LIMIT)):
            _refuse(u, _native.ENCODE_WEIGHT)
    if cfg.enable_intervals:
        intervals, residuals = split_intervals(nbrs)
        encode_varint(len(intervals), out)
        prev_end = None
        for left, length in intervals:
            if prev_end is None:
                encode_signed_varint(left - u, out)
            else:
                encode_varint(left - prev_end, out)
            encode_varint(length - MIN_INTERVAL_LEN, out)
            prev_end = left + length
        stats.num_intervals += len(intervals)
        stats.num_interval_edges += int(len(nbrs) - len(residuals))
    else:
        residuals = nbrs
    prev = None
    for v in residuals.tolist():
        if prev is None:
            encode_signed_varint(v - u, out)
        else:
            encode_varint(v - prev - 1, out)
        prev = v
    if gaps is not None:
        before = len(out)
        for gap in gaps.tolist():
            encode_signed_varint(gap, out)
        stats.weight_bytes += len(out) - before


def encode_neighborhood(
    u: int,
    nbrs: np.ndarray,
    wgts: np.ndarray | None,
    first_edge_id: int,
    out: bytearray,
    cfg: CompressionConfig,
    stats: CompressionStats,
) -> None:
    """Encode one full neighborhood (header + chunks) into ``out``.

    ``nbrs`` must be sorted; a repeat in it, or a weight gap whose sign
    fold does not fit 63 bits, raises a ``ValueError`` naming ``u``.
    """
    if len(nbrs) > 1 and np.any(nbrs[1:] == nbrs[:-1]):
        _refuse(u, _native.ENCODE_DUPLICATE)
    before = len(out)
    encode_varint(first_edge_id, out)
    stats.header_bytes += len(out) - before
    deg = len(nbrs)
    stats.num_neighborhoods += 1
    if deg == 0:
        return
    if deg <= cfg.high_degree_threshold:
        encode_block(u, nbrs, wgts, out, cfg, stats)
        return
    stats.num_chunked_vertices += 1
    scratch = bytearray()
    for start in range(0, deg, cfg.chunk_length):
        end = min(start + cfg.chunk_length, deg)
        scratch.clear()
        encode_block(
            u,
            nbrs[start:end],
            None if wgts is None else wgts[start:end],
            scratch,
            cfg,
            stats,
        )
        encode_varint(len(scratch), out)
        out.extend(scratch)


def decode_block(
    u: int,
    buf,
    pos: int,
    count: int,
    cfg: CompressionConfig,
    weighted: bool,
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Decode one chunk of ``count`` neighbors starting at ``buf[pos]``."""
    nbrs = tracked_empty(count, np.int64, name="decode-block-nbrs")
    idx = 0
    if cfg.enable_intervals:
        num_intervals, pos = decode_varint(buf, pos)
        prev_end = None
        for _ in range(num_intervals):
            if prev_end is None:
                delta, pos = decode_signed_varint(buf, pos)
                left = u + delta
            else:
                gap, pos = decode_varint(buf, pos)
                left = prev_end + gap
            length_off, pos = decode_varint(buf, pos)
            length = length_off + MIN_INTERVAL_LEN
            if length > count - idx:  # a corrupt stream must not size the arange
                raise ValueError("interval lengths exceed degree (corrupt stream?)")
            nbrs[idx : idx + length] = np.arange(left, left + length)
            idx += length
            prev_end = left + length
    n_res = count - idx
    res_start = idx
    prev = None
    for _ in range(n_res):
        if prev is None:
            delta, pos = decode_signed_varint(buf, pos)
            v = u + delta
        else:
            gap, pos = decode_varint(buf, pos)
            v = prev + gap + 1
        nbrs[idx] = v
        idx += 1
        prev = v
    # The interval stream and the residual stream are each sorted but were
    # written interval-first; sorting the merged IDs restores the original
    # sorted neighbor order.  Weights were encoded against that sorted
    # order, so the weight stream below aligns with the sorted IDs as-is.
    if cfg.enable_intervals and 0 < res_start < count:
        nbrs.sort(kind="stable")
    wgts = None
    if weighted:
        wgts = tracked_empty(count, np.int64, name="decode-block-wgts")
        prev_w = 0
        for i in range(count):
            dw, pos = decode_signed_varint(buf, pos)
            prev_w += dw
            wgts[i] = prev_w
    return nbrs, wgts, pos


def neighborhood(graph, u: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Vertex ``u``'s neighbors and weights (``None``: unit weights) by the
    per-vertex block decoder, chunk by chunk above the chunking threshold:
    the scalar reference every decode of the compiled codec is checked
    against."""
    buf, cfg, weighted = graph.data, graph.config, graph.has_edge_weights
    fe, pos = decode_varint(buf, int(graph.offsets[u]))
    deg = graph.first_edge_id(u + 1) - fe
    if deg == 0:
        return np.empty(0, dtype=np.int64), (np.empty(0, dtype=np.int64) if weighted else None)
    if deg <= cfg.high_degree_threshold:
        nbrs, wgts, _ = decode_block(u, buf, pos, deg, cfg, weighted)
        return nbrs, wgts
    parts: list[np.ndarray] = []
    wparts: list[np.ndarray] = []
    remaining = deg
    while remaining:
        count = min(cfg.chunk_length, remaining)
        chunk_bytes, pos = decode_varint(buf, pos)
        nbrs, wgts, end = decode_block(u, buf, pos, count, cfg, weighted)
        if end - pos != chunk_bytes:
            raise ValueError(
                f"chunk length mismatch at vertex {u}: "
                f"declared {chunk_bytes}, consumed {end - pos}"
            )
        pos = end
        parts.append(nbrs)
        if wgts is not None:
            wparts.append(wgts)
        remaining -= count
    return np.concatenate(parts), (np.concatenate(wparts) if wparts else None)


def decode_hub(graph, u: int) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`neighborhood` of a vertex above the chunking threshold, as the
    numpy chunk decoder splices it in.  A corrupt header can make any vertex
    look like one; its bytes are then not chunk-encoded, and whatever the
    block decoder trips over is reported as the stream's fault."""
    try:
        nbrs, wgts = neighborhood(graph, u)
    except (IndexError, MemoryError, OverflowError, ValueError) as exc:
        raise ValueError(
            f"chunked neighborhood of vertex {u} does not decode: {exc} (corrupt header?)"
        ) from exc
    if len(nbrs) and not 0 <= int(nbrs.min()) <= int(nbrs.max()) < graph.n:
        raise ValueError(f"neighbor id out of range at vertex {u} (corrupt stream?)")
    return nbrs, wgts


def adjacency_blocks(graph, block_size: int = 4096):
    """Yield ``(src, dst, weight)`` blocks that together cover every edge
    once: a CSR graph is one zero-copy block, a compressed graph is decoded
    ``block_size`` consecutive vertices at a time; ``src`` ascends within and
    across blocks.  The reference walk of the cut and of the seed scan."""
    if hasattr(graph, "indptr"):
        yield full_adjacency(graph)
        return
    for start in range(0, graph.n, block_size):
        chunk = np.arange(start, min(start + block_size, graph.n), dtype=np.int64)
        owner, nbrs, wgts = chunk_adjacency(graph, chunk)
        yield owner + start, nbrs, wgts


def crossing_weight(graph, labels: np.ndarray, block_size: int = 4096) -> int:
    """:meth:`CompressedGraph.crossing_weight` (``repro_crossing_weight``)
    as numpy: the crossing edges' weights, block by block of the
    adjacency."""
    return sum(
        int(wgt[labels[src] != labels[dst]].sum())
        for src, dst, wgt in adjacency_blocks(graph, block_size)
    )


def decode_chunk_oracle(
    self, chunk: np.ndarray, degs: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    C = len(chunk)
    owner = np.repeat(np.arange(C, dtype=np.int64), degs)
    # runs of simple vertices are decoded in bulk; the chunked vertices
    # between them go through the per-vertex block decoder
    parts = []
    a = 0
    hubs = np.flatnonzero(degs > self.config.high_degree_threshold).tolist()
    for h in [*hubs, C]:
        if h > a:
            parts.append(decode_chunk_simple(self, chunk[a:h], degs[a:h]))
        if h < C:
            parts.append(decode_hub(self, int(chunk[h])))
        a = h + 1
    nbrs, wgts = parts[0]
    if len(parts) > 1:
        nbrs = np.concatenate([p[0] for p in parts])
        if wgts is not None:
            wgts = np.concatenate([p[1] for p in parts])
    if wgts is None:
        wgts = _ones_like_view(total)
    return owner, nbrs, wgts


#: a reader fault of one VarInt, named as ``graph/neighborhood.h`` names it
_TRUNCATED, _TOO_LONG = 1, 2
_FAULTS = {
    _TRUNCATED: "varint truncated (corrupt stream?)",
    _TOO_LONG: "varint too long (corrupt stream?)",
}


def _row_values(block: np.ndarray, gstart: np.ndarray):
    """Every VarInt of the rows gathered in ``block`` (row ``i`` from byte
    ``gstart[i]`` on): ``(values, starts, fault)``.  A value ends at its
    terminator or at its row's last byte, so none runs into the next row;
    ``fault`` is ``_TRUNCATED`` for a value its row cuts short,
    ``_TOO_LONG`` for one whose tenth byte is not the terminator 0x00 (the
    compiled reader's two refusals), else 0.  A faulty value reads 0."""
    if not len(block):
        e = np.empty(0, dtype=np.int64)
        return e, e, e.astype(np.int8)
    last = (block & 0x80) == 0
    last[np.append(gstart[1:], len(block)) - 1] = True
    ends = np.flatnonzero(last)
    starts = tracked_empty(len(ends), np.int64, name="varint-span-starts")
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    tail = block[ends]
    fault = np.where(tail & 0x80, _TRUNCATED, 0).astype(np.int8)
    full = MAX_VARINT64_BYTES
    fault[(lengths > full) | ((lengths == full) & (tail != 0))] = _TOO_LONG
    values = _assemble_payloads(block.astype(np.int64), starts, lengths)
    values[fault != 0] = 0
    return values, starts, fault


def _raise_fault(fault, first_val, lo, hi) -> None:
    """Raise the first reader fault among row ``i``'s values ``[lo[i], hi[i])``."""
    at = np.flatnonzero(fault)
    if len(at):
        row = np.searchsorted(first_val, at, side="right") - 1
        inside = at[(lo[row] <= at) & (at < hi[row])]
        if len(inside):
            raise ValueError(_FAULTS[int(fault[inside[0]])])


def decode_chunk_simple(
    self, chunk: np.ndarray, degs: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized decode of non-chunked neighborhoods.

    One byte gather, one terminator mask, one VarInt assembly over the
    whole region; then the interval/residual/weight sub-streams of every
    vertex are located arithmetically and undone with shared segmented
    cumsums instead of per-vertex loops.  Every segmented index is
    ``repeat(base - cum, counts) + arange(total)``: one repeat a gather.

    A corrupt row is refused section by section, in the order
    ``graph/neighborhood.h`` reads it: header and intervals, residuals,
    weights, then the value count -- so a bad residual is named ahead of a
    bad weight VarInt wherever the two sit.  Within a section, and between
    two faulty rows, the code may differ from the compiled decoder's.
    """
    weighted = self._has_edge_weights
    C = len(chunk)
    total = int(degs.sum())
    byte_start = self.offsets[chunk]
    byte_len = self.offsets[chunk + 1] - byte_start
    tot_b = int(byte_len.sum())
    gstart = np.cumsum(byte_len) - byte_len
    if C and int(chunk[-1] - chunk[0]) == C - 1 and np.all(np.diff(chunk) == 1):
        block = self._data_u8[int(byte_start[0]) : int(byte_start[0]) + tot_b]
    else:
        gather = np.repeat(byte_start - gstart, byte_len) + np.arange(
            tot_b, dtype=np.int64
        )
        block = self._data_u8[gather]
    vals, vstarts, fault = _row_values(block, gstart)
    nvals = len(vals)
    first_val = np.searchsorted(vstarts, gstart)
    if not nvals or not np.array_equal(
        vstarts[np.minimum(first_val, nvals - 1)], gstart
    ):
        raise ValueError("neighborhood boundary not on a varint boundary")
    end_val = np.append(first_val[1:], nvals)  # one past a vertex's values
    has_body = degs > 0

    # interval section: count, per-interval (left, length) undo
    L = tracked_zeros(C, np.int64, name="decode-simple-scratch")
    res_base = first_val + 1
    totI = 0
    if self.config.enable_intervals:
        nI = np.where(has_body, vals[np.minimum(first_val + 1, nvals - 1)], 0)
        # a corrupt count must not reach past the vertex's own values
        if np.any(nI > (end_val - res_base - has_body) // 2):
            raise ValueError("interval count past neighborhood (corrupt stream?)")
        res_base += has_body + 2 * nI
        totI = int(nI.sum())
    _raise_fault(fault, first_val, first_val, res_base)
    if totI:
        hasI = nI > 0
        cumI = np.cumsum(nI) - nI
        slot = np.repeat(first_val + 2 - 2 * cumI, nI) + 2 * np.arange(
            totI, dtype=np.int64
        )
        raw_gap = vals[slot]
        ilen = vals[slot + 1]
        if int(ilen.max()) > int(degs.max()):  # also keeps the sums below exact
            raise ValueError("interval lengths exceed degree (corrupt stream?)")
        ilen += MIN_INTERVAL_LEN
        # index of each vertex's first interval entry (vertices w/ nI>0)
        fidx = cumI[hasI]
        adj = raw_gap.copy()
        adj[1:] += ilen[:-1]
        adj[fidx] = chunk[hasI] + zigzag_decode(raw_gap[fidx])
        csum = np.cumsum(adj)
        seg_base = csum[fidx] - adj[fidx]
        lefts = csum - np.repeat(seg_base, nI[hasI])
        L[hasI] = np.add.reduceat(ilen, fidx)
        if int(lefts.min()) < 0 or int((lefts + ilen).max()) > self._n:
            raise ValueError("neighbor id out of range (corrupt stream?)")

    # residual section: u-relative signed first value, then +1 gaps
    n_res = degs - L
    if np.any(n_res < 0):
        raise ValueError("interval lengths exceed degree (corrupt stream?)")
    # the residuals the row holds: a bad one is named before the row runs out
    held = np.minimum(n_res, end_val - res_base)
    _raise_fault(fault, first_val, res_base, res_base + held)
    totR = int(held.sum())
    if totR:
        hasR = held > 0
        cumR = np.cumsum(held) - held
        raw = vals[
            np.repeat(res_base - cumR, held) + np.arange(totR, dtype=np.int64)
        ]
        fidx = cumR[hasR]
        adjR = raw + 1
        adjR[fidx] = chunk[hasR] + zigzag_decode(raw[fidx])
        csum = np.cumsum(adjR)
        seg_base = csum[fidx] - adjR[fidx]
        res_ids = csum - np.repeat(seg_base, held[hasR])
        if int(res_ids.min()) < 0 or int(res_ids.max()) >= self._n:
            raise ValueError("neighbor id out of range (corrupt stream?)")
    if np.any(held < n_res):
        raise ValueError(_FAULTS[_TRUNCATED])
    w_base = res_base + n_res

    if not totI:
        nbrs = res_ids if totR else np.empty(0, dtype=np.int64)
    else:
        cumlen = np.cumsum(ilen) - ilen
        iota = np.arange(total - totR, dtype=np.int64)
        nbrs = np.repeat(lefts - cumlen, ilen) + iota
    if totI and totR:
        # assemble: merge the (sorted) interval and residual streams of each
        # vertex without sorting.  An interval contains no residual, so all
        # its elements sit above the same number of residuals: one
        # searchsorted of the interval lefts into the owner-major residual
        # keys (owner = position in chunk, so keys are globally sorted even
        # for permuted chunks); the residuals fill the slots left free.
        exp_vals = nbrs
        stride = np.arange(C, dtype=np.int64) * np.int64(self._n + 1)
        res_keys = np.repeat(stride, n_res) + res_ids
        iv_keys = np.repeat(stride, nI) + lefts
        below = np.searchsorted(res_keys, iv_keys)
        if not np.array_equal(below, np.searchsorted(res_keys, iv_keys + ilen)):
            raise ValueError("interval contains a residual (corrupt stream?)")
        slots = np.repeat(below, ilen) + iota
        nbrs = tracked_empty(total, np.int64, name="decode-simple-nbrs")
        free = tracked_ones(total, bool, name="decode-simple-free")
        nbrs[slots] = exp_vals
        free[slots] = False
        if np.count_nonzero(free) != totR:
            raise ValueError("intervals overlap (corrupt stream?)")
        nbrs[free] = res_ids

    # weight section: signed gap undo against the sorted neighbor order
    wgts = None
    if weighted:
        count_end = w_base + degs
        _raise_fault(fault, first_val, w_base, np.minimum(count_end, end_val))
        if np.any(count_end > end_val):
            raise ValueError(_FAULTS[_TRUNCATED])
        cumD = np.cumsum(degs) - degs
        adjW = zigzag_decode(
            vals[np.repeat(w_base - cumD, degs) + np.arange(total, dtype=np.int64)]
        )
        csum = np.cumsum(adjW)
        fidx = cumD[has_body]
        seg_base = csum[fidx] - adjW[fidx]
        wgts = csum - np.repeat(seg_base, degs[has_body])
    else:
        count_end = w_base
    if not np.array_equal(count_end, end_val):
        raise ValueError("neighborhood value count mismatch (corrupt stream?)")
    return nbrs, wgts


def descends(first_edge: np.ndarray, nb: np.ndarray) -> bool:
    """A descent inside a row (the kernel reports one as a code)."""
    if len(nb) < 2:
        return False
    edge = first_edge - first_edge[0]
    row_start = tracked_zeros(len(nb), bool, name="compress-row-starts")
    row_start[edge[:-1][np.diff(edge) > 0]] = True
    return bool(np.any((nb[1:] < nb[:-1]) & ~row_start[1:]))


def encode_low_degree_oracle(
    lo: int,
    first_edge: np.ndarray,
    nb: np.ndarray,
    w: np.ndarray | None,
    cfg: CompressionConfig,
    stats: CompressionStats,
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy encoder of sorted rows, the oracle of
    runs of rows at or below the chunking threshold in
    :func:`repro.graph.compressed._encode_run`.

    Builds the *value sequence* -- per vertex: header, [interval count],
    [interval pairs], [residual gaps], [weight gaps] -- with pure array
    arithmetic, then VarInt-encodes all values at once.
    """
    nl = len(first_edge) - 1
    deg = np.diff(first_edge)
    tot = len(nb)
    owner = np.repeat(np.arange(nl, dtype=np.int64), deg)
    row_ofs = first_edge[:-1] - first_edge[0]
    pos_in_row = np.arange(tot, dtype=np.int64) - row_ofs[owner]

    # refused in the kernel's order: the first row holding a repeat or a
    # weight gap too wide, the repeat first within a row
    repeat_row = wide_row = nl
    if tot > 1:
        repeat = np.flatnonzero((nb[1:] == nb[:-1]) & (owner[1:] == owner[:-1]))
        if len(repeat):
            repeat_row = int(owner[repeat[0] + 1])
    w_gap = None
    if w is not None and tot:
        w_gap = _weight_gaps(w, pos_in_row == 0)
        wide = np.flatnonzero((w_gap >= _FOLD_LIMIT) | (w_gap <= -_FOLD_LIMIT))
        if len(wide):
            wide_row = int(owner[wide[0]])
    if min(repeat_row, wide_row) < nl:
        if repeat_row <= wide_row:
            _refuse(lo + repeat_row, _native.ENCODE_DUPLICATE)
        _refuse(lo + wide_row, _native.ENCODE_WEIGHT)
    stats.num_neighborhoods += nl

    # interval detection: maximal runs of consecutive IDs, len >= 3
    if cfg.enable_intervals:
        run_start = np.ones(tot, dtype=bool)
        if tot > 1:
            run_start[1:] = (owner[1:] != owner[:-1]) | (nb[1:] != nb[:-1] + 1)
        run_id = np.cumsum(run_start) - 1
        run_len = np.bincount(run_id)
        is_iv_run = run_len >= MIN_INTERVAL_LEN
        in_interval = is_iv_run[run_id] if tot else np.zeros(0, dtype=bool)
        run_first = np.flatnonzero(run_start)
        iv = np.flatnonzero(is_iv_run)
        iv_left = nb[run_first[iv]]
        iv_len = run_len[iv].astype(np.int64)
        iv_owner = owner[run_first[iv]]
        ni = np.bincount(iv_owner, minlength=nl).astype(np.int64)
        stats.num_intervals += len(iv)
        stats.num_interval_edges += int(iv_len.sum())
    else:
        in_interval = np.zeros(tot, dtype=bool)
        iv_left = iv_len = iv_owner = np.empty(0, dtype=np.int64)
        ni = np.zeros(nl, dtype=np.int64)

    res = np.flatnonzero(~in_interval)
    res_owner = owner[res]
    res_nb = nb[res]
    nr = np.bincount(res_owner, minlength=nl).astype(np.int64)

    # value-sequence layout: header, [nint], [pairs], [residuals], [weights]
    has_edges = deg > 0
    count = np.ones(nl, dtype=np.int64)
    if cfg.enable_intervals:
        count += has_edges * (1 + 2 * ni)
    count += nr
    if w is not None:
        count += deg
    val_start = np.cumsum(count) - count
    nvals = int(val_start[-1] + count[-1])
    vals = tracked_empty(nvals, np.int64, name="compress-bulk-values")

    vals[val_start] = first_edge[:-1]  # headers: first edge IDs
    if cfg.enable_intervals and np.any(has_edges):
        vals[val_start[has_edges] + 1] = ni[has_edges]
    if len(iv_owner):
        iv_rank = (
            np.arange(len(iv_owner), dtype=np.int64)
            - (np.cumsum(ni) - ni)[iv_owner]
        )
        prev_end = np.concatenate(([0], (iv_left + iv_len)[:-1]))
        p = val_start[iv_owner] + 2 + 2 * iv_rank
        vals[p] = np.where(
            iv_rank == 0,
            zigzag_encode(iv_left - (lo + iv_owner)),
            iv_left - prev_end,
        )
        vals[p + 1] = iv_len - MIN_INTERVAL_LEN
    if len(res):
        prev_res = np.concatenate(([0], res_nb[:-1]))
        res_rank = (
            np.arange(len(res), dtype=np.int64)
            - (np.cumsum(nr) - nr)[res_owner]
        )
        res_pos = (
            val_start[res_owner]
            + (count - nr - (deg if w is not None else 0))[res_owner]
            + res_rank
        )
        vals[res_pos] = np.where(
            res_rank == 0,
            zigzag_encode(res_nb - (lo + res_owner)),
            res_nb - prev_res - 1,
        )
    w_pos = None
    if w_gap is not None:
        w_pos = val_start[owner] + (count - deg)[owner] + pos_in_row
        vals[w_pos] = zigzag_encode(w_gap)

    lens = varint_lengths(vals)
    byte_start = np.cumsum(lens) - lens
    stats.header_bytes += int(lens[val_start].sum())
    if w_pos is not None:
        stats.weight_bytes += int(lens[w_pos].sum())
    return encode_stream_bulk(vals, lens), byte_start[val_start]


def encode_run(lo, first_edge, nb, w, cfg, stats):
    """:func:`repro.graph.compressed._encode_run` on the oracles: rows
    sorted first if one descends, each stretch of rows at or below the
    chunking threshold by :func:`encode_low_degree_oracle`, each row above
    it by :func:`encode_neighborhood`."""
    if descends(first_edge, nb):
        nb, w = _sort_rows(first_edge, nb, w)
    nl = len(first_edge) - 1
    edge = first_edge - first_edge[0]
    deg = np.diff(edge)
    out = bytearray()
    starts = tracked_empty(nl, np.int64, name="compress-run-starts")
    a = 0
    for h in [*np.flatnonzero(deg > cfg.high_degree_threshold).tolist(), nl]:
        ea, eh = int(edge[a]), int(edge[h])
        if h > a:
            run_w = None if w is None else w[ea:eh]
            blob, run_starts = encode_low_degree_oracle(
                lo + a, first_edge[a : h + 1], nb[ea:eh], run_w, cfg, stats
            )
            starts[a:h] = len(out) + run_starts
            out += memoryview(blob)
        if h < nl:
            starts[h] = len(out)
            end = int(edge[h + 1])
            hub_w = None if w is None else w[eh:end]
            encode_neighborhood(lo + h, nb[eh:end], hub_w, int(first_edge[h]), out, cfg, stats)
        a = h + 1
    return np.frombuffer(bytes(out), dtype=np.uint8), starts


# --------------------------------------------------------------------- #
# k-way FM: the gain tables' Python queries and updates, the Python pass
# --------------------------------------------------------------------- #
class NoGainTableOracle:
    """:class:`~repro.core.refinement.gain_table.NoGainTable`'s queries
    (``self`` is the table)."""

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


def _current_affinities(part, us, o, b, v) -> np.ndarray:
    """Per-pair affinity of each owner's *current* block (0 when the owner
    has no neighbor in its own block)."""
    cur = part[us].astype(np.int64)
    iscur = b == cur[o]
    cur_aff = tracked_zeros(len(us), np.int64, name="gains-many-cur-aff")
    cur_aff[o[iscur]] = v[iscur]
    return cur_aff[o]


class FullGainTableOracle:
    """:class:`~repro.core.refinement.gain_table.FullGainTable`'s queries and
    updates (``self`` is the table)."""

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


class SparseGainTableOracle:
    """:class:`~repro.core.refinement.gain_table.SparseGainTable`'s queries,
    its probe-and-insert update and backward-shift delete (``self`` is the
    table)."""

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
                SparseGainTableOracle._delete_slot(self, u, slot)
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
            SparseGainTableOracle._insert_add(self, v, src, -w)
            SparseGainTableOracle._insert_add(self, v, dst, w)


_TABLES = {"none": NoGainTableOracle, "full": FullGainTableOracle, "sparse": SparseGainTableOracle}


def gains(table, u: int):
    """``(blocks, gains)`` of ``u``'s adjacent blocks, blocks ascending."""
    return _TABLES[table.kind].gains(table, u)


def gains_many(table, us):
    """Batched :func:`gains`: ``(owner, blocks, gains)`` pair lists."""
    return _TABLES[table.kind].gains_many(table, us)


def apply_move(table, u: int, src: int, dst: int) -> None:
    """Update ``table`` after ``u`` moved ``src -> dst``."""
    _TABLES[table.kind].apply_move(table, u, src, dst)


def insert_add(table, u: int, block: int, delta: int) -> None:
    """Add ``delta`` to ``u``'s affinity to ``block`` in a sparse table."""
    SparseGainTableOracle._insert_add(table, u, block, delta)


def best_move(table, pgraph: PartitionedGraph, u: int, max_block_weight: int):
    """Highest-gain feasible move for ``u``; returns (gain, target) or None."""
    blocks, block_gains = gains(table, u)
    if len(blocks) == 0:
        return None
    cur = int(pgraph.partition[u])
    w = int(pgraph.graph.vwgt[u])
    best = None
    for b, g in zip(blocks.tolist(), block_gains.tolist()):
        if b == cur:
            continue
        if pgraph.block_weights[b] + w > max_block_weight:
            continue
        if best is None or g > best[0]:
            best = (int(g), int(b))
    return best


def fm_pass(pgraph, table, seeds, locked, max_block_weight: int, max_fruitless: int, slack: int):
    """One global pass from ``seeds``: ``(improvement, kept, rolled back)``."""
    heap: list[tuple[int, int, int, int]] = []  # (-gain, tiebreak, u, target)
    counter = 0
    in_moves: list[tuple[int, int, int]] = []  # (u, src, dst)

    # score every seed in one batched pass; winners surface in seed
    # order, which fixes the heap tiebreak counters
    po, pb, pg = gains_many(table, seeds)
    cur = pgraph.partition[seeds].astype(np.int64)
    w = np.asarray(pgraph.graph.vwgt)[seeds]
    feasible = (pb != cur[po]) & (
        pgraph.block_weights[pb] + w[po] <= max_block_weight
    )
    po2, pb2, pg2 = po[feasible], pb[feasible], pg[feasible]
    # max gain, then smallest block -- _best_move's strict-> scan order
    best = segment_best_last(po2, pg2, tiebreak=-pb2)
    for o, b, gn in zip(
        po2[best].tolist(), pb2[best].tolist(), pg2[best].tolist()
    ):
        heapq.heappush(heap, (-int(gn), counter, int(seeds[o]), int(b)))
        counter += 1

    cumulative = 0
    best_cumulative = 0
    best_prefix = 0
    fruitless = 0

    while heap and fruitless < max_fruitless:
        neg_g, _, u, target = heapq.heappop(heap)
        if locked[u]:
            continue
        mv = best_move(table, pgraph, u, max_block_weight)
        if mv is None:
            continue
        gain, target = mv
        if gain != -neg_g:
            heapq.heappush(heap, (-gain, counter, u, target))
            counter += 1
            continue
        src = int(pgraph.partition[u])
        # stop descending into deeply negative territory
        if gain < 0 and cumulative + gain < best_cumulative - slack:
            break
        locked[u] = True
        pgraph.move(u, target)
        apply_move(table, u, src, target)
        cumulative += gain
        in_moves.append((u, src, target))
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(in_moves)
            fruitless = 0
        else:
            fruitless += 1
        # requeue affected neighbors
        for v in np.asarray(pgraph.graph.neighbors(u)).tolist():
            if locked[v]:
                continue
            mv = best_move(table, pgraph, int(v), max_block_weight)
            if mv is not None:
                heapq.heappush(heap, (-mv[0], counter, int(v), mv[1]))
                counter += 1

    # rollback tail
    for u, src, dst in reversed(in_moves[best_prefix:]):
        pgraph.move(u, src)
        apply_move(table, u, dst, src)
    return best_cumulative, best_prefix, len(in_moves) - best_prefix


def run_search(
    pgraph,
    table,
    seed: int,
    locked: np.ndarray,
    max_block_weight: int,
    max_region: int,
) -> tuple[int, int, int]:
    """One localized search: expand from ``seed``, keep the best prefix.

    Returns ``(improvement, kept_moves, rolled_back_moves)``.
    """
    heap: list[tuple[int, int, int, int]] = []
    counter = 0
    touched: list[int] = []  # vertices this search acquired

    def push(u: int) -> None:
        nonlocal counter
        mv = best_move(table, pgraph, u, max_block_weight)
        if mv is not None:
            heapq.heappush(heap, (-mv[0], counter, u, mv[1]))
            counter += 1

    push(seed)
    moves: list[tuple[int, int, int]] = []
    cumulative = 0
    best = 0
    best_prefix = 0

    while heap and len(moves) < max_region:
        neg_g, _, u, target = heapq.heappop(heap)
        if locked[u]:
            continue
        mv = best_move(table, pgraph, u, max_block_weight)
        if mv is None:
            continue
        gain, target = mv
        if gain != -neg_g:
            heapq.heappush(heap, (-gain, counter, u, target))
            counter += 1
            continue
        if gain < 0 and cumulative + gain < best - 2:
            break  # this search has gone sour
        locked[u] = True  # acquire: other searches skip u from now on
        touched.append(u)
        src = int(pgraph.partition[u])
        pgraph.move(u, target)
        apply_move(table, u, src, target)
        cumulative += gain
        moves.append((u, src, target))
        if cumulative > best:
            best = cumulative
            best_prefix = len(moves)
        for v in np.asarray(pgraph.graph.neighbors(u)).tolist():
            if not locked[v]:
                push(int(v))

    for u, src, dst in reversed(moves[best_prefix:]):
        pgraph.move(u, src)
        apply_move(table, u, dst, src)
    return best, best_prefix, len(moves) - best_prefix


class OraclePass:
    """:class:`repro.core.refinement.fm_kernel.FMPass`'s call on the Python
    pass: a global pass is :func:`fm_pass`, a localized one
    :func:`run_search` a seed."""

    def __init__(self, pgraph, table, max_block_weight: int, slack: int) -> None:
        self._pgraph, self._table = pgraph, table
        self._max_block_weight, self._slack = max_block_weight, slack

    def __call__(self, seeds, locked, *, localized, max_fruitless=0, max_region=0):
        pgraph, table, lmax = self._pgraph, self._table, self._max_block_weight
        if not localized:
            improvement, kept, rolled = fm_pass(
                pgraph, table, seeds, locked, lmax, max_fruitless, self._slack
            )
            return improvement, kept, rolled, 1
        improvement = searches = committed = rolled_back = 0
        for seed in np.asarray(seeds).tolist():
            if locked[seed]:
                continue
            gain, kept, rolled = run_search(pgraph, table, int(seed), locked, lmax, max_region)
            improvement += gain
            searches += 1
            committed += kept
            rolled_back += rolled
        return improvement, committed, rolled_back, searches


def bind(pgraph, table, max_block_weight: int, *, slack: int = 2) -> OraclePass:
    """:func:`repro.core.refinement.fm_kernel.bind` on the Python pass."""
    return OraclePass(pgraph, table, max_block_weight, slack)


# --------------------------------------------------------------------- #
# a round's gain-table build and seed scan, in numpy
# --------------------------------------------------------------------- #
def build_table(table) -> tuple[int, np.ndarray]:
    """:func:`repro.core.refinement.fm_kernel.build_table` as numpy: the
    whole adjacency once, summed into the full table, or aggregated per
    (vertex, block) and written into the sparse table's dense rows /
    inserted into its hash rows by rank waves; the seeds from the same
    adjacency.  Returns the lock acquisitions (one per hash insert) and the
    seeds."""
    pgraph = table._pgraph
    src, dst, wgt = full_adjacency(pgraph.graph)
    part = pgraph.partition
    return _fill(table, pgraph, src, dst, wgt), np.unique(src[part[src] != part[dst]])


def _fill(table, pgraph, src, dst, wgt) -> int:
    if table.kind == "full":
        np.add.at(table._table, (src, pgraph.partition[dst]), wgt)
        return 0
    inc = np.zeros(pgraph.graph.n, dtype=np.int64)
    np.add.at(inc, src, wgt)
    table._width_bits = entry_width_bits_bulk(inc)
    if len(src) == 0:
        return 0
    # aggregate all (vertex, block) affinities in one vectorized pass
    po, pb, pa = segment_reduce_ratings(
        src, pgraph.partition[dst].astype(np.int64), wgt, pgraph.k
    )
    # dense rows scatter directly; hash rows insert via the rank-wave
    # kernel, which reproduces the probe sequence of one linear-probing
    # insert per pair (pairs arrive grouped by vertex, blocks ascending)
    dense_pair = table._dense[po]
    if np.any(dense_pair):
        d = np.flatnonzero(dense_pair)
        table._vals[table._offsets[po[d]] + pb[d]] = pa[d]
    h = np.flatnonzero(~dense_pair)
    if len(h):
        rows = po[h]
        batch_hash_insert(
            table._keys,
            table._vals,
            table._offsets[rows],
            table._caps[rows],
            pb[h],
            pa[h],
            empty=table.EMPTY,
        )
    # one lock acquisition per hash insert, as a move's update counts
    return len(h)


def boundary_vertices(pgraph) -> np.ndarray:
    """:func:`repro.core.refinement.fm_kernel.boundary_vertices` as numpy:
    the crossing edges' sources, block by block of the adjacency."""
    part = pgraph.partition
    out = [
        np.unique(src[part[src] != part[dst]])
        for src, dst, _ in adjacency_blocks(pgraph.graph)
    ]
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


# --------------------------------------------------------------------- #
# initial partitioning: the list loops, the Python pool, the extraction
# --------------------------------------------------------------------- #
STOP_DIVISOR = 4  # the alpha = 1/4 of KaMinPar's initial FM


def lists(graph) -> tuple[list, list, list, list, object]:
    """``(xadj, adj, wgt, vwgt, charge)``: ``graph`` as Python lists, the
    representation the loops scan (a numpy scalar subscript costs several
    list subscripts), and the ``"bisection-workspace"`` ledger charge of
    their pointer arrays (8 B per slot, not the int objects behind them),
    which the caller holds while it scans them."""
    g = as_csr(graph)
    charge = tracked_slots(2 * g.n + 1 + 2 * len(g.adjncy), "bisection-workspace")
    return (
        g.indptr.tolist(), g.adjncy.tolist(), np.asarray(g.adjwgt).tolist(),
        np.asarray(g.vwgt).tolist(), charge,
    )  # fmt: skip


#: splitmix64's increment and the 64-bit mask of its arithmetic
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64's output function, ``mix64`` of ``bisection_kernel.c``."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def slot_order(seed: int, slot: int, n: int) -> list[int]:
    """Pool slot ``slot``'s visiting order of ``0..n-1`` for a bisection
    seeded ``seed``, as ``slot_order`` of ``bisection_kernel.c`` derives it:
    Fisher-Yates from the top, ``j`` the high word of ``r * (i + 1)``, ``r``
    splitmix64's stream from the key ``mix64(seed ^ mix64(slot + gamma))``."""
    state = mix64(seed ^ mix64((slot + GOLDEN_GAMMA) & MASK64))
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        state = (state + GOLDEN_GAMMA) & MASK64
        j = (mix64(state) * (i + 1)) >> 64
        order[i], order[j] = order[j], order[i]
    return order


def greedy_graph_growing_bipartition(graph, target_weight0, max_weight0, rng):
    """:func:`repro.core.initial.bipartition.greedy_graph_growing_bipartition`
    over the graph's lists."""
    return grow_greedy(graph, rng.permutation(graph.n).tolist(), target_weight0, max_weight0)


def grow_greedy(graph, order: list[int], target_weight0, max_weight0):
    """Greedy graph growing on ``graph`` from the visiting order ``order``."""
    n = graph.n
    part = tracked_ones(n, np.int32, name="bipartition-part")
    xadj, adj, wgt, vwgt, _charge = lists(graph)
    in_block = [False] * n
    # a vertex that once exceeded the cap can never fit later (the block
    # only grows), so block it permanently to guarantee termination
    blocked = [False] * n
    gain = [0] * n
    names = ("bipartition-in-block", "bipartition-blocked", "bipartition-gain")
    charges = [tracked_slots(n, name) for name in names]  # held for the attempt
    heap: list[tuple[int, int, int]] = []
    counter = 0
    weight0 = 0
    grown: list[int] = []
    up = 0

    while weight0 < target_weight0:
        if not heap:
            # (re)start from a fresh random seed (handles disconnected graphs)
            while up < n and (in_block[order[up]] or blocked[order[up]]):
                up += 1
            if up >= n:
                break
            heappush(heap, (0, counter, order[up]))
            counter += 1
        # gains only grow and the largest is popped first, so the first entry
        # of an unassigned vertex to surface carries its current gain; its
        # older entries surface after it is assigned
        u = heappop(heap)[2]
        if in_block[u] or blocked[u]:
            continue
        w = vwgt[u]
        if weight0 + w > max_weight0:
            blocked[u] = True
            continue
        in_block[u] = True
        grown.append(u)
        weight0 += w
        lo, hi = xadj[u], xadj[u + 1]
        for v, ew in zip(adj[lo:hi], wgt[lo:hi]):
            if in_block[v]:
                continue
            g = gain[v] + 2 * ew  # edge flips from cut to internal
            gain[v] = g
            heappush(heap, (-g, counter, v))
            counter += 1
    part[grown] = 0
    return part


def bfs_bipartition(graph, target_weight0, rng):
    """Plain BFS growth (the pool's ``"bfs"`` seed) from a random visiting
    order, over the graph's lists."""
    return grow_bfs(graph, rng.permutation(graph.n).tolist(), target_weight0)


def grow_bfs(graph, order: list[int], target_weight0):
    """BFS growth on ``graph`` from the visiting order ``order``."""
    n = graph.n
    part = tracked_ones(n, np.int32, name="bipartition-part")
    xadj, adj, _, vwgt, _charge = lists(graph)
    visited = [False] * n
    charge = tracked_slots(n, "bipartition-visited")
    weight0 = 0
    grown: list[int] = []
    oi = 0
    q: deque[int] = deque()
    while weight0 < target_weight0:
        if not q:
            while oi < n and visited[order[oi]]:
                oi += 1
            if oi >= n:
                break
            q.append(order[oi])
            visited[order[oi]] = True
        u = q.popleft()
        grown.append(u)
        weight0 += vwgt[u]
        for v in adj[xadj[u] : xadj[u + 1]]:
            if not visited[v]:
                visited[v] = True
                q.append(v)
    part[grown] = 0
    return part


def random_bipartition(graph, target_weight0, rng):
    """A random balanced assignment (the pool's ``"random"`` seed) from a
    random visiting order."""
    return random_walk(graph, rng.permutation(graph.n), target_weight0)


def random_walk(graph, order, target_weight0):
    """The random assignment on the visiting order ``order``: block 0 takes
    the vertices whose preceding weight in it is below the target."""
    part = tracked_ones(graph.n, np.int32, name="bipartition-part")
    perm = np.asarray(order, dtype=np.int64)
    w = np.asarray(graph.vwgt)[perm]
    part[perm[: np.searchsorted(np.cumsum(w) - w, target_weight0)]] = 0
    return part


def fm2way_refine(graph, part, max_weights, rounds: int = 2):
    """:func:`repro.core.initial.fm2way.fm2way_refine` over the graph's
    lists."""
    n = graph.n
    patience = fm_patience(n)
    xadj, adj, wgt, vwgt, _charge = lists(graph)
    tail, head, _ = full_adjacency(graph)
    weights = np.zeros(2, dtype=np.int64)
    np.add.at(weights, part, np.asarray(graph.vwgt))
    side_weight = weights.tolist()

    for _ in range(rounds):
        side = part.tolist()  # ``part`` itself only receives the kept prefix
        gain = two_way_gains(graph, part).tolist()
        locked = [False] * n
        names = ("fm2way-gains", "fm2way-locked")
        charges = [tracked_slots(n, name) for name in names]  # held for the pass
        boundary = np.unique(tail[part[tail] != part[head]]).tolist()
        heap = [(-gain[u], u, u) for u in boundary]
        heapify(heap)
        counter = n  # later pushes sort after the seeds on equal gain

        moves: list[int] = []
        best_prefix = 0
        balance_total = 0
        best_total = 0
        # moves since the best prefix, the sum and sum of squares of their gains
        steps = fallen = squares = 0

        while heap:
            neg_g, _, u = heappop(heap)
            if locked[u]:
                continue
            g = gain[u]
            if g != -neg_g:
                continue  # stale: the update that changed the gain pushed its own entry
            locked[u] = True
            src = side[u]
            dst = 1 - src
            w = vwgt[u]
            if side_weight[dst] + w > max_weights[dst]:
                continue  # cannot move this pass
            side[u] = dst
            side_weight[src] -= w
            side_weight[dst] += w
            balance_total += g
            moves.append(u)
            if balance_total > best_total:
                best_total = balance_total
                best_prefix = len(moves)
                steps = fallen = squares = 0
            else:
                steps += 1
                fallen += g
                squares += g * g
                # steps >= variance / (STOP_DIVISOR * mean**2), cleared of divisions
                if steps > patience and (
                    fallen == 0
                    or STOP_DIVISOR * (steps - 1) * fallen * fallen
                    >= steps * squares - fallen * fallen
                ):
                    break
            lo, hi = xadj[u], xadj[u + 1]
            for v, ew in zip(adj[lo:hi], wgt[lo:hi]):
                if locked[v]:
                    continue
                g = gain[v] - 2 * ew if side[v] == dst else gain[v] + 2 * ew
                gain[v] = g
                heappush(heap, (-g, counter, v))
                counter += 1

        # keep the best prefix; the tail beyond it only gives its weight back
        kept = moves[:best_prefix]
        part[kept] = 1 - part[kept]
        for u in moves[best_prefix:]:
            dst = side[u]
            side_weight[dst] -= vwgt[u]
            side_weight[1 - dst] += vwgt[u]
        if best_total <= 0:
            break
    return part


def extract_subgraphs(graph, masks):
    """Yield ``(induced subgraph, original_ids)`` per vertex mask, all from one
    flattened adjacency of ``graph``."""
    src, dst, weight = full_adjacency(graph)
    vwgt = np.asarray(graph.vwgt)
    local = tracked_full(graph.n, -1, np.int64, name="subgraph-local-ids")
    for mask in masks:
        ids = np.flatnonzero(mask)
        nsub = len(ids)
        local[ids] = np.arange(nsub, dtype=np.int64)
        keep = mask[src] & mask[dst]
        s, d, w = local[src[keep]], local[dst[keep]], weight[keep]
        order = np.lexsort((d, s))
        s, d, w = s[order], d[order], w[order]
        indptr = tracked_zeros(nsub + 1, np.int64, name="subgraph-indptr")
        np.cumsum(np.bincount(s, minlength=nsub), out=indptr[1:])
        unit = bool(len(w) == 0 or np.all(w == 1))
        yield CSRGraph(indptr, d, None if unit else w, vwgt[ids]), ids


def as_csr(graph):
    """``graph`` itself when it is CSR, else decoded once into a CSR graph,
    as a bisection tree binds it."""
    if hasattr(graph, "indptr"):
        return graph
    _, adj, wgt = full_adjacency(graph)
    indptr = np.concatenate(([0], np.cumsum(graph.degrees)))
    return CSRGraph(indptr, adj, _weights(wgt), _weights(np.asarray(graph.vwgt)))


def bound_graph(tree):
    """The level ``tree`` is bound to, as a CSR graph over the arrays it binds."""
    xadj, adj, wgt, vwgt = tree._arrays
    return CSRGraph(xadj, adj, wgt, vwgt)


def split(graph, labels, label_count: int, blocks, ids=None):
    """``(subgraph, ids)`` per label of ``blocks``: the subgraph its vertices
    induce in ``graph`` and their ``ids`` (their indices in ``graph`` when
    ``ids`` is ``None``), :func:`extract_subgraphs`' CSR graphs, lazily --
    what ``BisectionTree.split`` writes into an arena."""
    subgraphs = extract_subgraphs(graph, (labels == b for b in blocks))
    return ((sub, local if ids is None else ids[local]) for sub, local in subgraphs)


def portfolio(graph, target_weight0, max_weight0, max_weight1, rng, attempts, fm_rounds):
    """``(best assignment, attempts run)``: the pool as Python loops, slot
    ``i`` seeded from :func:`slot_order` of the bisection's one 64-bit draw
    from ``rng``."""
    seed = rng.bit_generator.random_raw()
    best: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    total = graph.total_vertex_weight
    vwgt = np.asarray(graph.vwgt)
    ran = 0
    # per kind: runs, sum and sum of squares of the post-FM cuts
    stats = dict.fromkeys(POOL, (0, 0, 0))
    for attempt in range(attempts):
        kind = POOL[attempt % len(POOL)]
        runs, cuts, squares = stats[kind]
        if runs and best_key is not None and best_key[0] == 0:
            mean = cuts / runs
            variance = (squares - cuts * mean) / (runs - 1) if runs > 1 else 0.0
            if mean - POOL_SIGMAS * math.sqrt(max(variance, 0.0)) > best_key[1]:
                continue
        order = slot_order(seed, attempt, graph.n)
        if kind == "random":
            part = random_walk(graph, order, target_weight0)
        elif kind == "bfs":
            part = grow_bfs(graph, order, target_weight0)
        else:
            part = grow_greedy(graph, order, target_weight0, max_weight0)
        part = fm2way_refine(
            graph, part, (max_weight0, max_weight1), rounds=fm_rounds
        )
        w0 = int(vwgt[part == 0].sum())
        w1 = total - w0
        infeasible = int(max(0, w0 - max_weight0) + max(0, w1 - max_weight1))
        cut = two_way_cut(graph, part)
        stats[kind] = (runs + 1, cuts + cut, squares + cut * cut)
        ran += 1
        if best_key is None or (infeasible, cut) < best_key:
            best_key, best = (infeasible, cut), part
    assert best is not None
    return best, ran


def bipartition_portfolio(
    graph, target_weight0, max_weight0, max_weight1, rng, attempts=8, fm_rounds=2
):
    """Best-of-at-most-``attempts`` bipartition on the Python pool: one
    node of ``repro_bisect_depth``, the attempts counted on the tracer."""
    attempts = max(1, attempts)
    best, ran = portfolio(graph, target_weight0, max_weight0, max_weight1, rng, attempts, fm_rounds)
    tracer = installed_tracer()
    if tracer is not None:
        tracer.add("initial.attempts_run", ran)
        tracer.add("initial.attempts_skipped", attempts - ran)
    return best


def initial_partition(graph, k, epsilon, rng, attempts=8, fm_rounds=2):
    """:func:`repro.core.initial.recursive.initial_partition` as the
    recursion it was: one :func:`bipartition_portfolio` and one
    :func:`split` a bisection, in depth-first order."""
    part = tracked_zeros(graph.n, np.int32, name="recursive-part")
    if k <= 1:
        return part
    depth = max(1, math.ceil(math.log2(k)))
    eps_b = (1.0 + epsilon) ** (1.0 / depth) - 1.0

    def recurse(g, ids: np.ndarray, k_here: int, block_offset: int) -> None:
        if k_here == 1:
            part[ids] = block_offset
            return
        k0 = (k_here + 1) // 2
        k1 = k_here - k0
        total = g.total_vertex_weight
        target0 = int(round(total * k0 / k_here))
        max0 = max(target0, int((1.0 + eps_b) * total * k0 / k_here))
        max1 = max(total - target0, int((1.0 + eps_b) * total * k1 / k_here))
        bp = bipartition_portfolio(
            g, target0, max0, max1, rng, attempts=attempts, fm_rounds=fm_rounds
        )
        if k_here == 2:  # both sides are blocks
            part[ids] = block_offset + bp
            return
        (sub0, ids0), (sub1, ids1) = split(g, bp, 2, (0, 1), ids)
        del g  # one bisection's graph does not outlive its split
        recurse(sub0, ids0, k0, block_offset)
        recurse(sub1, ids1, k1, block_offset + k0)

    recurse(as_csr(graph), np.arange(graph.n, dtype=np.int64), k, 0)
    return part


def split_round(pgraph, state, rng, tree):
    """:func:`repro.core.initial.deep._split_round` as the per-block loop it
    was: one :func:`split` of the level, then one
    :func:`bipartition_portfolio` a block (the pool of ``tree``'s
    ``attempts`` and ``rounds``), relabelled as it goes."""
    attempts, fm_rounds = tree.attempts, tree.rounds
    k_old = len(state.budgets)
    # positions 0..k_old-1 keep their (possibly halved) budgets; each split
    # appends its second half as a brand-new label at the end
    new_budgets: list[int] = [int(b) for b in state.budgets]
    part = pgraph.partition
    eps_b = (1.0 + state.epsilon) ** (
        1.0 / max(1, int(np.ceil(np.log2(max(2, state.k_target)))))
    ) - 1.0
    any_split = False

    # blocks are disjoint and fresh labels start at k_old, so the subgraphs
    # (written up front, or extracted lazily) never see this round's earlier
    # splits
    blocks = [b for b in range(k_old) if new_budgets[b] > 1]
    subgraphs = split(bound_graph(tree), part, k_old, blocks)
    for b, (sub, ids) in zip(blocks, subgraphs):
        if sub.n < 2:
            continue  # cannot split a sub-2-vertex block
        budget = new_budgets[b]
        b0 = (budget + 1) // 2
        b1 = budget - b0
        sub_total = sub.total_vertex_weight
        target0 = int(round(sub_total * b0 / budget))
        max0 = max(target0, int((1.0 + eps_b) * sub_total * b0 / budget))
        max1 = max(
            sub_total - target0, int((1.0 + eps_b) * sub_total * b1 / budget)
        )
        bp = bipartition_portfolio(
            sub, target0, max0, max1, rng, attempts=attempts, fm_rounds=fm_rounds
        )
        # side 0 keeps label b (budget b0); side 1 gets a fresh label
        next_label = len(new_budgets)
        movers = bp == 1
        moved = int(sub.vwgt[movers].sum())
        part[ids[movers]] = next_label
        pgraph.block_weights[b] -= moved
        pgraph.block_weights[next_label] += moved
        new_budgets[b] = b0
        new_budgets.append(b1)
        any_split = True

    if any_split:
        state.budgets = np.array(new_budgets, dtype=np.int64)
    return any_split


# --------------------------------------------------------------------- #
# the seam
# --------------------------------------------------------------------- #
#: phase -> (home module, kernel entry, its twin here); ``decode`` swaps two
#: methods of :class:`~repro.graph.compressed.CompressedGraph`
TWINS = {
    "lp": [
        (lp_chunk, "clustering_round", clustering_round),
        (lp_chunk, "refinement_round", refinement_round),
        (lp_chunk, "cluster_pick_step", cluster_pick_step),
        (lp_chunk, "refine_pick_step", refine_pick_step),
    ],
    "contraction": [
        (lp_chunk, "contraction_step", contraction_step),
        (lp_chunk, "group_by_label", group_by_label),
    ],
    "encode": [(compressed, "_encode_run", encode_run)],
    "decode": [
        (CompressedGraph, "_decode_chunk_native", decode_chunk_oracle),
        (CompressedGraph, "crossing_weight", crossing_weight),
    ],
    "fm": [(fm_kernel, "bind", bind)],
    "gain-table": [
        (fm_kernel, "build_table", build_table),
        (fm_kernel, "boundary_vertices", boundary_vertices),
    ],
    "bisection": [
        (bipartition, "greedy_graph_growing_bipartition", greedy_graph_growing_bipartition),
        (fm2way, "fm2way_refine", fm2way_refine),
        (recursive, "initial_partition", initial_partition),
        (deep, "_split_round", split_round),
    ],
}


# every module that could bind a kernel entry, loaded before anything is swapped
for _info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _info.name.endswith("__main__"):
        importlib.import_module(_info.name)


def holders(original) -> list:
    """Every loaded ``repro.*`` module binding ``original`` by a name of its
    own (``from ... import`` bindings included), and the names."""
    return [
        (mod, name)
        for modname, mod in list(sys.modules.items())
        if modname.startswith("repro") and mod is not None
        for name, value in list(vars(mod).items())
        if value is original
    ]


@contextlib.contextmanager
def installed(*phases: str):
    """Run the body with the kernel entries of ``phases`` (every phase of
    :data:`TWINS` if none is named) replaced by their twins here, in every
    module that binds them: the drivers then run the oracles, one path as
    before, and a test compares their answer with the kernels'."""
    with pytest.MonkeyPatch.context() as mp:
        for phase in phases or tuple(TWINS):
            for home, name, twin in TWINS[phase]:
                original = getattr(home, name)
                if isinstance(home, type):
                    mp.setattr(home, name, twin)
                    continue
                for mod, bound in holders(original):
                    mp.setattr(mod, bound, twin)
        yield
