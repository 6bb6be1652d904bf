"""Compressed graph representation (Section III-A).

Each neighborhood is encoded independently into one contiguous byte array:

* **header**: the neighborhood's *first edge ID* as a VarInt.  Storing the
  first edge ID instead of the degree lets iteration recover per-edge IDs
  (required by parts of the partitioner); the degree of ``u`` is deduced as
  ``first_edge_id(u+1) - first_edge_id(u)`` (with ``2m`` as the sentinel for
  the last vertex).
* **interval encoding**: maximal runs ``{x, x+1, ..., x+l-1}`` with
  ``l >= 3`` are stored as ``(x, l)`` pairs instead of ``l`` unit gaps.
* **gap encoding** for the residual (non-interval) neighbors: the first
  residual is stored as a *signed* VarInt relative to the source vertex ``u``
  (neighbor IDs cluster around ``u`` in graphs with locality), subsequent
  residuals as ``v_i - v_{i-1} - 1``.
* **edge weights** (weighted graphs only): gap-encoded signed VarInts in
  neighbor order, stored inside the same per-neighborhood byte range (the
  paper interleaves them with the structure; we place them after the
  structural stream of each chunk, which has identical footprint and
  locality at neighborhood granularity).
* **chunking**: a neighborhood with degree above ``high_degree_threshold``
  (paper: 10 000) is split into chunks of ``chunk_length`` (paper: 1 000)
  neighbors, each encoded independently (first element relative to ``u``)
  and prefixed with its byte length, so chunks can be decoded in parallel.

Like CSR, per-vertex byte offsets into the edge array are kept in an
``n+1``-entry pointer array.

Both directions of the codec run a compiled kernel in ``decode_kernel.c``
(loaded by :mod:`repro.graph._native`): the chunk decode behind
:meth:`CompressedGraph.decode_chunk` and the packet encoder behind
:func:`_encode_low_degree_bulk`.  The per-vertex block codec here serves
the chunk-encoded hubs and is the scalar reference.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from repro.graph import _native
from repro.graph.csr import CSRGraph, _ones_like_view
from repro.graph.varint import (
    as_byte_array,
    decode_signed_varint,
    decode_stream_bulk,
    decode_varint,
    encode_signed_varint,
    encode_varint,
    zigzag_decode,
    MAX_VARINT64_BYTES,
)
from repro.memory.scratch import tracked_empty, tracked_ones, tracked_zeros
from repro.parallel.runtime import balanced_cuts

MIN_INTERVAL_LEN = 3


@dataclass(frozen=True)
class CompressionConfig:
    """Codec knobs; defaults follow the paper."""

    enable_intervals: bool = True
    high_degree_threshold: int = 10_000
    chunk_length: int = 1_000

    def __post_init__(self) -> None:
        if self.chunk_length < 1:
            raise ValueError("chunk_length must be >= 1")
        if self.high_degree_threshold < self.chunk_length:
            raise ValueError("high_degree_threshold must be >= chunk_length")


@dataclass
class CompressionStats:
    """Aggregate statistics of one compression run (feeds Fig. 6/10)."""

    uncompressed_bytes: int = 0
    compressed_bytes: int = 0
    num_intervals: int = 0
    num_interval_edges: int = 0
    num_chunked_vertices: int = 0
    num_neighborhoods: int = 0
    header_bytes: int = 0
    weight_bytes: int = 0

    @property
    def ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 1.0
        return self.uncompressed_bytes / self.compressed_bytes

    @property
    def bytes_per_edge(self) -> float:
        edges = max(1, self.num_interval_edges + self.num_neighborhoods)
        return self.compressed_bytes / edges


def split_intervals(
    nbrs: np.ndarray, min_len: int = MIN_INTERVAL_LEN
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Split a sorted ID array into maximal runs (len >= min_len) + residuals."""
    n = len(nbrs)
    if n == 0:
        return [], nbrs
    breaks = np.flatnonzero(np.diff(nbrs) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [n]])
    intervals: list[tuple[int, int]] = []
    residual_mask = tracked_ones(n, bool, name="split-intervals-mask")
    for s, e in zip(starts.tolist(), ends.tolist()):
        if e - s >= min_len:
            intervals.append((int(nbrs[s]), e - s))
            residual_mask[s:e] = False
    return intervals, nbrs[residual_mask]


def _refuse(u: int, code: int):
    """Refuse vertex ``u``'s row, the cause from the codec's one error enum."""
    raise ValueError(f"cannot compress vertex {u}: {_native.ERRORS[code]}")


#: a signed value whose sign fold fits 63 bits lies strictly inside +-2^62
_FOLD_LIMIT = 1 << 62


def _weight_gaps(w: np.ndarray, row_head: np.ndarray | None = None) -> np.ndarray:
    """Signed weight gaps in int64, wrapping like the decoder's cumsum;
    ``row_head`` marks the entries whose gap is taken against 0."""
    gaps = np.diff(w, prepend=np.int64(0))
    if row_head is not None:
        gaps[row_head] = w[row_head]
    return gaps


def _encode_block(
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


def _decode_block(
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


def _decode_block_bulk(
    u: int,
    buf,
    data_u8: np.ndarray,
    pos: int,
    count: int,
    cfg: CompressionConfig,
    weighted: bool,
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Bulk-decode one chunk: same output as :func:`_decode_block`.

    Used for the fixed-size blocks of chunked high-degree neighborhoods,
    where ``count`` (the paper's 1000) amortizes the vectorization setup.
    """
    nbrs = tracked_empty(count, np.int64, name="decode-block-nbrs")
    idx = 0
    if cfg.enable_intervals:
        num_intervals, pos = decode_varint(buf, pos)
        if num_intervals:
            ivals, pos = decode_stream_bulk(data_u8, pos, 2 * num_intervals)
            gaps = ivals[0::2].copy()
            lengths = ivals[1::2] + MIN_INTERVAL_LEN
            # left edges: first is u-relative (signed), later ones chain off
            # the previous interval's end -> one cumsum after adjusting gaps
            gaps[0] = u + int(zigzag_decode(gaps[:1])[0])
            gaps[1:] += lengths[:-1]
            lefts = np.cumsum(gaps)
            total = int(lengths.sum())
            cum = np.cumsum(lengths) - lengths
            nbrs[:total] = np.repeat(lefts - cum, lengths) + np.arange(total)
            idx = total
    n_res = count - idx
    if n_res:
        rvals, pos = decode_stream_bulk(data_u8, pos, n_res)
        adj = rvals + 1
        adj[0] = u + int(zigzag_decode(rvals[:1])[0])
        nbrs[idx:] = np.cumsum(adj)
    if cfg.enable_intervals and 0 < idx < count:
        nbrs.sort(kind="stable")
    wgts = None
    if weighted:
        wvals, pos = decode_stream_bulk(data_u8, pos, count)
        wgts = np.cumsum(zigzag_decode(wvals))
    return nbrs, wgts, pos


class CompressedGraph:
    """On-the-fly-decoded compressed graph.

    Implements the same neighborhood protocol as :class:`CSRGraph`.  Weighted
    graphs store the weight stream inline; the decoded weights align with the
    sorted neighbor IDs.
    """

    def __init__(
        self,
        n: int,
        num_directed_edges: int,
        offsets: np.ndarray,
        data: bytes,
        vwgt: np.ndarray | None,
        *,
        has_edge_weights: bool,
        config: CompressionConfig,
        stats: CompressionStats,
        total_edge_weight: int | None = None,
        edge_weight_sum: int | None = None,
    ) -> None:
        self._n = n
        self._num_directed = num_directed_edges
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.data = data
        self._has_edge_weights = has_edge_weights
        self.config = config
        self.stats = stats
        self._unit_vertex_weights = vwgt is None
        self.vwgt = _ones_like_view(n) if vwgt is None else np.ascontiguousarray(vwgt, dtype=np.int64)
        self._total_vertex_weight = int(n if vwgt is None else self.vwgt.sum())
        self._total_edge_weight = (
            num_directed_edges if total_edge_weight is None else total_edge_weight
        )
        # the sum of |edge weight|, which repro.graph._native bounds
        self.edge_weight_sum = (
            self._total_edge_weight if edge_weight_sum is None else edge_weight_sum
        )
        self.sorted_neighborhoods = True
        self._data_u8 = as_byte_array(data)
        self._first_edge_ids: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._byte_ranges_checked = False
        self._decode_cache: _DecodedPageCache | None = None

    # -- basic properties ------------------------------------------------ #
    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._num_directed // 2

    @property
    def num_directed_edges(self) -> int:
        return self._num_directed

    @property
    def has_edge_weights(self) -> bool:
        return self._has_edge_weights

    @property
    def has_vertex_weights(self) -> bool:
        return not self._unit_vertex_weights

    @property
    def total_vertex_weight(self) -> int:
        return self._total_vertex_weight

    @property
    def total_edge_weight(self) -> int:
        return self._total_edge_weight

    @property
    def nbytes(self) -> int:
        vw = 8 if self._unit_vertex_weights else self.vwgt.nbytes
        return self.offsets.nbytes + len(self.data) + vw

    # -- headers ----------------------------------------------------------#
    def first_edge_id(self, u: int) -> int:
        if u == self._n:
            return self._num_directed
        return int(self.first_edge_ids[u])

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    @property
    def first_edge_ids(self) -> np.ndarray:
        """First edge ID per vertex, decoded once (vectorized) and cached."""
        if self._first_edge_ids is None:
            self._first_edge_ids = self._decode_headers()
        return self._first_edge_ids

    def _decode_headers(self) -> np.ndarray:
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.int64)
        data = self._data_u8
        pos = self.offsets[:n]
        values = tracked_zeros(n, np.int64, name="decode-header-values")
        pending = np.arange(n, dtype=np.int64)
        # one masked pass per header byte; headers are tiny so 1-2 passes
        for j in range(MAX_VARINT64_BYTES - 1):
            b = data[np.minimum(pos[pending] + j, len(data) - 1)].astype(np.int64)
            values[pending] |= (b & 0x7F) << (7 * j)
            pending = pending[(b & 0x80) != 0]
            if pending.size == 0:
                return values
        raise ValueError("varint too long (corrupt header?)")

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            fe = self.first_edge_ids
            out = tracked_empty(self._n, np.int64, name="degrees-cache")
            if self._n:
                out[:-1] = fe[1:] - fe[:-1]
                out[-1] = self._num_directed - fe[-1]
            self._degrees = out
        return self._degrees

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self._n else 0

    # -- neighborhood protocol -------------------------------------------#
    def neighbors(self, u: int) -> np.ndarray:
        return self._decode(u)[0]

    def edge_weights(self, u: int) -> np.ndarray:
        nbrs, wgts = self._decode(u)
        if wgts is None:
            return _ones_like_view(len(nbrs))
        return wgts

    def neighbors_and_weights(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        nbrs, wgts = self._decode(u)
        if wgts is None:
            wgts = _ones_like_view(len(nbrs))
        return nbrs, wgts

    def incident_edge_ids(self, u: int) -> np.ndarray:
        fe = self.first_edge_id(u)
        return np.arange(fe, fe + self.degree(u), dtype=np.int64)

    def incident_weight(self, u: int) -> int:
        return int(np.asarray(self.edge_weights(u)).sum())

    def _decode(
        self, u: int, *, scalar: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Decode one neighborhood.  Chunks of a high-degree vertex are large
        (paper: 1000 neighbors), so they go through the byte-parallel block
        decoder unless ``scalar`` asks for the reference path."""
        buf = self.data
        pos = int(self.offsets[u])
        fe, pos = decode_varint(buf, pos)
        deg = self.first_edge_id(u + 1) - fe
        cfg = self.config
        weighted = self._has_edge_weights
        if deg == 0:
            return np.empty(0, dtype=np.int64), (
                np.empty(0, dtype=np.int64) if weighted else None
            )
        if deg <= cfg.high_degree_threshold:
            nbrs, wgts, _ = _decode_block(u, buf, pos, deg, cfg, weighted)
            return nbrs, wgts
        parts: list[np.ndarray] = []
        wparts: list[np.ndarray] = []
        remaining = deg
        while remaining:
            chunk_count = min(cfg.chunk_length, remaining)
            chunk_bytes, pos = decode_varint(buf, pos)
            if scalar:
                nbrs, wgts, end = _decode_block(u, buf, pos, chunk_count, cfg, weighted)
            else:
                nbrs, wgts, end = _decode_block_bulk(
                    u, buf, self._data_u8, pos, chunk_count, cfg, weighted
                )
            if end - pos != chunk_bytes:
                raise ValueError(
                    f"chunk length mismatch at vertex {u}: "
                    f"declared {chunk_bytes}, consumed {end - pos}"
                )
            pos = end
            parts.append(nbrs)
            if wgts is not None:
                wparts.append(wgts)
            remaining -= chunk_count
        return np.concatenate(parts), (np.concatenate(wparts) if wparts else None)

    def _decode_scalar(self, u: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Pure-scalar reference decode (tests check bulk paths against it)."""
        return self._decode(u, scalar=True)

    # -- bulk chunk decode (the kernels' hot path) ------------------------#
    def decode_chunk(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened adjacency ``(owner, neighbors, weights)`` of a vertex chunk.

        ``owner[i]`` is the index within ``chunk`` of the vertex owning edge
        ``i``.  All non-chunked neighborhoods of the chunk are decoded by one
        call into the compiled kernel; high-degree chunked vertices go
        through the per-vertex block decoder and are spliced in.
        """
        chunk = np.asarray(chunk, dtype=np.int64)
        if self._decode_cache is not None:
            return self._decode_cache.chunk_adjacency(chunk)
        return self._decode_chunk_impl(chunk)

    def _decode_chunk_impl(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self._byte_ranges_checked:
            self._check_byte_ranges()
        degs = self.degrees[chunk] if len(chunk) else np.empty(0, dtype=np.int64)
        if len(chunk) and int(degs.min()) < 0:
            raise ValueError("negative degree (corrupt header?)")
        # sorted distinct neighbours: no vertex has more than n of them, nor
        # more than the graph has edges; a header that says otherwise would
        # size the output (and send the vertex down the hub path) by a lie
        if len(chunk) and int(degs.max()) > min(self._n, self._num_directed):
            vertex = int(chunk[int(degs.argmax())])
            raise ValueError(f"degree of vertex {vertex} exceeds the graph (corrupt header?)")
        total = int(degs.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        return self._decode_chunk_native(chunk, degs, total)

    @property
    def max_plain_degree(self) -> int:
        """The largest degree a neighbourhood can have and still be one plain
        block a compiled walk decodes on its own.  Above it the vertex is
        chunk-encoded, or its header is a lie: no vertex has more distinct
        neighbours than ``n`` or than the graph has edges.
        :meth:`decode_chunk` splices or refuses those."""
        return min(self.config.high_degree_threshold, self._n, self._num_directed)

    def stream(self) -> tuple[np.ndarray, np.ndarray]:
        """``(data, offsets)`` as a compiled walk reads them: contiguous
        uint8 and int64, every vertex's byte range checked once to lie in the
        data."""
        if not self._byte_ranges_checked:
            self._check_byte_ranges()
        return self._data_u8, self.offsets

    def _check_byte_ranges(self) -> None:
        """Once per graph: every ``[offsets[u], offsets[u+1])`` lies in the data."""
        off, data = self.offsets, self._data_u8
        if (
            len(off) != self._n + 1
            or int(off[0]) < 0
            or int(off[-1]) != len(data)
            or bool(np.any(off[1:] < off[:-1]))
        ):
            raise ValueError("byte offsets do not tile the data (corrupt graph?)")
        if off.dtype != np.int64 or not (off.flags.c_contiguous and data.flags.c_contiguous):
            raise ValueError("offsets must be contiguous int64, data contiguous bytes")
        self._byte_ranges_checked = True

    def _decode_chunk_native(
        self, chunk: np.ndarray, degs: np.ndarray, total: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One call into ``decode_kernel.c``, whose header states the contract:
        reads stay inside a vertex's byte range, writes inside its ``deg``
        output slots, a bad stream comes back as an error code."""
        hub_deg = self.config.high_degree_threshold
        max_deg = int(degs.max())
        chunk = np.ascontiguousarray(chunk)
        owner = tracked_empty(total, np.int64, name="decode-native-owner")
        nbrs = tracked_empty(total, np.int64, name="decode-native-nbrs")
        wgts = None
        if self._has_edge_weights:
            wgts = tracked_empty(total, np.int64, name="decode-native-wgts")
        # one vertex's (left, length) interval pairs, each >= MIN_INTERVAL_LEN long
        pairs = tracked_empty(
            2 * (min(max_deg, hub_deg) // MIN_INTERVAL_LEN), name="decode-native-intervals"
        )
        bad = ctypes.c_int64()
        rc = _native.decode_kernel()(
            self._data_u8.ctypes.data, len(self._data_u8), self.offsets.ctypes.data, self._n,
            chunk.ctypes.data, degs.ctypes.data, len(chunk), hub_deg, self.config.enable_intervals,
            owner.ctypes.data, nbrs.ctypes.data, None if wgts is None else wgts.ctypes.data, total,
            pairs.ctypes.data, len(pairs), ctypes.byref(bad),
        )  # fmt: skip
        if rc:
            vertex = int(chunk[bad.value])
            raise ValueError(f"{_native.ERRORS[rc]} at vertex {vertex} (corrupt stream?)")
        if max_deg > hub_deg:
            first = np.cumsum(degs) - degs
            for h in np.flatnonzero(degs > hub_deg).tolist():
                lo, hi = int(first[h]), int(first[h] + degs[h])
                hub_nbrs, hub_wgts = self._decode_hub(int(chunk[h]))
                nbrs[lo:hi] = hub_nbrs
                if wgts is not None:
                    wgts[lo:hi] = hub_wgts
        if wgts is None:
            wgts = _ones_like_view(total)
        return owner, nbrs, wgts

    def _decode_hub(self, u: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The per-vertex decode the chunk decoder splices in for a vertex
        above the chunking threshold.  A corrupt header can make any vertex
        look like one; its bytes are then not chunk-encoded, and whatever the
        block decoder trips over is reported as the stream's fault."""
        try:
            nbrs, wgts = self._decode(u)
        except (IndexError, MemoryError, OverflowError, ValueError) as exc:
            raise ValueError(
                f"chunked neighborhood of vertex {u} does not decode: {exc} (corrupt header?)"
            ) from exc
        if len(nbrs) and not 0 <= int(nbrs.min()) <= int(nbrs.max()) < self._n:
            raise ValueError(f"neighbor id out of range at vertex {u} (corrupt stream?)")
        return nbrs, wgts

    # -- optional decoded-chunk cache -------------------------------------#
    def enable_decode_cache(
        self,
        max_bytes: int,
        *,
        tracker=None,
        page_size: int = 1024,
    ) -> None:
        """Attach a bounded LRU cache of decoded vertex pages.

        Repeated traversals then decode each page once; cached bytes are
        registered with ``tracker`` so memory ledgers stay honest about the
        extra working set.  Nothing under ``src/`` turns it on: LP scans in
        ``rng.permutation`` order, so no budget below the whole decoded
        level ever hits (ROADMAP item 1) and the config knob is gone.  It
        stays for ``benchmarks/ladder/micro.py``, which measures
        ``compressed.decode_cached_ns_per_edge`` through it.
        """
        if self._decode_cache is not None:
            self.disable_decode_cache()
        self._decode_cache = _DecodedPageCache(
            self, max_bytes, tracker=tracker, page_size=page_size
        )

    def disable_decode_cache(self) -> None:
        if self._decode_cache is not None:
            self._decode_cache.close()
            self._decode_cache = None

    @property
    def decode_cache_stats(self) -> dict | None:
        if self._decode_cache is None:
            return None
        c = self._decode_cache
        return {
            "pages": len(c.pages),
            "bytes": c.cur_bytes,
            "hits": c.hits,
            "misses": c.misses,
            "evictions": c.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"CompressedGraph(n={self.n}, m={self.m}, "
            f"ratio={self.stats.ratio:.2f})"
        )


class _DecodedPageCache:
    """Bounded LRU cache of decoded vertex pages for a compressed graph.

    A page is a contiguous range of ``page_size`` vertices stored as a small
    local CSR (indptr, neighbor IDs, weights); chunk requests are served by
    vectorized gathers from the pages they touch.  Total decoded bytes are
    capped by ``max_bytes`` (evicting least-recently-used pages) and
    mirrored into a ``MemoryTracker`` allocation when one is supplied.
    """

    def __init__(self, graph, max_bytes: int, *, tracker=None, page_size: int = 1024):
        from collections import OrderedDict

        self.graph = graph
        self.max_bytes = int(max_bytes)
        self.page_size = int(page_size)
        self.pages: "OrderedDict[int, tuple]" = OrderedDict()
        self.cur_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._tracker = tracker
        self._aid = (
            tracker.alloc("decode-cache", 0, "decode-cache")
            if tracker is not None
            else None
        )

    def close(self) -> None:
        self.pages.clear()
        self.cur_bytes = 0
        if self._tracker is not None and self._aid is not None:
            self._tracker.free(self._aid)
            self._aid = None

    def _account(self) -> None:
        if self._tracker is not None and self._aid is not None:
            self._tracker.resize(self._aid, self.cur_bytes)

    def _page(self, pid: int) -> tuple:
        entry = self.pages.get(pid)
        if entry is not None:
            self.hits += 1
            self.pages.move_to_end(pid)
            return entry
        self.misses += 1
        g = self.graph
        lo = pid * self.page_size
        hi = min(g.n, lo + self.page_size)
        members = np.arange(lo, hi, dtype=np.int64)
        _owner, nbrs, wgts = g._decode_chunk_impl(members)
        degs = g.degrees[lo:hi]
        indptr = tracked_empty(len(members) + 1, np.int64, name="page-indptr")
        indptr[0] = 0
        np.cumsum(degs, out=indptr[1:])
        # a broadcast all-ones weight view is backed by 8 real bytes
        wbytes = 8 if wgts.strides == (0,) else wgts.nbytes
        nbytes = indptr.nbytes + nbrs.nbytes + wbytes
        entry = (indptr, nbrs, wgts, nbytes)
        self.pages[pid] = entry
        self.cur_bytes += nbytes
        while self.cur_bytes > self.max_bytes and len(self.pages) > 1:
            _pid, (_ip, _nb, _wg, old_bytes) = self.pages.popitem(last=False)
            self.cur_bytes -= old_bytes
            self.evictions += 1
        self._account()
        return entry

    def chunk_adjacency(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = self.graph
        degs = g.degrees[chunk] if len(chunk) else np.empty(0, dtype=np.int64)
        total = int(degs.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        owner = np.repeat(np.arange(len(chunk), dtype=np.int64), degs)
        nbrs = tracked_empty(total, np.int64, name="page-chunk-nbrs")
        wgts = tracked_empty(total, np.int64, name="page-chunk-wgts")
        seg_start = np.cumsum(degs) - degs
        pids = chunk // self.page_size
        for pid in np.unique(pids).tolist():
            indptr, p_nbrs, p_wgts, _nb = self._page(pid)
            sel = np.flatnonzero(pids == pid)
            local = chunk[sel] - pid * self.page_size
            d = degs[sel]
            nsel = int(d.sum())
            if nsel == 0:
                continue
            intra = np.arange(nsel, dtype=np.int64) - np.repeat(
                np.cumsum(d) - d, d
            )
            src = np.repeat(indptr[local], d) + intra
            tgt = np.repeat(seg_start[sel], d) + intra
            nbrs[tgt] = p_nbrs[src]
            wgts[tgt] = p_wgts[src]
        return owner, nbrs, wgts


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
        _encode_block(u, nbrs, wgts, out, cfg, stats)
        return
    stats.num_chunked_vertices += 1
    # repro-lint: ignore[untracked-alloc] -- bytearray cannot be weakref-finalized, so the scratch ledger cannot follow it; its bytes are covered by the callers' bulk output-chunk charges
    scratch = bytearray()
    for start in range(0, deg, cfg.chunk_length):
        end = min(start + cfg.chunk_length, deg)
        scratch.clear()
        _encode_block(
            u,
            nbrs[start:end],
            None if wgts is None else wgts[start:end],
            scratch,
            cfg,
            stats,
        )
        encode_varint(len(scratch), out)
        out.extend(scratch)


#: Directed edges per packet when the CSR is already in memory -- the value
#: :func:`repro.graph.io.stream_compressed` defaults to.  Encoder scratch is
#: proportional to the packet, not to the graph.
PACKET_EDGES = 1 << 16


def _sort_rows(
    first_edge: np.ndarray, nb: np.ndarray, w: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Every row's neighbors ascending, its weights alongside: one segmented,
    stable sort, so rows that were sorted keep their order byte for byte."""
    deg = np.diff(first_edge)
    order = np.lexsort((nb, np.repeat(np.arange(len(deg)), deg)))
    return nb[order], None if w is None else w[order]


def _encode_low_degree_bulk(
    lo: int,
    first_edge: np.ndarray,
    nb: np.ndarray,
    w: np.ndarray | None,
    cfg: CompressionConfig,
    stats: CompressionStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the consecutive low-degree vertices ``lo..`` in one run.

    ``first_edge`` holds their first edge IDs plus the end sentinel, ``nb``
    / ``w`` their neighbors and weights, rows in any order.  Returns the
    bytes and each vertex's byte start within them, byte-identical to
    per-vertex :func:`encode_neighborhood` calls on the sorted rows.

    ``repro_encode_run`` (``decode_kernel.c``) is called twice: a size
    pass that checks the run and returns its exact byte count, then a write
    pass into a buffer of exactly that size.  A descent inside a row comes
    back from the size pass as a code; the rows are then sorted and sized
    again.  A row the codec cannot hold -- a neighbor listed twice, a
    weight gap whose sign fold does not fit 63 bits -- raises a
    ``ValueError`` naming the vertex before a byte of the run exists.
    """
    kernel = _native.encode_kernel()
    nl = len(first_edge) - 1
    first_edge = np.ascontiguousarray(first_edge, dtype=np.int64)
    nb = np.ascontiguousarray(nb, dtype=np.int64)
    w = None if w is None else np.ascontiguousarray(w, dtype=np.int64)
    bad = ctypes.c_int64()

    def call(out=None, out_cap=0, starts=None, deltas=None):
        return kernel(
            lo, first_edge.ctypes.data, nl, nb.ctypes.data, len(nb),
            None if w is None else w.ctypes.data, cfg.enable_intervals,
            out, out_cap, starts, deltas, ctypes.byref(bad),
        )  # fmt: skip

    size = call()
    if size == _native.ENCODE_DESCENT:
        nb, w = _sort_rows(first_edge, nb, w)
        size = call()
    if size < 0:
        _refuse(lo + bad.value, size)
    blob = tracked_empty(size, np.uint8, name="compress-run-bytes")
    starts = tracked_empty(nl, np.int64, name="compress-run-starts")
    deltas = np.zeros(4, dtype=np.int64)
    written = call(blob.ctypes.data, size, starts.ctypes.data, deltas.ctypes.data)
    if written != size:
        raise RuntimeError(f"encoder wrote {written} of {size} sized bytes")
    n_iv, iv_edges, header_bytes, weight_bytes = deltas.tolist()
    stats.num_neighborhoods += nl
    stats.num_intervals += n_iv
    stats.num_interval_edges += iv_edges
    stats.header_bytes += header_bytes
    stats.weight_bytes += weight_bytes
    return blob, starts


def _encode_packet(
    lo: int,
    first_edge: np.ndarray,
    nb: np.ndarray,
    w: np.ndarray | None,
    out: bytearray,
    cfg: CompressionConfig,
    stats: CompressionStats,
) -> np.ndarray:
    """Append the encoding of one packet to ``out``; return its byte offsets.

    A packet is the unit of encoding: consecutive vertices ``lo..``, their
    first edge IDs (plus end sentinel) and their slice of the edge arrays.
    Runs of low-degree vertices are encoded in one run each
    (:func:`_encode_low_degree_bulk`, which sorts unsorted rows); a vertex
    above the chunking threshold is the one case left to the scalar
    :func:`encode_neighborhood`, its row sorted first if it descends.
    """
    nv = len(first_edge) - 1
    edge = first_edge - first_edge[0]
    deg = np.diff(edge)
    offsets = tracked_empty(nv, np.int64, name="compress-packet-offsets")
    a = 0
    for h in [*np.flatnonzero(deg > cfg.high_degree_threshold).tolist(), nv]:
        ea, eh = int(edge[a]), int(edge[h])
        if h > a:
            run_w = None if w is None else w[ea:eh]
            blob, starts = _encode_low_degree_bulk(
                lo + a, first_edge[a : h + 1], nb[ea:eh], run_w, cfg, stats
            )
            offsets[a:h] = len(out) + starts
            out += memoryview(blob)
        if h < nv:
            offsets[h] = len(out)
            end = int(edge[h + 1])
            hub_nb, hub_w = nb[eh:end], None if w is None else w[eh:end]
            if np.any(hub_nb[1:] < hub_nb[:-1]):
                hub_nb, hub_w = _sort_rows(first_edge[h : h + 2], hub_nb, hub_w)
            encode_neighborhood(
                lo + h, hub_nb, hub_w, int(first_edge[h]), out, cfg, stats
            )
        a = h + 1
    return offsets


def _compress_packets(
    packets,
    n: int,
    num_directed_edges: int,
    weighted: bool,
    vwgt: np.ndarray | None,
    *,
    tracker=None,
    on_packet=None,
    **codec,
) -> CompressedGraph:
    """The one compression loop: encode packets, append them in order.

    ``packets`` yields ``(lo, first_edge, adjncy, adjwgt)`` for consecutive
    vertex ranges covering ``0..n-1`` (see :func:`_encode_packet`); where
    they are cut does not change a byte.  ``on_packet(packet, claim,
    nbytes)`` observes each append (the parallel pipeline's bookkeeping).
    Every compressor ends here, so the codec config, ``stats``, the
    :class:`CompressedGraph` and its tracker registration are assembled in
    one place.
    """
    cfg = CompressionConfig(**codec)
    stats = CompressionStats()
    out = bytearray()
    offsets = tracked_empty(n + 1, np.int64, name="compress-offsets")
    total_edge_weight = edge_weight_sum = 0 if weighted else num_directed_edges
    for packet in packets:
        lo, first_edge, _nb, w = packet
        claim = len(out)
        offsets[lo : lo + len(first_edge) - 1] = _encode_packet(
            *packet, out, cfg, stats
        )
        if w is not None:
            total_edge_weight += int(w.sum())
            edge_weight_sum += _native.exact_sum(np.abs(w))
        if on_packet is not None:
            on_packet(packet, claim, len(out) - claim)
    offsets[n] = len(out)
    data = bytes(out)
    # what CSRGraph.nbytes reports: unit weights are one shared 8-byte view
    m2 = num_directed_edges
    stats.uncompressed_bytes = 8 * (
        (n + 1) + m2 + (m2 if weighted else 1) + (1 if vwgt is None else n)
    )
    stats.compressed_bytes = len(data) + offsets.nbytes
    cg = CompressedGraph(
        n,
        num_directed_edges,
        offsets,
        data,
        vwgt,
        has_edge_weights=weighted,
        config=cfg,
        stats=stats,
        total_edge_weight=total_edge_weight,
        edge_weight_sum=edge_weight_sum,
    )
    if tracker is not None:
        tracker.alloc("compressed-graph", cg.nbytes, "graph")
    return cg


def _csr_packets(graph: CSRGraph, cuts: np.ndarray):
    """Packets of an in-memory CSR: array views between vertex ``cuts``."""
    indptr = graph.indptr
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        lo, hi = int(indptr[a]), int(indptr[b])
        yield (
            a,
            indptr[a : b + 1],
            graph.adjncy[lo:hi],
            graph.adjwgt[lo:hi] if graph.has_edge_weights else None,
        )


def compress_graph(
    graph: CSRGraph,
    *,
    enable_intervals: bool = True,
    high_degree_threshold: int = 10_000,
    chunk_length: int = 1_000,
    tracker=None,
) -> CompressedGraph:
    """Compress a CSR graph.

    Cuts the CSR into packets of about :data:`PACKET_EDGES` directed edges
    and feeds them to :func:`_compress_packets`.  The shared-memory
    partitioner, the service and every level of :mod:`repro.dist` call this
    function; a distributed shard is a row range of its result.  The
    virtual-thread pipeline (:mod:`repro.graph.compression`) and the file
    loader (:func:`repro.graph.io.stream_compressed`) are other packet
    sources over the same loop, byte-identical by construction and checked
    against a per-vertex :func:`encode_neighborhood` reference in
    ``tests/test_kernels.py``.
    """
    return _compress_packets(
        _csr_packets(graph, balanced_cuts(graph.indptr, PACKET_EDGES)),
        graph.n,
        graph.num_directed_edges,
        graph.has_edge_weights,
        np.asarray(graph.vwgt).copy() if graph.has_vertex_weights else None,
        tracker=tracker,
        enable_intervals=enable_intervals,
        high_degree_threshold=high_degree_threshold,
        chunk_length=chunk_length,
    )


def decompress_graph(cg: CompressedGraph) -> CSRGraph:
    """Expand back to CSR via the bulk decode path (round-trips, baselines)."""
    degrees = cg.degrees
    indptr = tracked_zeros(cg.n + 1, np.int64, name="decompress-indptr")
    np.cumsum(degrees, out=indptr[1:])
    _owner, adjncy, adjwgt = cg.decode_chunk(np.arange(cg.n, dtype=np.int64))
    adjncy = np.ascontiguousarray(adjncy)
    adjwgt = np.asarray(adjwgt).copy() if cg.has_edge_weights else None
    vwgt = np.asarray(cg.vwgt).copy() if cg.has_vertex_weights else None
    return CSRGraph(indptr, adjncy, adjwgt, vwgt, sorted_neighborhoods=True)
