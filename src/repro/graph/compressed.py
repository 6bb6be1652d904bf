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

Both directions of the codec, chunk-encoded neighborhoods included, run
one compiled kernel in ``decode_kernel.c`` (loaded by
:mod:`repro.graph._native`): the chunk decode behind
:meth:`CompressedGraph.decode_chunk` (and every per-vertex accessor) and the
run encoder behind :func:`_encode_run`.  Their per-vertex and numpy
references live in ``tests/oracles.py``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.graph import _native
from repro.graph.csr import CSRGraph, _ones_like_view
from repro.graph.varint import MAX_VARINT64_BYTES, as_byte_array
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
        """Every vertex's VarInt header, each read inside its own byte range:
        a header that runs past it is a ``ValueError`` naming the vertex."""
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.int64)
        data, off = self.stream()
        values = tracked_zeros(n, np.int64, name="decode-header-values")
        pending = np.arange(n, dtype=np.int64)
        # one masked pass per header byte; headers are tiny so 1-2 passes
        for j in range(MAX_VARINT64_BYTES - 1):
            at = off[pending] + j
            past = at >= off[pending + 1]
            if past.any():
                vertex = int(pending[np.argmax(past)])
                raise ValueError(
                    f"header of vertex {vertex} runs past its bytes (corrupt stream?)"
                )
            b = data[at].astype(np.int64)
            values[pending] |= (b & 0x7F) << (7 * j)
            pending = pending[(b & 0x80) != 0]
            if pending.size == 0:
                return values
        raise ValueError(f"header of vertex {int(pending[0])} is too long (corrupt stream?)")

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
        return self.neighbors_and_weights(u)[0]

    def edge_weights(self, u: int) -> np.ndarray:
        return self.neighbors_and_weights(u)[1]

    def neighbors_and_weights(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        _owner, nbrs, wgts = self.decode_chunk(np.array([u], dtype=np.int64))
        return nbrs, wgts

    def incident_edge_ids(self, u: int) -> np.ndarray:
        fe = self.first_edge_id(u)
        return np.arange(fe, fe + self.degree(u), dtype=np.int64)

    def incident_weight(self, u: int) -> int:
        return int(np.asarray(self.edge_weights(u)).sum())

    def crossing_weight(self, labels: np.ndarray) -> int:
        """Weight of the directed edges whose endpoints carry different
        ``labels`` (``n`` integers), summed by one compiled walk over the
        stream that writes no row (``repro_crossing_weight``)."""
        wide = np.asarray(labels).dtype != np.int32
        labels = np.ascontiguousarray(labels, dtype=np.int64 if wide else np.int32)
        if labels.shape != (self._n,):
            raise ValueError(f"labels need {self._n} entries")
        blocks, held = stream_blocks(self, 1, "crossing-stream-scratch", rows=False)
        out, bad = ctypes.c_int64(), ctypes.c_int64()
        label32, label64 = (None, labels.ctypes.data) if wide else (labels.ctypes.data, None)
        rc = _native.library()["repro_crossing_weight"](
            self._n, self.degrees.ctypes.data, label32, label64, ctypes.addressof(blocks),
            ctypes.byref(out), ctypes.byref(bad),
        )  # fmt: skip
        if rc:
            raise ValueError(f"{_native.ERRORS[rc]} at vertex {bad.value} (corrupt stream?)")
        return out.value

    # -- bulk chunk decode (the kernels' hot path) ------------------------#
    def decode_chunk(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened adjacency ``(owner, neighbors, weights)`` of a vertex chunk.

        ``owner[i]`` is the index within ``chunk`` of the vertex owning edge
        ``i``.  Every neighborhood of the chunk, chunk-encoded ones included,
        is decoded by one call into the compiled kernel.
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
        # size the output by a lie
        if len(chunk) and int(degs.max()) > min(self._n, self._num_directed):
            vertex = int(chunk[int(degs.argmax())])
            raise ValueError(f"degree of vertex {vertex} exceeds the graph (corrupt header?)")
        total = int(degs.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        return self._decode_chunk_native(chunk, degs, total)

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
        cfg = self.config
        chunk = np.ascontiguousarray(chunk)
        owner = tracked_empty(total, np.int64, name="decode-native-owner")
        nbrs = tracked_empty(total, np.int64, name="decode-native-nbrs")
        wgts = None
        if self._has_edge_weights:
            wgts = tracked_empty(total, np.int64, name="decode-native-wgts")
        # one block's (left, length) interval pairs, each >= MIN_INTERVAL_LEN
        # long; no block is longer than the chunking threshold
        block = min(int(degs.max()), cfg.high_degree_threshold)
        pairs = tracked_empty(2 * (block // MIN_INTERVAL_LEN), name="decode-native-intervals")
        bad = ctypes.c_int64()
        rc = _native.decode_kernel()(
            self._data_u8.ctypes.data, len(self._data_u8), self.offsets.ctypes.data, self._n,
            chunk.ctypes.data, degs.ctypes.data, len(chunk), cfg.high_degree_threshold,
            cfg.chunk_length, cfg.enable_intervals, owner.ctypes.data, nbrs.ctypes.data,
            None if wgts is None else wgts.ctypes.data, total, pairs.ctypes.data, len(pairs),
            ctypes.byref(bad),
        )  # fmt: skip
        if rc:
            vertex, why = int(chunk[bad.value]), _native.ERRORS[rc]
            if int(degs[bad.value]) > cfg.high_degree_threshold:
                # a corrupt header can make any vertex look chunk-encoded
                raise ValueError(
                    f"chunked neighborhood of vertex {vertex} does not decode: {why} "
                    "(corrupt header?)"
                )
            raise ValueError(f"{why} at vertex {vertex} (corrupt stream?)")
        if wgts is None:
            wgts = _ones_like_view(total)
        return owner, nbrs, wgts

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


#: Directed edges per packet when the CSR is already in memory -- the value
#: :func:`repro.graph.io.stream_compressed` defaults to.  Encoder scratch is
#: proportional to the packet, not to the graph.
PACKET_EDGES = 1 << 16


def stream_blocks(graph: CompressedGraph, count: int, name: str, rows: bool = True):
    """``(blocks, held)``: ``count`` :class:`_native.Stream` blocks (a ctypes
    array) over ``graph``'s checked stream, each with its own scratch charged
    as ``name``: one block's interval pairs and, with ``rows``, one row of
    ``cap`` ids (weights too, if any), ``cap`` the largest degree capped at
    ``n`` and the edges; ``held`` is what they point into."""
    data, offsets = graph.stream()
    cfg = graph.config
    cap = max(0, min(graph.max_degree, graph.n, graph.num_directed_edges))
    weighted = graph.has_edge_weights
    row = (1 + weighted) * cap if rows else 0
    pairs = 2 * (min(cap, cfg.high_degree_threshold) // MIN_INTERVAL_LEN)
    scratch = tracked_empty(count * (row + pairs), name=name)
    blocks = (_native.Stream * count)()
    for i in range(count):
        at = scratch.ctypes.data + 8 * (row + pairs) * i
        blocks[i] = _native.Stream(
            data.ctypes.data, len(data), offsets.ctypes.data, cfg.enable_intervals,
            at if rows else None, at + 8 * cap if rows and weighted else None, cap, at + 8 * row,
            pairs, cfg.high_degree_threshold, cfg.chunk_length, weighted,
        )  # fmt: skip
    return blocks, (data, offsets, scratch)


def _sort_rows(
    first_edge: np.ndarray, nb: np.ndarray, w: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Every row's neighbors ascending, its weights alongside: one segmented,
    stable sort, so rows that were sorted keep their order byte for byte."""
    deg = np.diff(first_edge)
    order = np.lexsort((nb, np.repeat(np.arange(len(deg)), deg)))
    return nb[order], None if w is None else w[order]


def _encode_run(
    lo: int,
    first_edge: np.ndarray,
    nb: np.ndarray,
    w: np.ndarray | None,
    cfg: CompressionConfig,
    stats: CompressionStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the consecutive vertices ``lo..`` in one run.

    ``first_edge`` holds their first edge IDs plus the end sentinel, ``nb``
    / ``w`` their neighbors and weights, rows in any order.  Returns the
    bytes and each vertex's byte start within them; a row above the
    chunking threshold is written as its chunks.

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
            cfg.high_degree_threshold, cfg.chunk_length,
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
    deltas = np.zeros(5, dtype=np.int64)
    written = call(blob.ctypes.data, size, starts.ctypes.data, deltas.ctypes.data)
    if written != size:
        raise RuntimeError(f"encoder wrote {written} of {size} sized bytes")
    n_iv, iv_edges, header_bytes, weight_bytes, chunked = deltas.tolist()
    stats.num_neighborhoods += nl
    stats.num_intervals += n_iv
    stats.num_interval_edges += iv_edges
    stats.header_bytes += header_bytes
    stats.weight_bytes += weight_bytes
    stats.num_chunked_vertices += chunked
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
    first edge IDs (plus end sentinel) and their slice of the edge arrays,
    encoded as one run (:func:`_encode_run`, which sorts unsorted rows).
    """
    blob, starts = _encode_run(lo, first_edge, nb, w, cfg, stats)
    starts += len(out)
    out += memoryview(blob)
    return starts


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
    against a per-vertex reference encoder in ``tests/test_kernels.py``.
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
