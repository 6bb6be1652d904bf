"""Graph I/O: binary CSR format, METIS text format, streaming loader.

The paper stores graphs "on disk in an uncompressed binary format" and
streams them into (optionally compressed) memory in a single pass.  The
binary format here mirrors that: a small header followed by the raw
``indptr`` / ``adjncy`` / optional weight arrays.  :func:`stream_compressed`
reads the file in vertex packets and feeds them straight into the codec
without ever materialising the full CSR -- the single-pass pipeline of
Section III-B at file level.

The METIS text format is supported because Mt-Metis "reads graphs in a text
format" (the paper uses this to justify excluding I/O from timings).
"""

from __future__ import annotations

import io as _io
import os
import struct
from pathlib import Path

import numpy as np

from repro.graph.compressed import CompressedGraph, _compress_packets
from repro.graph.csr import CSRGraph
from repro.parallel.runtime import balanced_cuts

MAGIC = b"TPGR"
VERSION = 1
_HEADER = struct.Struct("<4sIQQBB6x")  # magic, version, n, 2m, ew flag, vw flag


def write_binary(graph: CSRGraph, path: str | Path) -> None:
    """Write a graph in the uncompressed binary on-disk format."""
    path = Path(path)
    with path.open("wb") as f:
        f.write(
            _HEADER.pack(
                MAGIC,
                VERSION,
                graph.n,
                graph.num_directed_edges,
                1 if graph.has_edge_weights else 0,
                1 if graph.has_vertex_weights else 0,
            )
        )
        f.write(graph.indptr.tobytes())
        f.write(graph.adjncy.tobytes())
        if graph.has_edge_weights:
            f.write(np.ascontiguousarray(graph.adjwgt).tobytes())
        if graph.has_vertex_weights:
            f.write(np.ascontiguousarray(graph.vwgt).tobytes())


def _read_header(f) -> tuple[int, int, bool, bool]:
    """Parse the header and check the file is exactly as long as it claims,
    so no body read is sized by an unchecked ``n`` or comes back short."""
    raw = f.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated header")
    magic, version, n, m2, ew, vw = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    ew, vw = bool(ew), bool(vw)
    expected = _HEADER.size + 8 * (
        (n + 1) + m2 * (2 if ew else 1) + (n if vw else 0)
    )
    size = os.fstat(f.fileno()).st_size
    if size < expected:
        raise ValueError(
            f"truncated body: header (n={n}, 2m={m2}) needs {expected} bytes, "
            f"file has {size}"
        )
    if size > expected:
        raise ValueError(f"{size - expected} trailing bytes after the graph")
    return n, m2, ew, vw


def _read_int64(f, count: int) -> np.ndarray:
    return np.frombuffer(f.read(8 * count), dtype=np.int64)


def read_binary(path: str | Path) -> CSRGraph:
    """Load a binary graph fully into an uncompressed CSR."""
    with Path(path).open("rb") as f:
        n, m2, ew, vw = _read_header(f)
        indptr = _read_int64(f, n + 1)
        adjncy = _read_int64(f, m2)
        adjwgt = _read_int64(f, m2) if ew else None
        vwgt = _read_int64(f, n) if vw else None
    return CSRGraph(
        indptr.copy(),
        adjncy.copy(),
        None if adjwgt is None else adjwgt.copy(),
        None if vwgt is None else vwgt.copy(),
        sorted_neighborhoods=True,
    )


def stream_compressed(
    path: str | Path,
    *,
    enable_intervals: bool = True,
    high_degree_threshold: int = 10_000,
    chunk_length: int = 1_000,
    packet_edges: int = 1 << 16,
    tracker=None,
) -> CompressedGraph:
    """Stream a binary graph from disk directly into compressed form.

    Never holds the uncompressed edge array in memory: reads ``indptr``,
    then consumes ``adjncy`` (and weights) in packets of roughly
    ``packet_edges`` directed edges, compressing each packet as it arrives.
    This is the file-level realisation of the paper's single-pass I/O.
    """
    with Path(path).open("rb") as f:
        n, m2, ew, vw = _read_header(f)
        indptr = _read_int64(f, n + 1)
        if indptr[0] != 0 or indptr[-1] != m2 or np.any(np.diff(indptr) < 0):
            raise ValueError(
                f"indptr must rise from 0 to 2m={m2} without decreasing"
            )
        adj_start = f.tell()
        wgt_start = adj_start + 8 * m2
        vwgt = None
        if vw:
            f.seek(wgt_start + (8 * m2 if ew else 0))
            vwgt = _read_int64(f, n).copy()

        def packets():
            cuts = balanced_cuts(indptr, packet_edges).tolist()
            for a, b in zip(cuts[:-1], cuts[1:]):
                lo, hi = int(indptr[a]), int(indptr[b])
                f.seek(adj_start + 8 * lo)
                adj = _read_int64(f, hi - lo)
                if hi > lo and not (0 <= adj.min() and adj.max() < n):
                    bad = adj[(adj < 0) | (adj >= n)][0]
                    raise ValueError(
                        f"adjncy contains out-of-range vertex ID {bad} (n={n})"
                    )
                wgt = None
                if ew:
                    f.seek(wgt_start + 8 * lo)
                    wgt = _read_int64(f, hi - lo)
                yield a, indptr[a : b + 1], adj, wgt

        return _compress_packets(
            packets(),
            n,
            m2,
            ew,
            vwgt,
            tracker=tracker,
            enable_intervals=enable_intervals,
            high_degree_threshold=high_degree_threshold,
            chunk_length=chunk_length,
        )


# --------------------------------------------------------------------- #
# METIS text format
# --------------------------------------------------------------------- #
def _write_metis_body(graph, f) -> None:
    """Write METIS header + adjacency lines via one bulk adjacency scan.

    Using :func:`full_adjacency` means compressed graphs are decoded once
    through the vectorized path instead of per vertex.
    """
    from repro.graph.access import full_adjacency

    fmt = ""
    if graph.has_edge_weights or graph.has_vertex_weights:
        fmt = f" {'1' if graph.has_vertex_weights else '0'}{'1' if graph.has_edge_weights else '0'}"
    f.write(f"{graph.n} {graph.m}{fmt}\n")
    _src, nbrs, wgts = full_adjacency(graph)
    degrees = np.asarray(graph.degrees)
    nbrs_list = (np.asarray(nbrs) + 1).tolist()
    wgts_list = np.asarray(wgts).tolist()
    lo = 0
    for u in range(graph.n):
        parts: list[str] = []
        if graph.has_vertex_weights:
            parts.append(str(int(graph.vwgt[u])))
        hi = lo + int(degrees[u])
        for i in range(lo, hi):
            parts.append(str(nbrs_list[i]))
            if graph.has_edge_weights:
                parts.append(str(wgts_list[i]))
        lo = hi
        f.write(" ".join(parts) + "\n")


def write_metis(graph: CSRGraph, path: str | Path) -> None:
    """Write the METIS text format (1-indexed)."""
    with Path(path).open("w") as f:
        _write_metis_body(graph, f)


def _metis_ints(line: str, line_no: int) -> list[int]:
    try:
        values = [int(token) for token in line.split()]
    except ValueError:
        raise ValueError(f"line {line_no}: non-integer token in {line.strip()!r}") from None
    if values and not -(1 << 63) <= min(values) <= max(values) < 1 << 63:
        raise ValueError(f"line {line_no}: integer beyond 64 bits")
    return values


def read_metis(path_or_file) -> CSRGraph:
    """Parse the METIS text format.

    Lines starting with ``%`` are comments.  Text the format does not allow
    -- a header without ``n m``, a token that is no integer, an edge weight
    missing after its neighbour, a neighbour outside ``[1, n]``, fewer than
    ``n`` vertex lines, bytes that are not UTF-8 -- is a ``ValueError``
    naming the 1-based line.  Nothing is sized by the header: the arrays
    grow with the lines read, so a header announcing more vertices than the
    text holds costs nothing before it is refused.
    """
    if isinstance(path_or_file, (str, Path)):
        # undecodable bytes become lone surrogates: a token holding one is
        # refused like any other non-integer, on its own line
        f = Path(path_or_file).open("r", encoding="utf-8", errors="surrogateescape")
        close = True
    else:
        f = path_or_file
        close = False
    try:
        lines = (
            (no, line) for no, line in enumerate(f, 1) if not line.startswith("%")
        )
        no, line = next(lines, (1, ""))
        header_no = no
        header = _metis_ints(line, no)
        if len(header) < 2 or min(header[:2]) < 0:
            raise ValueError(f"line {no}: header must be 'n m [fmt]', got {line.strip()!r}")
        n, m = header[:2]
        fmt = (line.split()[2] if len(header) > 2 else "").zfill(2)
        if set(fmt) - {"0", "1"}:
            raise ValueError(f"line {no}: format flags must be 0 or 1, got {fmt!r}")
        has_vw, has_ew = fmt[-2] == "1", fmt[-1] == "1"
        indptr = [0]
        adjncy: list[int] = []
        adjwgt: list[int] = []
        vwgt: list[int] = []
        for u in range(n):
            last = no
            no, line = next(lines, (None, ""))
            if no is None:
                raise ValueError(f"line {last + 1}: file ends after {u} of {n} vertex lines")
            values = _metis_ints(line, no)
            if has_vw:
                if not values:
                    raise ValueError(f"line {no}: vertex weight missing")
                vwgt.append(values.pop(0))
            if has_ew:
                if len(values) % 2:
                    raise ValueError(
                        f"line {no}: edge weight missing after neighbor {values[-1]}"
                    )
                adjwgt.extend(values[1::2])
                values = values[0::2]
            if values and not 1 <= min(values) <= max(values) <= n:
                bad = next(v for v in values if not 1 <= v <= n)
                raise ValueError(f"line {no}: neighbor id {bad} outside [1, {n}]")
            adjncy.extend(v - 1 for v in values)
            indptr.append(len(adjncy))
        if indptr[-1] != 2 * m:
            raise ValueError(
                f"line {header_no}: header claims m={m} but found {indptr[-1]} directed edges"
            )
        return CSRGraph(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(adjncy, dtype=np.int64),
            np.asarray(adjwgt, dtype=np.int64) if has_ew else None,
            np.asarray(vwgt, dtype=np.int64) if has_vw else None,
        )
    finally:
        if close:
            f.close()


def roundtrip_text(graph: CSRGraph) -> CSRGraph:
    """Write+read through METIS text in memory (for tests)."""
    buf = _io.StringIO()
    _write_metis_body(graph, buf)
    buf.seek(0)
    return read_metis(buf)
