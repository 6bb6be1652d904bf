"""One compiled call per k-way FM pass (``fm_kernel.c``).

:func:`bind` ties ``repro_fm_pass`` to one round's partition, gain table and
graph; calling the result with a pass's seeds runs the whole pass in C --
seed scoring, the max-gain queue, every best move, the moves, the table's
delta updates and the rollback to the best prefix -- in place on
``pgraph.partition``, ``pgraph.block_weights`` and the table's own numpy
arrays, which stay numpy-owned and ledger-charged.  A global pass
(:mod:`repro.core.refinement.fm_refine`) is one search seeded with every
seed; a localized pass (:mod:`repro.core.refinement.fm_localized`) one
search per seed.  The C header states the contract and why the pass is
bit-identical to the Python pass it replaced (kept in ``tests/oracles.py``
as its reference).  :func:`bind` refuses with a ``ValueError`` vertex
weights whose sums the kernel cannot hold (as the LP rounds do), an abort
slack outside ``[0, 2^62)`` and arrays it does not know; the entry points
refuse such an input graph before any work.

The round before the pass is compiled too: :func:`build_table` fills a
freshly laid-out sparse or full table and lists the round's seeds in one
``repro_gain_table_build`` walk, byte-equal to the numpy build it replaced
(also in ``tests/oracles.py``); :func:`boundary_vertices` is the same walk
with no table.

A CSR graph is read through its ``indptr`` / adjacency, a compressed graph
through its degrees and byte stream, one neighbourhood decoded at a time (a
chunk-encoded hub chunk by chunk).  A refusal is raised as the Python pass
raises it (a negative affinity as ``AssertionError``, a full hash row as
``RuntimeError``, a bad id as ``ValueError`` naming the vertex), with the
partition and the table as the pass found them.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core.kernels.lp_chunk import _adjacency, _pointers, _vertex_weights, _weight_args
from repro.graph import _native
from repro.graph.access import count_edges, count_walk, vertex_segments
from repro.graph.compressed import stream_blocks
from repro.memory.scratch import tracked_empty, tracked_zeros

#: the fields of the kernel's ``out`` (``fm_kernel.c``)
IMPROVEMENT_LO, IMPROVEMENT_HI, MOVES, ROLLED_BACK, SEARCHES, LOCKS, RECOMPUTE = range(7)
_KINDS = {"none": 0, "full": 1, "sparse": 2}
_VERTEX, _BLOCK, _NEGATIVE, _FULL, _MEMORY = -1, -3, -4, -5, -6
#: stopping counts past this are never reached, so clamping keeps the rule
_COUNT_LIMIT = 1 << 62


def _contiguous(a, dtype, shape) -> bool:
    return (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.shape == shape
        and a.flags.c_contiguous
    )


def _table_args(table, n: int, k: int):
    """``(kind, keys, vals, offsets, dense, vals_len)`` of ``table`` as the
    kernel takes it; a ``ValueError`` for arrays it does not know."""
    keys, vals, offsets, dense = table.kernel_arrays()
    if table.kind == "none":
        ok = True
    elif table.kind == "full":
        ok = _contiguous(vals, np.int64, (n, k))
    else:
        ok = table.kind == "sparse" and _contiguous(vals, np.int64, (len(vals),))
        ok = ok and _contiguous(keys, np.int32, vals.shape)
        ok = ok and _contiguous(offsets, np.int64, (n + 1,)) and _contiguous(dense, np.bool_, (n,))
    if not ok:
        raise ValueError(f"the {table.kind} gain table's arrays are not what the kernel reads")
    size = 0 if vals is None else vals.size
    return _KINDS[table.kind], keys, vals, offsets, dense, size


def _source_args(graph, streams: int = 2) -> tuple[tuple, list]:
    """``(args, held)``: the graph as the kernel reads it -- ``(indptr, adj,
    wgt, unit_wgt, adj_len, degs, streams)``, ``streams`` neighbourhood
    scratches for a compressed graph -- and the arrays those point into."""
    indptr, degrees, adj, wgt = vertex_segments(graph)
    if indptr is not None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.shape != (graph.n + 1,):
            raise ValueError(f"indptr needs {graph.n + 1} entries")
        (adj, wgt, unit, adj_len), adjacency = _adjacency(adj, wgt)
        return (indptr, adj, wgt, unit, adj_len, None, None), [indptr, adjacency]
    # compressed: every row decoded from the stream as it is read
    degrees = np.ascontiguousarray(degrees, dtype=np.int64)
    blocks, stream_held = stream_blocks(graph, streams, "fm-stream-scratch")
    args = (None, None, None, 1, 0, degrees, ctypes.addressof(blocks))
    return args, [degrees, blocks, stream_held]


def _partition(pgraph) -> np.ndarray:
    if not _contiguous(pgraph.partition, np.int32, (pgraph.graph.n,)):
        raise ValueError(f"the partition must be {pgraph.graph.n} contiguous int32 block ids")
    return pgraph.partition


def _walk(fn, pgraph, *table) -> tuple[int, np.ndarray]:
    """One walk of ``fn`` over ``pgraph``'s rows, the table arguments
    ``table`` filled as it goes: ``(locks, seeds)``, the seeds ascending
    int64.  A refusal (a bad id, a corrupt stream, a row with no slot left)
    is raised as the pass raises it."""
    graph = pgraph.graph
    part = _partition(pgraph)
    source, held = _source_args(graph, 1)
    seeds = tracked_empty(graph.n, name="fm-seeds")
    out, info = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
    rc = fn(graph.n, *_pointers((*source, pgraph.k, part, *table, seeds, out, info)))
    if rc < 0:
        raise _refusal(rc, int(info[0]), int(info[1]))
    count_walk(graph)
    return int(out[0]), seeds[: out[1]]


def build_table(table) -> tuple[int, np.ndarray]:
    """Fill ``table``, a sparse or full gain table whose arrays are freshly
    laid out (keys empty, values zero), from its partition and list the
    round's seeds, in one ``repro_gain_table_build`` call; a sparse table's
    ``_width_bits`` too.  Returns the lock acquisitions of the hash-row
    inserts and the seeds (what :func:`boundary_vertices` returns)."""
    pgraph = table._pgraph
    n, k = pgraph.graph.n, pgraph.k
    kind, keys, vals, offsets, dense, size = _table_args(table, n, k)
    width = getattr(table, "_width_bits", None)
    if kind == _KINDS["sparse"] and not _contiguous(width, np.int64, (n,)):
        raise ValueError(f"the entry widths must be {n} contiguous int64 entries")
    build, _ = _native.gain_table_kernels()
    return _walk(build, pgraph, kind, keys, vals, offsets, dense, size, width)


def boundary_vertices(pgraph) -> np.ndarray:
    """Every vertex with a neighbour in another block, ascending (int64): one
    ``repro_boundary_vertices`` call."""
    _, scan = _native.gain_table_kernels()
    return _walk(scan, pgraph)[1]


class FMPass:
    """``repro_fm_pass`` bound to one round's partition, table and graph."""

    def __init__(self, fn, pgraph, table, vwgt, max_block_weight: int, slack: int, table_args):
        self._fn, self._pgraph, self._table, self._slack = fn, pgraph, table, slack
        self.info = np.zeros(2, dtype=np.int64)
        self.out = tracked_zeros(RECOMPUTE + 1, name="fm-pass-out")
        source, held = _source_args(pgraph.graph)
        self._held = (held, vwgt, table_args)
        self._args = _pointers((
            pgraph.graph.n, *source, pgraph.k, pgraph.partition, pgraph.block_weights,
            *_weight_args(vwgt), _native.clamp_weight(max_block_weight), *table_args,
        ))  # fmt: skip

    def __call__(
        self,
        seeds: np.ndarray,
        locked: np.ndarray,
        *,
        localized: bool,
        max_fruitless: int = 0,
        max_region: int = 0,
    ) -> tuple[int, int, int, int]:
        """Run one pass from ``seeds`` (a localized pass: one search each, in
        this order); ``locked`` is the pass's zeroed ``n``-byte lock array.
        Returns ``(improvement, moves kept, moves rolled back, searches)``
        and adds the table's lock acquisitions / recompute edges to it.  A
        global pass over a table that caches nothing reports the seeds'
        neighbourhoods to the edge counters, read as a batched gain query
        reads them."""
        graph = self._pgraph.graph
        n = graph.n
        seeds = np.ascontiguousarray(seeds, dtype=np.int64)
        if not _contiguous(locked, np.bool_, (n,)):
            raise ValueError(f"locked must be {n} contiguous booleans")
        out, info = self.out, self.info
        rc = self._fn(
            *self._args, seeds.ctypes.data, len(seeds), int(localized),
            max(-1, min(max_fruitless, _COUNT_LIMIT)), max(-1, min(max_region, _COUNT_LIMIT)),
            self._slack, locked.ctypes.data, out.ctypes.data, info.ctypes.data,
        )  # fmt: skip
        if rc < 0:
            raise _refusal(rc, int(info[0]), int(info[1]))
        if self._table.kind == "none" and not localized:
            count_edges(graph, graph.degrees[seeds])
        if self._table.kind == "none":
            self._table.recompute_edges += int(out[RECOMPUTE])
        elif self._table.kind == "sparse":
            self._table.lock_acquisitions += int(out[LOCKS])
        improvement = (int(out[IMPROVEMENT_HI]) << 64) + (int(out[IMPROVEMENT_LO]) & (2**64 - 1))
        return improvement, int(out[MOVES]), int(out[ROLLED_BACK]), int(out[SEARCHES])


def _refusal(rc: int, vertex: int, block: int) -> Exception:
    """The exception the Python pass raises for what the kernel refused."""
    if rc == _NEGATIVE:
        return AssertionError(f"negative affinity at vertex {vertex}, block {block}")
    if rc == _FULL:
        return RuntimeError(f"gain table for vertex {vertex} is full (degree bound violated?)")
    if rc == _MEMORY:
        return MemoryError("k-way FM pass: out of memory")
    # an out-of-range id is named even when negative; -1 elsewhere is "none"
    where = f" at vertex {vertex}" if rc == _VERTEX or vertex >= 0 else ""
    if rc == _BLOCK:
        where += f" (block {block})"
    if rc in _native.FM_ERRORS:
        return ValueError(f"{_native.FM_ERRORS[rc]}{where} (corrupt graph or gain table?)")
    return ValueError(f"{_native.ERRORS[rc - _native.DECODE_ERROR]}{where} (corrupt stream?)")


def bind(pgraph, table, max_block_weight: int, *, slack: int = 2) -> FMPass:
    """The compiled pass over ``pgraph`` and ``table``.  ``slack`` is a
    global pass's abort slack (a localized search's is 2)."""
    if not 0 <= slack < _native.WEIGHT_LIMIT:
        raise ValueError(f"FM abort slack {slack} is outside [0, 2^62)")
    graph = pgraph.graph
    vwgt = _vertex_weights(graph.vwgt, graph.n)
    n, k = graph.n, pgraph.k
    _partition(pgraph)
    if not _contiguous(pgraph.block_weights, np.int64, (k,)):
        raise ValueError(f"the block weights must be {k} contiguous int64 entries")
    table_args = _table_args(table, n, k)
    return FMPass(_native.fm_kernel(), pgraph, table, vwgt, max_block_weight, slack, table_args)
