"""Simulated MPI communicator.

Collectives take rank-indexed inputs and return rank-indexed outputs; the
simulation executes them atomically (a superstep barrier).  Per-rank memory
ledgers live here too: the binding constraint in Figure 8 is per-node memory.

``SimComm.stats`` is the one traffic ledger (``result.comm``, the cost
model): :meth:`SimComm._record` counts each collective once.  While a traced
run has attached rank 0's span tracer (``tracer``), the same call prices the
payload under the Section III varint codec too and adds ``comm.raw_bytes`` /
``comm.varint_bytes`` / ``comm.messages`` to rank 0's innermost open span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.varint import stream_len, zigzag_encode
from repro.memory.tracker import MemoryTracker


@dataclass
class CollectiveStats:
    """Counters of one collective kind (alltoallv, allgather, ...)."""

    calls: int = 0
    messages: int = 0
    bytes_sent: int = 0
    varint_bytes: int = 0  # only collectives issued while tracing was on


@dataclass
class CommStats:
    """Aggregate communication measurements, split by collective kind;
    written only by :meth:`SimComm._record`."""

    bytes_sent: int = 0
    messages: int = 0
    supersteps: int = 0
    by_kind: dict[str, CollectiveStats] = field(default_factory=dict)

    @property
    def varint_bytes(self) -> int:
        return sum(ks.varint_bytes for ks in self.by_kind.values())


def _varint_leaf(x) -> int:
    """Section III codec price of an integer leaf: delta (first value
    absolute) + zigzag + varint, as for adjacency streams; 2-D arrays
    column-wise (e.g. the ``(src, dst, weight)`` contraction buckets), float
    buffers at their true size."""
    if not isinstance(x, np.ndarray):
        return int(stream_len(zigzag_encode(np.array([int(x)]))))
    if x.size == 0:
        return 0
    if x.dtype.kind not in "iub":
        return x.nbytes
    if x.ndim == 2:
        return sum(
            _varint_leaf(np.ascontiguousarray(x[:, j]))
            for j in range(x.shape[1])
        )
    vals = x.astype(np.int64, copy=False).ravel()
    deltas = np.empty_like(vals)
    deltas[0] = vals[0]
    np.subtract(vals[1:], vals[:-1], out=deltas[1:])
    return int(stream_len(zigzag_encode(deltas)))


def payload_nbytes(obj, varint: bool = False) -> int:
    """Exact wire bytes of one collective operand.

    Containers recurse into their elements; bytes and strings cost their
    length, booleans one byte, floats and unknown objects one word.  Arrays
    and integers are priced raw (buffer size, one word), or with
    ``varint=True`` by the codec (:func:`_varint_leaf`).
    """
    if isinstance(obj, np.ndarray):  # first: the common operand
        return _varint_leaf(obj) if varint else obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x, varint) for x in obj)
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k, varint) + payload_nbytes(v, varint)
            for k, v in obj.items()
        )
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (bool, np.bool_)):
        return 1
    if obj is None:
        return 0
    if isinstance(obj, (int, np.integer)):
        return _varint_leaf(obj) if varint else 8
    return 8


class SimComm:
    """A communicator over ``size`` simulated ranks."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        self.size = size
        self.stats = CommStats()
        self.trackers = [MemoryTracker() for _ in range(size)]
        self.tracer = None  # rank 0's SpanTracer while a traced run is open

    def _record(self, kind: str, payload, copies: int, nmsgs: int) -> None:
        """Count one collective: ``copies`` wire copies of ``payload``."""
        raw = payload_nbytes(payload) * copies
        varint = 0
        if self.tracer is not None:
            varint = payload_nbytes(payload, varint=True) * copies
            self.tracer.add("comm.raw_bytes", raw)
            self.tracer.add("comm.varint_bytes", varint)
            self.tracer.add("comm.messages", nmsgs)
        stats = self.stats
        stats.bytes_sent += raw
        stats.messages += nmsgs
        stats.supersteps += 1
        ks = stats.by_kind.get(kind)
        if ks is None:
            ks = stats.by_kind[kind] = CollectiveStats()
        ks.calls += 1
        ks.messages += nmsgs
        ks.bytes_sent += raw
        ks.varint_bytes += varint

    # ------------------------------------------------------------------ #
    # collectives (rank-indexed in, rank-indexed out)
    # ------------------------------------------------------------------ #
    def alltoallv(self, send: list[list]) -> list[list]:
        """``send[src][dst]`` -> ``recv[dst][src]``."""
        self._check_square(send)
        wire = [
            send[s][d]
            for s in range(self.size)
            for d in range(self.size)
            if s != d
        ]
        self._record("alltoallv", wire, 1, self.size * (self.size - 1))
        return [
            [send[s][d] for s in range(self.size)] for d in range(self.size)
        ]

    def allgather(self, items: list) -> list[list]:
        """Every rank contributes one item; all ranks receive all items."""
        if len(items) != self.size:
            raise ValueError("allgather needs one item per rank")
        self._record(
            "allgather", items, self.size - 1, self.size * (self.size - 1)
        )
        return [list(items) for _ in range(self.size)]

    def allreduce(self, values: list[np.ndarray], op: str = "sum") -> np.ndarray:
        """Element-wise reduction of one array per rank; result replicated."""
        if len(values) != self.size:
            raise ValueError("allreduce needs one value per rank")
        arrs = [np.asarray(v) for v in values]
        # reduce-then-broadcast tree: 2 traversals of (size - 1) links
        self._record(
            "allreduce", arrs[0], 2 * (self.size - 1), 2 * (self.size - 1)
        )
        if op == "sum":
            return np.sum(arrs, axis=0)
        if op == "max":
            return np.max(arrs, axis=0)
        if op == "min":
            return np.min(arrs, axis=0)
        raise ValueError(f"unknown reduction {op!r}")

    def bcast(self, value, root: int = 0):
        """Root's value replicated to every rank."""
        self._record("bcast", value, self.size - 1, self.size - 1)
        return [value for _ in range(self.size)]

    def barrier(self) -> None:
        self._record("barrier", None, 0, self.size)

    # ------------------------------------------------------------------ #
    # per-rank memory
    # ------------------------------------------------------------------ #
    def max_rank_peak_bytes(self) -> int:
        return max(t.peak_bytes for t in self.trackers)

    def rank_peaks(self) -> list[int]:
        return [t.peak_bytes for t in self.trackers]

    def _check_square(self, send: list[list]) -> None:
        if len(send) != self.size or any(len(row) != self.size for row in send):
            raise ValueError(
                f"alltoallv needs a {self.size}x{self.size} send matrix"
            )
