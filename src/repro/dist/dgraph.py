"""Distributed graph: contiguous vertex ranges + ghost vertices.

Following dKaMinPar (Section II-B): edges are assigned to the rank owning
the source vertex; a target vertex owned elsewhere is replicated as a
*ghost* (no outgoing edges), requiring extra memory for the ghost<->global
mappings.  With ``compressed=True`` each shard's neighborhoods are stored
with the Section III codec (gap + interval + VarInt), which is exactly what
turns dKaMinPar into xTeraPart.

The simulation keeps adjacency in global IDs, so a level is encoded once
by the shared :func:`~repro.graph.compressed.compress_graph` and a shard is
a row range of the result, read through the access layer like every
other graph in the repo.  Per-rank ledgers charge the shard's storage (CSR or compressed) plus
16 bytes per ghost for the mapping, reproducing the paper's 1.2-1.3x
distributed overhead and the per-node OOM behaviour of the uncompressed
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dist.comm import SimComm
from repro.graph.compressed import compress_graph
from repro.memory.scratch import tracked_full, tracked_zeros


@dataclass
class Shard:
    """One rank's part of a level: rows ``lo..hi`` of the level's graph.

    The simulation keeps every level in global IDs, so a shard does not
    copy its rows: ``graph`` is the level's ``CSRGraph`` (dKaMinPar) or its
    :func:`~repro.graph.compressed.compress_graph` image (xTeraPart), and
    ``storage_bytes`` is what rows ``lo..hi`` of it occupy on the rank.
    """

    rank: int
    lo: int
    hi: int
    graph: object
    vwgt: np.ndarray
    ghosts: np.ndarray
    storage_bytes: int

    @property
    def n_local(self) -> int:
        return self.hi - self.lo

    @property
    def ghost_bytes(self) -> int:
        # global<->local ghost mapping: ~16 bytes per ghost (hash map entry)
        return 16 * len(self.ghosts)


@dataclass
class DistributedGraph:
    """The full distributed graph: one shard per rank."""

    comm: SimComm
    ranges: np.ndarray  # size+1 global offsets
    shards: list[Shard]
    n: int
    m: int  # undirected edge count
    total_vertex_weight: int
    total_edge_weight: int
    shard_aids: list[int] = field(default_factory=list)

    @property
    def graph(self):
        """The level's graph, of which every shard is a row range."""
        return self.shards[0].graph

    def owner_of(self, v: int | np.ndarray):
        return np.searchsorted(self.ranges, v, side="right") - 1

    @property
    def num_ranks(self) -> int:
        return self.comm.size

    def free(self) -> None:
        for rank, aid in enumerate(self.shard_aids):
            self.comm.trackers[rank].free(aid)
        self.shard_aids.clear()


def _split_ranges(n: int, size: int) -> np.ndarray:
    base = n // size
    extra = n % size
    counts = tracked_full(size, base, np.int64, name="split-range-counts")
    counts[:extra] += 1
    ranges = tracked_zeros(size + 1, np.int64, name="split-ranges")
    np.cumsum(counts, out=ranges[1:])
    return ranges


def distribute_graph(
    graph,
    comm: SimComm,
    *,
    compressed: bool = False,
    ranges: np.ndarray | None = None,
) -> DistributedGraph:
    """Split a CSR graph into per-rank shards.

    Default ranges are contiguous and balanced by vertex count (KaGen
    style); distributed contraction passes explicit ranges so each coarse
    vertex lands on the rank that owns its cluster leader.
    """
    n = graph.n
    if ranges is None:
        ranges = _split_ranges(n, comm.size)
    else:
        ranges = np.ascontiguousarray(ranges, dtype=np.int64)
        if len(ranges) != comm.size + 1 or ranges[0] != 0 or ranges[-1] != n:
            raise ValueError("ranges must be a size+1 prefix array covering n")
    shards: list[Shard] = []
    aids: list[int] = []
    # one encoder call per level; each rank's byte stream is the slice
    # data[offsets[lo]:offsets[hi]] of it
    level = compress_graph(graph) if compressed else graph
    for rank in range(comm.size):
        lo, hi = int(ranges[rank]), int(ranges[rank + 1])
        a, b = int(graph.indptr[lo]), int(graph.indptr[hi])
        adj = graph.adjncy[a:b]
        vwgt = np.asarray(graph.vwgt)[lo:hi]
        n_local = hi - lo
        if compressed:
            # encoded bytes + offsets + degrees
            rows = (
                int(level.offsets[hi] - level.offsets[lo])
                + 8 * (n_local + 1)
                + 8 * n_local
            )
        else:
            # indptr + neighbor IDs + edge weights
            rows = (
                8 * (n_local + 1)
                + adj.nbytes
                + np.asarray(graph.adjwgt)[a:b].nbytes
            )
        shard = Shard(
            rank,
            lo,
            hi,
            level,
            vwgt,
            ghosts=np.unique(adj[(adj < lo) | (adj >= hi)]),
            storage_bytes=rows + vwgt.nbytes,
        )
        aid = comm.trackers[rank].alloc(
            f"shard-{rank}", shard.storage_bytes + shard.ghost_bytes, "graph"
        )
        shards.append(shard)
        aids.append(aid)
    return DistributedGraph(
        comm=comm,
        ranges=ranges,
        shards=shards,
        n=n,
        m=graph.m,
        total_vertex_weight=graph.total_vertex_weight,
        total_edge_weight=graph.total_edge_weight,
        shard_aids=aids,
    )
