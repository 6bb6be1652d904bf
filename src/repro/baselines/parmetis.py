"""ParMETIS-style distributed multilevel partitioner [32].

Quality is competitive with xTeraPart (Table III shows cuts within ~15%)
because it is a genuine multilevel algorithm; the difference is memory: the
matching-based coarsening hierarchy, uncompressed shards, buffered
contraction, and replication during initial partitioning push per-rank
usage roughly an order of magnitude above xTeraPart, so it runs out of
memory at graphs 64x smaller (Fig. 8 left/middle; OOM markers in
Table III).

Implemented as the distributed driver with uncompressed shards plus the
matching-era memory profile charged to every rank: per-level match/cmap
arrays and buffered coarse-edge arrays.
"""

from __future__ import annotations

from repro.dist.comm import SimComm
from repro.dist.dpartitioner import DistConfig, DistPartitionResult, dpartition


def parmetis_partition(
    graph,
    k: int,
    ranks: int = 8,
    *,
    epsilon: float = 0.03,
    seed: int = 0,
    rank_memory_budget: int | None = None,
) -> DistPartitionResult:
    """Distributed matching-based multilevel partitioning (simulated).

    The result's ``oom`` flag reports per-rank budget violations, matching
    the paper's OOM entries.
    """
    comm = SimComm(ranks)
    n_local = -(-graph.n // ranks)
    m2_local = -(-graph.num_directed_edges // ranks)
    charges = []
    for r in range(ranks):
        # matching vector + coarsening map per hierarchy level (~log n
        # levels with shrink <= 2; charge a conservative 8 levels) and the
        # buffered coarse edge arrays of the current contraction
        aux = 8 * (8 * 2 * n_local) + 32 * m2_local
        charges.append(comm.trackers[r].alloc(f"parmetis-aux-{r}", aux, "matching"))
    cfg = DistConfig(
        seed=seed,
        epsilon=epsilon,
        rank_memory_budget=rank_memory_budget,
        lp_rounds=2,
        refine_rounds=2,
    )
    result = dpartition(graph, k, comm, compressed=False, config=cfg)
    for r, aid in enumerate(charges):
        comm.trackers[r].free(aid)
    # recompute peaks including the aux charges
    peaks = comm.rank_peaks()
    result.rank_peak_bytes = peaks
    result.max_rank_peak_bytes = max(peaks)
    result.oom = (
        rank_memory_budget is not None and max(peaks) > rank_memory_budget
    )
    return result
