"""The distributed multilevel driver (dKaMinPar / xTeraPart).

Pipeline (Section II-B):

1. **Coarsening**: batch-synchronous distributed LP clustering, then a
   distributed contraction -- coarse vertices are owned by the rank owning
   the cluster leader, coarse edges travel to their owner via alltoallv.
2. **Initial partitioning**: *every rank obtains a full copy of the
   coarsest graph* (a deliberate memory spike, charged per rank) and runs
   the shared-memory partitioner with rank-specific seeds; the best result
   wins and is broadcast.
3. **Uncoarsening**: project, batch-synchronous LP refinement, explicit
   rebalancing of the violations the stale-weight batches introduce.

``compressed=True`` stores every level's shards with the Section III codec:
that single toggle is what turns dKaMinPar into xTeraPart, and it is what
lets the per-rank ledger stay under the node memory budget for graphs 8x
larger (Fig. 8 left/middle).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DistObsConfig
from repro.core.context import CONTRACTION_LIMIT_FACTOR, MIN_SHRINK_FACTOR
from repro.core.initial.recursive import initial_partition
from repro.core.coarsening.contraction import coarse_csr, dense_remap, summed_weights
from repro.core.kernels import cluster_leaders, contraction_step, group_by_label
from repro.core.partition import PartitionedGraph, max_block_weight
from repro.dist.comm import CommStats, SimComm
from repro.dist.dgraph import DistributedGraph, distribute_graph
from repro.dist.dlp import distributed_lp_clustering, distributed_lp_refine
from repro.graph import _native
from repro.graph.access import crossing_weight, segment_reduce_ratings
from repro.graph.compressed import decompress_graph
from repro.memory.scratch import tracked_zeros
from repro.obs.dist.cluster import NULL_CLUSTER_OBSERVER, ClusterObserver


@dataclass
class DistPartitionResult:
    partition: np.ndarray
    cut: int
    cut_fraction: float
    imbalance: float
    balanced: bool
    num_ranks: int
    max_rank_peak_bytes: int
    rank_peak_bytes: list[int]
    comm: CommStats
    wall_seconds: float
    modeled_seconds: float
    num_levels: int
    oom: bool = False
    # when obs is enabled: the finished ClusterObserver and the compact
    # registry snapshot (memory-ratio report + cluster roll-up)
    trace: object | None = None
    obs: dict | None = None


@dataclass
class DistConfig:
    """Distributed driver knobs."""

    lp_rounds: int = 3
    refine_rounds: int = 2
    batches: int = 4
    max_levels: int = 16
    # per-rank memory budget in bytes; exceeded -> OOM (Fig. 8 markers).
    rank_memory_budget: int | None = None
    seed: int = 0
    epsilon: float = 0.03
    obs: DistObsConfig = field(default_factory=DistObsConfig)

    def __post_init__(self) -> None:
        # batches=0 would rate no vertex at all, silently
        if self.batches < 1:
            raise ValueError(f"DistConfig.batches must be at least 1, got {self.batches}")
        for name in ("lp_rounds", "refine_rounds", "max_levels"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"DistConfig.{name} must not be negative, got {value}")


def _shard_footprint(dgraph: DistributedGraph) -> tuple[int, int]:
    """(resident shard bytes, ghost-mapping bytes) summed over ranks."""
    shard_bytes = sum(s.storage_bytes for s in dgraph.shards)
    ghost_bytes = sum(s.ghost_bytes for s in dgraph.shards)
    return int(shard_bytes), int(ghost_bytes)


def _contract_distributed(
    dgraph: DistributedGraph,
    labels: np.ndarray,
    leaders: np.ndarray,
    compressed: bool,
    tracer=NULL_CLUSTER_OBSERVER,
) -> tuple[DistributedGraph, np.ndarray]:
    """Contract a distributed clustering (its ``leaders``, as
    :func:`cluster_leaders` finds them) into a new distributed graph.

    Follows the dKaMinPar protocol: a coarse vertex is owned by the rank
    that owns its cluster leader; coarse IDs are assigned contiguously per
    owner (prefix offsets agreed via allgather); every rank aggregates its
    local coarse edges, buckets them by owner, and ships each bucket to its
    owner with one alltoallv; owners merge the received buckets into their
    shard of the coarse graph.
    """
    comm = dgraph.comm

    # ---- coarse numbering: contiguous per owner rank ---- #
    leader_owner = dgraph.owner_of(leaders)
    counts = np.bincount(leader_owner, minlength=comm.size).astype(np.int64)
    comm.allgather(list(counts))  # every rank learns all counts
    coarse_ranges = tracked_zeros(
        comm.size + 1, np.int64, name="coarse-rank-ranges"
    )
    np.cumsum(counts, out=coarse_ranges[1:])
    n_coarse = int(coarse_ranges[-1])
    # leaders are sorted, and owner is monotone in leader id (contiguous
    # fine ranges), so within-owner order is just the sorted order
    fine_to_coarse = dense_remap(labels, leaders)

    # ---- per-rank aggregation + bucketing by owner ---- #
    buckets: list[list[np.ndarray]] = [
        [np.empty((0, 3), dtype=np.int64) for _ in range(comm.size)]
        for _ in range(comm.size)
    ]
    # a rank's local pre-merge (reduces traffic, exactly like the real
    # system): one contraction step over its rows, a group per coarse id
    step = contraction_step(dgraph.graph, fine_to_coarse, n_coarse)
    coarse_ids = np.arange(n_coarse, dtype=np.int64)
    for shard in dgraph.shards:
        order, groups = group_by_label(fine_to_coarse[shard.lo : shard.hi], n_coarse)
        _, degrees, cv, w = step(shard.lo + order, groups)
        cu = np.repeat(coarse_ids, degrees)
        owners = np.searchsorted(coarse_ranges, cu, side="right") - 1
        for dst_rank in range(comm.size):
            mask = owners == dst_rank
            if np.any(mask):
                buckets[shard.rank][dst_rank] = np.stack(
                    [cu[mask], cv[mask], w[mask]], axis=1
                )
    received = comm.alltoallv(buckets)
    if tracer.enabled:
        for dst_rank, per_rank in enumerate(received):
            rows = sum(len(r) for r in per_rank)
            if rows:
                tracer.rank_add(dst_rank, "contract.rows_received", rows)

    # ---- owners merge their buckets into the coarse graph ---- #
    rows = np.concatenate([row for per_rank in received for row in per_rank])
    cu, cv, w = segment_reduce_ratings(
        rows[:, 0], rows[:, 1], rows[:, 2], n_coarse
    )
    tracer.add("contract.coarse_edges", len(cv))

    vwgt = summed_weights(fine_to_coarse, n_coarse, dgraph.graph.vwgt)
    degrees = np.bincount(cu, minlength=n_coarse)
    coarse = coarse_csr(degrees, cv, w, vwgt)
    dcoarse = distribute_graph(
        coarse, comm, compressed=compressed, ranges=coarse_ranges
    )
    return dcoarse, fine_to_coarse


#: bisection attempts of each rank's initial partitioning
INITIAL_ATTEMPTS = 2


def dpartition(
    graph,
    k: int,
    comm_or_ranks: SimComm | int = 8,
    *,
    compressed: bool = False,
    config: DistConfig | None = None,
) -> DistPartitionResult:
    """Partition ``graph`` on a simulated cluster of ranks.

    ``compressed=False`` is dKaMinPar; ``compressed=True`` is xTeraPart.
    A ``rank_memory_budget`` turns the run into a feasibility experiment:
    the result's ``oom`` flag reports whether any rank exceeded the budget
    (the per-node 256 GiB constraint of Fig. 8).

    With ``config.obs.enabled``, the run is traced by a
    :class:`~repro.obs.dist.cluster.ClusterObserver`: every driver phase is
    mirrored onto per-rank span trees coupled to the rank ledgers, every
    collective is attributed to the span that issued it, and the result
    carries the observer (``trace``) plus the memory-ratio registry
    (``obs``), frozen at return from the communicator's ledger.  Tracing
    never perturbs the partition (bit-identical, tested).  A graph whose
    weights the compiled kernels cannot hold is refused before any work, with
    a ``ValueError`` naming the bound (:func:`repro.graph._native.check_graph`).
    """
    _native.check_graph(graph, INITIAL_ATTEMPTS)
    cfg = config or DistConfig()
    comm = (
        comm_or_ranks
        if isinstance(comm_or_ranks, SimComm)
        else SimComm(comm_or_ranks)
    )
    tracer = ClusterObserver(comm) if cfg.obs.enabled else NULL_CLUSTER_OBSERVER
    t0 = time.perf_counter()

    with tracer.phase("dist-partition"):
        with tracer.phase("dist-distribute"):
            dgraph = distribute_graph(graph, comm, compressed=compressed)
        shard_bytes, ghost_bytes = _shard_footprint(dgraph)
        tracer.note_level(
            0,
            n=dgraph.n,
            m=dgraph.m,
            shard_bytes=shard_bytes,
            ghost_bytes=ghost_bytes,
        )
        top = dgraph
        hierarchy: list[tuple[DistributedGraph, np.ndarray]] = []
        limit = max(2 * k, CONTRACTION_LIMIT_FACTOR * k)
        total_weight = dgraph.total_vertex_weight
        max_cluster_weight = max(1, total_weight // max(limit, 1))

        current = dgraph
        level = 0
        with tracer.phase("dist-coarsening"):
            for _ in range(cfg.max_levels):
                if current.n <= limit:
                    break
                with tracer.phase(f"dist-lp-level{level}", level=level):
                    labels = distributed_lp_clustering(
                        current,
                        max_cluster_weight,
                        cfg.lp_rounds,
                        cfg.batches,
                        tracer=tracer,
                        level=level,
                    )
                leaders = cluster_leaders(labels)
                if current.n / max(len(leaders), 1) < MIN_SHRINK_FACTOR:
                    break
                with tracer.phase(f"dist-contract-level{level}", level=level):
                    coarse, fine_to_coarse = _contract_distributed(
                        current, labels, leaders, compressed, tracer=tracer
                    )
                shard_bytes, ghost_bytes = _shard_footprint(coarse)
                tracer.note_level(
                    level + 1,
                    n=coarse.n,
                    m=coarse.m,
                    shard_bytes=shard_bytes,
                    ghost_bytes=ghost_bytes,
                )
                hierarchy.append((current, fine_to_coarse))
                current = coarse
                level += 1

        # ---- initial partitioning: full coarsest copy on every rank ---- #
        with tracer.phase("dist-initial", level=len(hierarchy)):
            # every rank's copy is the level's own graph, as CSR
            coarsest = decompress_graph(current.graph) if compressed else current.graph
            copy_aids = [
                comm.trackers[r].alloc(
                    f"coarsest-copy-{r}", coarsest.nbytes, "initial"
                )
                for r in range(comm.size)
            ]
            comm.allgather([coarsest.nbytes for _ in range(comm.size)])
            best_part = None
            best_cut = None
            for r in range(comm.size):
                part = initial_partition(
                    coarsest,
                    k,
                    cfg.epsilon,
                    np.random.default_rng(cfg.seed * 1000 + r),
                    attempts=INITIAL_ATTEMPTS,
                    fm_rounds=1,
                )
                cut = PartitionedGraph(coarsest, k, part).cut_weight()
                if best_cut is None or cut < best_cut:
                    best_cut, best_part = cut, part
            comm.bcast(best_part)
            for r, aid in enumerate(copy_aids):
                comm.trackers[r].free(aid)

        # ---- uncoarsening ---- #
        partition = best_part.astype(np.int32)
        lmax = max_block_weight(total_weight, k, cfg.epsilon)
        cur_graph = current
        with tracer.phase("dist-refinement"):
            for rlevel in range(len(hierarchy), -1, -1):
                with tracer.phase(
                    f"dist-refinement-level{rlevel}", level=rlevel
                ):
                    bw = np.zeros(k, dtype=np.int64)
                    cvw = np.concatenate([s.vwgt for s in cur_graph.shards])
                    np.add.at(bw, partition, cvw)
                    distributed_lp_refine(
                        cur_graph,
                        partition,
                        bw,
                        lmax,
                        cfg.refine_rounds,
                        cfg.batches,
                        tracer=tracer,
                        level=rlevel,
                    )
                    with tracer.span("dist-rebalance", level=rlevel):
                        _rebalance_distributed(
                            cur_graph, partition, bw, k, lmax
                        )
                if rlevel > 0:
                    # project to the next finer level, drop the coarse one
                    finer, fine_to_coarse = hierarchy[rlevel - 1]
                    cur_graph.free()
                    partition = partition[fine_to_coarse]
                    cur_graph = finer

    cut = crossing_weight(cur_graph.graph, partition) // 2
    avg = total_weight / k
    imbalance = float(bw.max()) / avg - 1.0 if avg else 0.0
    wall = time.perf_counter() - t0
    peaks = comm.rank_peaks()
    oom = (
        cfg.rank_memory_budget is not None
        and max(peaks) > cfg.rank_memory_budget
    )
    modeled = _modeled_seconds(dgraph, comm, k)
    top.free()
    trace_obj = None
    obs_payload = None
    if tracer.enabled:
        tracer.finish()
        from repro.obs.dist.report import dist_obs_registry

        trace_obj = tracer
        obs_payload = dist_obs_registry(tracer)
    return DistPartitionResult(
        partition=partition,
        cut=cut,
        cut_fraction=cut / max(1, graph.total_edge_weight // 2),
        imbalance=imbalance,
        balanced=bool(bw.max() <= lmax),
        num_ranks=comm.size,
        max_rank_peak_bytes=max(peaks),
        rank_peak_bytes=peaks,
        comm=comm.stats,
        wall_seconds=wall,
        modeled_seconds=modeled,
        num_levels=len(hierarchy),
        oom=oom,
        trace=trace_obj,
        obs=obs_payload,
    )


def _rebalance_distributed(
    dgraph: DistributedGraph,
    partition: np.ndarray,
    block_weights: np.ndarray,
    k: int,
    lmax: int,
) -> int:
    """Greedy repair of balance violations (the paper's rebalancing step)."""
    vwgt = np.asarray(dgraph.graph.vwgt)
    moves = 0
    overloaded = [b for b in range(k) if block_weights[b] > lmax]
    dgraph.comm.allreduce(
        [block_weights.copy() for _ in range(dgraph.comm.size)], op="max"
    )
    for b in overloaded:
        members = np.flatnonzero(partition == b)
        order = np.argsort(vwgt[members], kind="stable")
        for u in members[order].tolist():
            if block_weights[b] <= lmax:
                break
            target = int(np.argmin(block_weights))
            if target == b:
                break
            w = int(vwgt[u])
            if block_weights[target] + w > lmax:
                continue
            block_weights[b] -= w
            block_weights[target] += w
            partition[u] = target
            moves += 1
    return moves


def _modeled_seconds(
    dgraph: DistributedGraph, comm: SimComm, k: int
) -> float:
    """Alpha-beta communication model + per-rank compute.

    64 cores per node (the paper's HoreKa setting), 25 GB/s network
    bandwidth per node, ~1 microsecond latency per superstep.
    """
    cores_per_node = 64
    work = 2 * dgraph.m * 8  # a few passes over the edges
    compute = work / (comm.size * cores_per_node * 50e6)
    bandwidth = comm.stats.bytes_sent / (comm.size * 25e9)
    latency = comm.stats.supersteps * 1e-6 * np.log2(max(2, comm.size))
    return compute + bandwidth + latency
