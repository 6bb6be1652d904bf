"""Label propagation clustering: classic (Algorithm 1) and two-phase
(Algorithm 2).

Both variants make *identical clustering decisions* -- the paper verifies
that two-phase LP does not change solution quality (Fig. 4 right; average
cuts within 0.03%).  What differs is the auxiliary memory and the load
balance:

* classic: every virtual thread owns a full ``n``-entry sparse-array rating
  map (plus its non-zero list) -> ``O(n*p)`` bytes, and a single high-degree
  vertex serializes on one thread (the paper's load-balance bottleneck).
* two-phase: threads use fixed-capacity hash tables; vertices whose
  neighborhood touches ``>= T_bump`` distinct clusters are *bumped* and
  processed in a second phase with **one** shared sparse array and
  parallelism over edges -> ``O(n + p*T_bump)`` bytes.

A whole round is one call into the compiled rating map
(:mod:`repro.core.kernels.lp_chunk`), which walks its chunks itself.  The
variant determines what gets charged to the memory ledger and how work is
attributed to the cost model.  The paper's structures themselves -- the
fixed-capacity hash tables and the shared atomic sparse array -- live
beside the tests (``tests/rating_map.py``), where the pseudocode reference
of both algorithms runs on them and is tested against the kernel.  Under
the conflict detector the driver makes the same round call and then
replays the round to it chunk by chunk, in the order the kernel ran the
chunks, so fuzzing checks the round production runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.context import PartitionContext
from repro.core.kernels import cluster_leaders
from repro.core.kernels.lp_chunk import (
    BUMPED_NC,
    NANOS,
    clustering_round,
    replayed_chunks,
    round_bounds,
)
from repro.graph.access import chunk_adjacency, traversal_cost
from repro.memory.scratch import tracked_empty, tracked_zeros
from repro.verify.declarations import recorder_for


@dataclass
class ClusteringResult:
    """Outcome of one clustering pass over a level's graph."""

    clusters: np.ndarray  # cluster leader ID per vertex (values in [0, n))
    cluster_weights: np.ndarray  # weight per leader ID (size n, sparse)
    num_clusters: int
    moves_per_round: list[int] = field(default_factory=list)
    bumped_per_round: list[int] = field(default_factory=list)
    favorites: np.ndarray | None = None  # best neighbor cluster (for two-hop)


def _charge_rating_maps(
    graph, ctx: PartitionContext, two_phase: bool, t_bump: int
) -> list[int]:
    """Register the clustering working set with the ledger; return handles.

    The charges model the structures the configured variant would allocate
    (``tests/rating_map.py`` builds them); the kernel itself rates through
    one dense ``(3, n)`` map.
    """
    tracker = ctx.tracker
    p = ctx.runtime.p
    n = graph.n
    handles = [tracker.alloc("cluster-array", 8 * n, "clustering")]
    handles.append(tracker.alloc("cluster-weights", 8 * n, "clustering"))
    if two_phase:
        # per-thread fixed-capacity hash tables (keys+values, pow2-padded),
        # sized by the bump threshold
        table_bytes = 16 * (1 << max(1, (2 * t_bump - 1).bit_length()))
        handles.append(
            tracker.alloc("first-phase-hash-tables", p * table_bytes, "clustering")
        )
        # one shared sparse array + per-thread non-zero buffers
        handles.append(tracker.alloc("shared-sparse-array", 8 * n, "clustering"))
        handles.append(
            tracker.alloc("nonzero-buffers", p * 8 * t_bump, "clustering")
        )
    else:
        # one sparse array (values) + non-zero list per thread
        handles.append(
            tracker.alloc("thread-rating-maps", p * 16 * n, "clustering")
        )
    return handles


def _record(rec, graph, start, clusters, t_bump, chunks) -> None:
    """Tell the detector what each chunk of a round touched, in the order the
    chunks ran (:func:`~repro.core.kernels.lp_chunk.replayed_chunks`): the
    neighbours' labels it read, the movers' labels, the old and new
    clusters of the movers' weights, in two-phase LP (``t_bump > 0``) the
    labels bumped vertices flush into the shared sparse array, and the
    favorites of its vertices with a neighbour.  ``start`` is the
    round-start labels, carried forward by each chunk's movers to what the
    next chunk sees."""
    n = graph.n
    for chunk, movers, targets in chunks:
        owner, nbrs, _ = chunk_adjacency(graph, chunk)
        seen = start[nbrs]
        rec.read("clusters", nbrs)
        rec.atomic("clusters", movers)
        rec.atomic("cluster-weights", np.concatenate([start[movers], clusters[movers]]))
        # distinct neighbour labels per chunk vertex, as the kernel counted them
        nc = np.bincount(np.unique(owner * n + seen) // n, minlength=len(chunk))
        if t_bump and targets:
            rec.atomic("shared-sparse-array", seen[(nc >= t_bump)[owner]])
        # per-owner slots: disjoint plain stores by design
        rec.write("favorites", chunk[nc > 0])
        start[movers] = clusters[movers]


def label_propagation_clustering(
    graph,
    ctx: PartitionContext,
    max_cluster_weight: int,
) -> ClusteringResult:
    """Run ``lp_rounds`` of size-constrained label propagation.

    The driver owns the rounds: visiting order, schedule, favorites, bump
    counts, cost records and counters.  A round -- every chunk rated, picked
    and committed in execution order -- is one call into ``lp_kernel.c``,
    which gives one stats row a chunk.  An attached conflict detector hears
    the round's shared accesses afterwards, chunk by chunk under each
    chunk's virtual thread, from :func:`_record`.
    """
    n = graph.n
    cc = ctx.config.coarsening
    two_phase = cc.two_phase_lp
    runtime = ctx.runtime
    rng = ctx.rng

    vwgt = graph.vwgt
    clusters = np.arange(n, dtype=np.int64)
    cluster_weights = np.asarray(vwgt).astype(np.int64).copy()
    favorites = np.arange(n, dtype=np.int64)

    t_bump = ctx.effective_t_bump(n)
    edge_bytes, work_factor = traversal_cost(graph)
    max_degree = graph.max_degree if not two_phase else 0
    handles = _charge_rating_maps(graph, ctx, two_phase, t_bump)
    phase_name = "clustering-2p" if two_phase else "clustering-classic"
    # verify layer: the synchronization classes of every shared array this
    # kernel touches live in repro.verify.declarations ("lp-clustering");
    # the recorder refuses anything outside that declaration set, and the
    # static `repro lint` pass cross-references the same registry.
    rec = recorder_for(ctx.detector, "lp-clustering")
    # the sparse array and non-zero buffers charged just above, for real:
    # slot, seen and rating rows of the kernel's rating map
    kernel = clustering_round(
        graph, vwgt, clusters, cluster_weights, max_cluster_weight,
        np.zeros((3, n), dtype=np.int64), favorites, t_bump,
    )  # fmt: skip
    tracer = ctx.tracer
    result = ClusteringResult(
        clusters, cluster_weights, n, favorites=favorites
    )
    # the movers of a round, in the order they moved: only the detector reads them
    movers = tracked_empty(n, name="lp-moved") if rec.active else None
    try:
        for _round in range(cc.lp_rounds):
            order = rng.permutation(n).astype(np.int64, copy=False)
            with tracer.span(f"{phase_name}-round{_round}"):
                with runtime.region(f"{phase_name}-round{_round}"):
                    bounds, tids = round_bounds(runtime, graph, order)
                    start = clusters.copy() if rec.active else None  # what chunk 0 sees
                    stats = kernel(order, bounds, movers)
                    edges, targets, moved, bumped, bumped_nc = stats[:, : BUMPED_NC + 1].T
                    # work is booked for the chunks that rated a target;
                    # second-phase atomics: only bumped vertices' rating
                    # flushes hit the shared sparse array
                    rated = (edges > 0) & (targets > 0)
                    booked = int(edges[rated].sum())
                    runtime.record_chunks(
                        phase_name, tids, bounds[:, 1] - bounds[:, 0], stats[:, NANOS] * 1e-9,
                        work=float(booked) * work_factor,
                        bytes_moved=edge_bytes * booked,
                        atomic_ops=int(bumped_nc[rated].sum()) if two_phase else 0,
                    )
                    moves = int(moved[rated].sum())
                    bumped_total = int(bumped[edges > 0].sum())
                    if rec.active:
                        chunks = replayed_chunks(rec.detector, order, bounds, tids, stats, movers)
                        _record(rec, graph, start, clusters, t_bump if two_phase else 0, chunks)
                # straggler span for classic LP: the largest neighborhood is
                # scanned by a single thread (two-phase parallelizes it)
                if not two_phase:
                    runtime.record(phase_name, work=0.0, span=float(max_degree))
            tracer.add("lp.rounds", 1)
            tracer.add("lp.moves", moves)
            tracer.add("lp.bumped", bumped_total)
            result.moves_per_round.append(moves)
            result.bumped_per_round.append(bumped_total)
            if moves == 0:
                break
    finally:
        for h in handles:
            ctx.tracker.free(h)

    result.num_clusters = len(cluster_leaders(clusters))
    return result


def cluster_sizes(clusters: np.ndarray) -> np.ndarray:
    """Number of member vertices per leader ID (size n, sparse)."""
    sizes = tracked_zeros(len(clusters), np.int64, name="cluster-sizes")
    np.add.at(sizes, clusters, 1)
    return sizes
