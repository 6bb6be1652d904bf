"""Mt-Metis-style shared-memory multilevel partitioner [5], [17].

Differences from KaMinPar/TeraPart that matter for the paper's comparison:

* **Sorted heavy-edge matching (SHEM)** coarsening: a matching contracts at
  most pairs, so the hierarchy shrinks by <= 2x per level -> roughly twice
  the levels of LP clustering, with every level's graph retained plus
  per-level matching/coarsening maps.  This is the structural reason
  Mt-Metis uses 2-4x more memory than KaMinPar (Fig. 4 middle).
* **Relaxed balance**: refinement is hill-climbing on the cut with only a
  soft balance penalty and no repair step, reproducing the imbalanced
  partitions the paper observes on 320/504 instances.
* Reads graphs in *text format* (the paper excludes I/O partly for this
  reason); we model that by an optional text-parse time estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.coarsening.contraction import contract_clusters
from repro.core.initial.recursive import initial_partition
from repro.core.kernels import cluster_leaders
from repro.core.partition import PartitionedGraph, max_block_weight
from repro.memory.tracker import MemoryTracker


@dataclass
class MtMetisResult:
    partition: np.ndarray
    cut: int
    imbalance: float
    balanced: bool
    wall_seconds: float
    peak_bytes: int
    num_levels: int
    failed: bool = False
    failure_reason: str = ""
    modeled_seconds: float = 0.0
    work_edges: float = 0.0


def shem_matching(graph, rng: np.random.Generator) -> np.ndarray:
    """Sorted heavy-edge matching: visit vertices by increasing degree,
    match each unmatched vertex with its heaviest unmatched neighbor."""
    n = graph.n
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    order = np.argsort(graph.degrees + rng.random(n) * 0.5, kind="stable")
    for u in order.tolist():
        if matched[u]:
            continue
        nbrs, wgts = graph.neighbors_and_weights(u)
        nbrs = np.asarray(nbrs)
        wgts = np.asarray(wgts)
        free = ~matched[nbrs]
        if not np.any(free):
            continue
        cand_n = nbrs[free]
        cand_w = wgts[free]
        v = int(cand_n[np.argmax(cand_w)])
        matched[u] = matched[v] = True
        leader = min(u, v)
        match[u] = match[v] = leader
    return match


def _greedy_refine(pgraph: PartitionedGraph, soft_limit: int, rounds: int) -> None:
    """Hill climbing on the cut with only a *soft* balance limit."""
    g = pgraph.graph
    part = pgraph.partition
    for _ in range(rounds):
        moved = 0
        for u in pgraph.boundary_vertices().tolist():
            nbrs, wgts = g.neighbors_and_weights(u)
            blocks = part[np.asarray(nbrs)]
            uniq, inv = np.unique(blocks, return_inverse=True)
            aff = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(aff, inv, np.asarray(wgts))
            cur = int(part[u])
            cur_aff = int(aff[np.searchsorted(uniq, cur)]) if cur in uniq else 0
            best_gain, best_b = 0, cur
            w = int(g.vwgt[u])
            for b, a in zip(uniq.tolist(), aff.tolist()):
                if b == cur:
                    continue
                if pgraph.block_weights[b] + w > soft_limit:
                    continue
                gain = int(a) - cur_aff
                if gain > best_gain:
                    best_gain, best_b = gain, b
            if best_b != cur:
                pgraph.move(u, best_b)
                moved += 1
        if moved == 0:
            break


def mtmetis_partition(
    graph,
    k: int,
    *,
    epsilon: float = 0.03,
    seed: int = 0,
    p: int = 8,
    memory_budget: int | None = None,
    tracker: MemoryTracker | None = None,
) -> MtMetisResult:
    """Partition with the Mt-Metis-style algorithm.

    ``memory_budget`` models the machine size: exceeding it mid-run aborts
    with ``failed=True`` (the paper: Mt-Metis produced no result on the
    three largest Set A graphs).
    """
    tracker = tracker or MemoryTracker()
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()

    def check_budget() -> bool:
        return memory_budget is not None and tracker.peak_bytes > memory_budget

    # input graph + per-thread matching scratch
    aids = [tracker.alloc("input-graph", graph.nbytes, "graph")]
    aids.append(tracker.alloc("matching-scratch", 16 * graph.n + p * 4096, "matching"))

    levels = []
    work_edges = 0.0
    current = graph
    limit = max(40 * k, 80)
    while current.n > limit and len(levels) < 64:
        # matching scans the level twice (sort + match), contraction once
        work_edges += 3.0 * current.num_directed_edges
        match = shem_matching(current, rng)
        leaders = cluster_leaders(match)
        if current.n / max(len(leaders), 1) < 1.1:
            break
        coarse, f2c = contract_clusters(current, match, leaders)
        # Metis keeps the full hierarchy, the matching map per level, and
        # buffered coarse edges during construction
        aids.append(tracker.alloc(f"cmap-{len(levels)}", 8 * current.n, "matching"))
        aids.append(
            tracker.alloc(
                f"coarse-buffers-{len(levels)}",
                32 * coarse.num_directed_edges,
                "contraction",
            )
        )
        aids.append(tracker.alloc(f"level-{len(levels)}", coarse.nbytes, "graph"))
        levels.append((coarse, f2c))
        current = coarse
        if check_budget():
            for a in aids:
                tracker.free(a)
            return MtMetisResult(
                partition=np.zeros(graph.n, dtype=np.int32),
                cut=0,
                imbalance=0.0,
                balanced=False,
                wall_seconds=time.perf_counter() - t0,
                peak_bytes=tracker.peak_bytes,
                num_levels=len(levels),
                failed=True,
                failure_reason="out of memory",
            )

    part = initial_partition(
        current, k, epsilon, rng, attempts=4, fm_rounds=1
    )
    pgraph = PartitionedGraph(current, k, part)
    lmax = max_block_weight(graph.total_vertex_weight, k, epsilon)
    # soft limit: Metis' ubfactor-style allowance, frequently exceeded in
    # practice for large k since there is no repair step
    soft_limit = int(lmax * (1.0 + 2.0 * epsilon)) + 1

    # refinement gain scratch: Metis-style per-vertex ed/id arrays + k-way
    # boundary structures
    refine_aid = tracker.alloc(
        "refine-scratch", 24 * graph.n + 8 * p * k, "refinement"
    )
    for coarse, _ in levels:
        work_edges += 4.0 * coarse.num_directed_edges  # per-level refinement
    work_edges += 4.0 * graph.num_directed_edges
    for li in range(len(levels) - 1, -1, -1):
        _greedy_refine(pgraph, soft_limit, rounds=2)
        _, f2c = levels[li]
        finer = levels[li - 1][0] if li > 0 else graph
        part = pgraph.partition[f2c].astype(np.int32)
        pgraph = PartitionedGraph(finer, k, part)
    _greedy_refine(pgraph, soft_limit, rounds=2)
    tracker.free(refine_aid)
    for a in aids:
        tracker.free(a)

    cut = pgraph.cut_weight()
    imb = pgraph.imbalance()
    # modeled time: same machine model as TeraPart but with the matching
    # pipeline's lower parallel efficiency (SHEM and hill-climbing
    # refinement serialize on conflicts; the paper measures mt-metis 3.9x
    # slower than KaMinPar on 96 cores)
    from repro.parallel.cost_model import CostModel
    from repro.parallel.runtime import WorkStats

    parallel_efficiency = 0.30
    stats = {
        "pipeline": WorkStats(
            "pipeline",
            work=work_edges / parallel_efficiency,
            bytes_moved=16.0 * work_edges / parallel_efficiency,
        ),
        "initial": WorkStats(
            "initial",
            work=float(current.num_directed_edges)
            * max(1.0, np.log2(max(k, 2)))
            * 4.0,
            max_parallelism=float(k),
        ),
    }
    modeled = CostModel().total_time(stats, p)
    return MtMetisResult(
        partition=pgraph.partition,
        cut=cut,
        imbalance=imb,
        balanced=pgraph.is_balanced(epsilon),
        wall_seconds=time.perf_counter() - t0,
        peak_bytes=tracker.peak_bytes,
        num_levels=len(levels),
        modeled_seconds=modeled,
        work_edges=work_edges,
    )
