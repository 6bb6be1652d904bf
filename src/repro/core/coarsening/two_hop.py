"""Two-hop matching (LaSalle et al. [13]) for coarsening progress.

Label propagation stalls on irregular graphs: many vertices remain singleton
clusters because all their neighbors' clusters are full or they have no
strong tie.  Two-hop matching merges *pairs of singleton clusters that share
a favorite neighbor cluster* -- vertices two hops apart through a common
neighbor -- which restores a geometric shrink factor without hurting quality.
"""

from __future__ import annotations

import numpy as np

from repro.core.coarsening.lp_clustering import ClusteringResult, cluster_sizes
from repro.core.kernels import cluster_leaders


def two_hop_match(
    result: ClusteringResult,
    vwgt: np.ndarray,
    max_cluster_weight: int,
) -> int:
    """Merge singleton clusters sharing a favorite; returns merge count.

    Mutates ``result.clusters`` / ``cluster_weights`` in place.
    """
    clusters = result.clusters
    weights = result.cluster_weights
    favorites = result.favorites
    if favorites is None:
        return 0
    sizes = cluster_sizes(clusters)
    # candidates: vertices alone in their own cluster whose favorite is a
    # *different* cluster (a self-favorite means "no favorite at all")
    n = len(clusters)
    ids = np.arange(n, dtype=np.int64)
    singleton = (clusters == ids) & (sizes[ids] == 1) & (favorites != clusters)
    cands = np.flatnonzero(singleton)
    if len(cands) < 2:
        return 0

    # group singletons by favorite cluster; merge consecutive pairs
    order = np.argsort(favorites[cands], kind="stable")
    cands = cands[order]
    favs = favorites[cands]
    merges = 0
    i = 0
    while i + 1 < len(cands):
        if favs[i] != favs[i + 1]:
            i += 1
            continue
        a, b = int(cands[i]), int(cands[i + 1])
        if weights[a] + weights[b] <= max_cluster_weight:
            clusters[b] = a
            weights[a] += weights[b]
            weights[b] = 0
            merges += 1
            i += 2
        else:
            i += 1
    if merges:
        result.num_clusters = len(cluster_leaders(clusters))
    return merges
