"""Bulk kernels for contraction (Section IV-B).

Per level: the cluster leaders (:func:`cluster_leaders`, the one place that
states "labels are vertex ids in ``[0, n)``") and, once the caller has
numbered them, the members of each coarse vertex (:func:`group_by_label`).
Per call: :func:`contraction_step` (``lp_kernel.c``'s
``repro_contract_chunk``, bound in :mod:`repro.core.kernels.lp_chunk`), the
one aggregation every coarse graph in the tree is built by -- buffered and
one-pass contraction, each rank's share of distributed contraction and the
baselines -- keyed by coarse id.  Pure functions -- the caller owns the
coarse numbering and ``P'``.

:func:`gather_cluster_members` and :func:`aggregate_coarse_edges` are the
numpy gather and sort-based segment reduction the kernel replaced; no
production code calls them, and they stay only because the ladder's
microbenchmarks and layer boundaries still name them.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.lp_chunk import contraction_step, group_by_label  # noqa: F401  (re-exported)
from repro.graph.access import segment_reduce_ratings
from repro.memory.scratch import tracked_zeros


def cluster_leaders(labels: np.ndarray) -> np.ndarray:
    """The distinct labels ascending -- ``np.unique(labels)`` -- by marking
    them in a bool array and scanning it once, O(n) for n labels.

    Labels are vertex ids: a label outside ``[0, n)`` raises ``ValueError``
    naming the first vertex that carries one.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if n and not 0 <= int(labels.min()) <= int(labels.max()) < n:
        bad = int(np.flatnonzero((labels < 0) | (labels >= n))[0])
        raise ValueError(
            f"vertex {bad} has cluster label {int(labels[bad])}, not a vertex id in [0, {n})"
        )
    marks = tracked_zeros(n, bool, name="cluster-leader-marks")
    marks[labels] = True
    return np.flatnonzero(marks)


def gather_cluster_members(
    member_order: np.ndarray,
    member_starts: np.ndarray,
    member_ends: np.ndarray,
    leader_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the member vertices of one chunk of clusters.

    Returns ``(members, member_owner)`` where ``member_owner[i]`` is the
    chunk-local coarse-vertex index owning fine vertex ``members[i]``.
    """
    counts = member_ends[leader_idx] - member_starts[leader_idx]
    total = int(counts.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    gather = np.repeat(member_starts[leader_idx], counts) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    members = member_order[gather]
    member_owner = np.repeat(np.arange(len(leader_idx), dtype=np.int64), counts)
    return members, member_owner


def aggregate_coarse_edges(
    owner: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    chunk_leaders: np.ndarray,
    id_space: int,
    num_owners: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segment-reduce a chunk's member adjacency into coarse edges.

    ``targets`` holds the neighbors' cluster leaders; intra-cluster edges
    (target == own leader) are dropped.  Returns ``(po, pc, pw,
    local_offsets)``: the coarse edge list grouped by chunk-local owner
    (clusters sorted ascending within each owner, the segment-reduce
    order) plus each owner's first-edge offset within the list.
    """
    if len(owner):
        po, pc, pw = segment_reduce_ratings(owner, targets, weights, id_space)
        keep = pc != chunk_leaders[po]
        po, pc, pw = po[keep], pc[keep], pw[keep]
    else:
        po = pc = pw = np.empty(0, dtype=np.int64)
    local_offsets = np.searchsorted(po, np.arange(num_owners, dtype=np.int64))
    return po, pc, pw, local_offsets
