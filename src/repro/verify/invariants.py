"""Phase-boundary invariant checks for the multilevel pipeline.

Each ``check_*`` function validates one structural contract the partitioner
relies on between phases and raises :class:`InvariantViolation` (with the
offending phase and ids in the message) when it fails:

* :func:`check_csr` -- graph well-formedness: symmetry, no self-loops,
  positive weights, consistent ``indptr``.
* :func:`check_partition` -- block assignment in range, incremental block
  weights consistent with a recount, optional balance ceiling.
* :func:`check_clustering` -- cluster leaders valid, incremental cluster
  weights equal to a recount over members.
* :func:`check_coarse_mapping` -- the fine->coarse projection is a dense
  surjection that conserves vertex weight and inter-cluster edge weight.
* :func:`check_gain_table_vs_recompute` -- cached affinities equal a
  from-scratch recomputation for (a sample of) vertices.
* :func:`check_compressed_roundtrip` -- compressed neighborhoods decode to
  exactly the CSR adjacency.

The multilevel driver wires these in behind ``config.debug.validation_level``
(0 = off, 1 = cheap phase-boundary checks, 2 = adds the O(m)-ish deep
checks); ``python -m repro partition --selfcheck`` turns everything on.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import cluster_leaders


class InvariantViolation(AssertionError):
    """A phase-boundary invariant does not hold."""


def _fail(phase: str, message: str) -> None:
    prefix = f"[{phase}] " if phase else ""
    raise InvariantViolation(prefix + message)


# --------------------------------------------------------------------- #
# graph structure
# --------------------------------------------------------------------- #
def check_csr(graph, *, phase: str = "") -> None:
    """Structural well-formedness of a (CSR or protocol) graph."""
    validate = getattr(graph, "validate", None)
    if validate is not None:
        try:
            validate()
        except (ValueError, AssertionError) as exc:
            _fail(phase, f"graph invariant violated: {exc}")
        return
    # protocol fallback: symmetry via neighbor-set roundtrip
    for u in range(graph.n):
        for v in np.asarray(graph.neighbors(u)).tolist():
            if u == v:
                _fail(phase, f"self-loop at vertex {u}")
            if u not in np.asarray(graph.neighbors(v)).tolist():
                _fail(phase, f"edge ({u}, {v}) has no reverse")


def check_compressed_roundtrip(
    csr, compressed, *, sample: int | None = None, rng=None, phase: str = ""
) -> None:
    """Compressed neighborhoods must decode to exactly the CSR adjacency.

    ``sample`` limits the check to that many vertices (always including the
    maximum-degree vertex, where chunked encoding kicks in); ``None`` checks
    every vertex.
    """
    if csr.n != compressed.n:
        _fail(phase, f"n mismatch: csr {csr.n} vs compressed {compressed.n}")
    if csr.m != compressed.m:
        _fail(phase, f"m mismatch: csr {csr.m} vs compressed {compressed.m}")
    if sample is None or sample >= csr.n:
        vertices = np.arange(csr.n, dtype=np.int64)
    else:
        rng = rng or np.random.default_rng(0)
        vertices = rng.choice(csr.n, size=sample, replace=False).astype(np.int64)
        if csr.n:
            vertices = np.union1d(
                vertices, [int(np.argmax(np.asarray(csr.degrees)))]
            )
    for u in vertices.tolist():
        cn, cw = csr.neighbors_and_weights(u)
        zn, zw = compressed.neighbors_and_weights(u)
        ref = sorted(zip(np.asarray(cn).tolist(), np.asarray(cw).tolist()))
        got = sorted(zip(np.asarray(zn).tolist(), np.asarray(zw).tolist()))
        if ref != got:
            _fail(
                phase,
                f"compressed neighborhood of vertex {u} decodes to {got[:8]}..."
                f" but CSR holds {ref[:8]}...",
            )


# --------------------------------------------------------------------- #
# partitions and clusterings
# --------------------------------------------------------------------- #
def check_partition(pgraph, *, epsilon: float | None = None, phase: str = "") -> None:
    """Block assignment in range, block weights consistent, optional balance."""
    part = pgraph.partition
    if len(part) != pgraph.graph.n:
        _fail(phase, "partition does not assign every vertex")
    if pgraph.graph.n and (part.min() < 0 or part.max() >= pgraph.k):
        bad = int(np.flatnonzero((part < 0) | (part >= pgraph.k))[0])
        _fail(
            phase,
            f"vertex {bad} assigned to out-of-range block {int(part[bad])}",
        )
    recount = np.zeros(pgraph.k, dtype=np.int64)
    np.add.at(recount, part, np.asarray(pgraph.graph.vwgt))
    if not np.array_equal(recount, pgraph.block_weights):
        bad = int(np.flatnonzero(recount != pgraph.block_weights)[0])
        _fail(
            phase,
            f"block {bad} weight out of sync: incremental "
            f"{int(pgraph.block_weights[bad])} vs recount {int(recount[bad])}",
        )
    if epsilon is not None:
        from repro.core.partition import max_block_weight

        lmax = max_block_weight(pgraph.graph.total_vertex_weight, pgraph.k, epsilon)
        if recount.max() > lmax:
            bad = int(np.argmax(recount))
            _fail(
                phase,
                f"block {bad} weight {int(recount[bad])} exceeds "
                f"L_max {lmax} (eps={epsilon})",
            )


def check_clustering(graph, clusters, cluster_weights, *, phase: str = "") -> None:
    """Cluster labels valid and incremental cluster weights consistent."""
    n = graph.n
    clusters = np.asarray(clusters)
    if len(clusters) != n:
        _fail(phase, "clustering does not cover every vertex")
    if n and (clusters.min() < 0 or clusters.max() >= n):
        _fail(phase, "cluster leader ids out of range")
    recount = np.zeros(n, dtype=np.int64)
    np.add.at(recount, clusters, np.asarray(graph.vwgt))
    leaders = cluster_leaders(clusters)
    got = np.asarray(cluster_weights)[leaders]
    want = recount[leaders]
    if not np.array_equal(got, want):
        bad = int(leaders[np.flatnonzero(got != want)[0]])
        _fail(
            phase,
            f"cluster {bad} weight out of sync: incremental "
            f"{int(cluster_weights[bad])} vs recount {int(recount[bad])}",
        )


def check_coarse_mapping(
    fine_graph, coarse_graph, fine_to_coarse, *, phase: str = ""
) -> None:
    """The fine->coarse projection conserves structure.

    Checks: dense surjection onto ``[0, n_coarse)``, coarse vertex weights
    equal the summed fine weights of their members, and the coarse graph's
    total edge weight equals the fine graph's total inter-cluster edge
    weight (contraction drops intra-cluster edges and merges parallels).
    """
    f2c = np.asarray(fine_to_coarse)
    nc = coarse_graph.n
    if len(f2c) != fine_graph.n:
        _fail(phase, "fine_to_coarse does not map every fine vertex")
    if fine_graph.n and (f2c.min() < 0 or f2c.max() >= nc):
        bad = int(np.flatnonzero((f2c < 0) | (f2c >= nc))[0])
        _fail(
            phase,
            f"fine vertex {bad} maps to out-of-range coarse id {int(f2c[bad])}",
        )
    hit = np.zeros(nc, dtype=bool)
    hit[f2c] = True
    if not hit.all():
        _fail(phase, f"coarse vertex {int(np.flatnonzero(~hit)[0])} has no fine member")
    # vertex weight conservation, per coarse vertex
    agg = np.zeros(nc, dtype=np.int64)
    np.add.at(agg, f2c, np.asarray(fine_graph.vwgt))
    cw = np.asarray(coarse_graph.vwgt)
    if not np.array_equal(agg, cw):
        bad = int(np.flatnonzero(agg != cw)[0])
        _fail(
            phase,
            f"coarse vertex {bad} weight {int(cw[bad])} != summed fine "
            f"weight {int(agg[bad])}",
        )
    # edge weight conservation, aggregate
    from repro.graph.access import full_adjacency

    src, dst, wgt = full_adjacency(fine_graph)
    inter = f2c[src] != f2c[dst]
    fine_cross = int(np.asarray(wgt)[inter].sum())
    coarse_total = int(coarse_graph.total_edge_weight)
    if fine_cross != coarse_total:
        _fail(
            phase,
            f"coarse edge weight {coarse_total} != fine inter-cluster "
            f"edge weight {fine_cross}",
        )


# --------------------------------------------------------------------- #
# gain tables
# --------------------------------------------------------------------- #
def check_gain_table_vs_recompute(
    table, pgraph, *, sample: int | None = None, rng=None, phase: str = ""
) -> None:
    """Cached affinities must equal a from-scratch recomputation.

    For every (sampled) vertex, recompute ``w(u, V_i)`` from the adjacency
    and compare against the table's ``affinity`` for each adjacent block as
    well as the table's reported adjacent-block set.
    """
    g = pgraph.graph
    part = pgraph.partition
    if sample is None or sample >= g.n:
        vertices = range(g.n)
    else:
        rng = rng or np.random.default_rng(0)
        vertices = rng.choice(g.n, size=sample, replace=False).tolist()
    for u in vertices:
        u = int(u)
        nbrs, wgts = g.neighbors_and_weights(u)
        ref: dict[int, int] = {}
        for b, w in zip(part[np.asarray(nbrs)].tolist(), np.asarray(wgts).tolist()):
            ref[int(b)] = ref.get(int(b), 0) + int(w)
        got_blocks = set(np.asarray(table.adjacent_blocks(u)).tolist())
        want_blocks = {b for b, a in ref.items() if a != 0}
        if got_blocks != want_blocks:
            _fail(
                phase,
                f"vertex {u}: table reports adjacent blocks "
                f"{sorted(got_blocks)} but recompute finds {sorted(want_blocks)}",
            )
        for b in want_blocks:
            got = int(table.affinity(u, b))
            if got != ref[b]:
                _fail(
                    phase,
                    f"vertex {u}, block {b}: cached affinity {got} != "
                    f"recomputed {ref[b]}",
                )
