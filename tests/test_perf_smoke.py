"""Tier-1 perf smoke guard for the vectorized decode path (ISSUE 1).

Compressed chunk traversal must stay within 15x of the raw CSR gather on a
fixed weblike instance.  The seed's per-vertex scalar decode sat at
50-100x, so this guard fails loudly if a future change silently reroutes
traversal back through a Python-per-vertex loop; the vectorized bulk path
measures ~10x on an idle machine, leaving headroom for timer noise (both
sides are best-of-5 on the same interpreter).
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.access import chunk_adjacency
from repro.graph.compressed import compress_graph
from repro.graph.generators import weblike

MAX_SLOWDOWN = 15.0


def _best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_compressed_traversal_within_envelope():
    g = weblike(10_000, avg_degree=10, seed=42)
    cg = compress_graph(g)
    order = np.random.default_rng(0).permutation(g.n).astype(np.int64)
    chunks = np.array_split(order, 16)

    def scan(graph):
        for c in chunks:
            chunk_adjacency(graph, c)

    scan(g)  # warm both paths (allocator, caches)
    scan(cg)
    t_csr = _best_of(lambda: scan(g))
    t_cmp = _best_of(lambda: scan(cg))
    slowdown = t_cmp / t_csr
    assert slowdown <= MAX_SLOWDOWN, (
        f"compressed traversal {slowdown:.1f}x CSR "
        f"(csr {t_csr * 1e3:.2f} ms, compressed {t_cmp * 1e3:.2f} ms); "
        f"did a change reintroduce a per-vertex decode loop?"
    )


# The initial-partitioning loops run on Python lists (one bisection
# workspace); their references in tests/scalar_reference.py are the same
# loops on numpy scalar subscripts.  Lists measure 0.6-0.7x the reference
# here, so 0.85x fails loudly if a change routes a loop back through
# per-element ndarray access while leaving room for timer noise.
MAX_LIST_OVER_SCALAR = 0.85


def test_initial_loops_beat_their_scalar_references():
    from repro.core.initial import fm2way_refine, greedy_graph_growing_bipartition
    from repro.graph.generators import rgg2d
    from scalar_reference import (
        scalar_fm2way_refine,
        scalar_greedy_graph_growing_bipartition,
    )

    g = rgg2d(2048, 8.0, seed=1)
    total = g.total_vertex_weight
    half, cap = total // 2, int(1.03 * -(-total // 2))
    start = greedy_graph_growing_bipartition(g, half, cap, np.random.default_rng(1))

    for name, new, ref in (
        (
            "greedy_graph_growing_bipartition",
            lambda: greedy_graph_growing_bipartition(
                g, half, cap, np.random.default_rng(1)
            ),
            lambda: scalar_greedy_graph_growing_bipartition(
                g, half, cap, np.random.default_rng(1)
            ),
        ),
        (
            "fm2way_refine",
            lambda: fm2way_refine(g, start.copy(), (cap, cap), rounds=2),
            lambda: scalar_fm2way_refine(g, start.copy(), (cap, cap), rounds=2),
        ),
    ):
        assert np.array_equal(new(), ref())  # also warms both sides
        ratio = _best_of(new) / _best_of(ref)
        assert ratio <= MAX_LIST_OVER_SCALAR, (
            f"{name} on lists takes {ratio:.2f}x its numpy-scalar reference; "
            f"did a change reintroduce per-element ndarray subscripts?"
        )


# A gain table is filled by one pass over the edges, on either
# representation: building it on a compressed graph costs one bulk decode
# more than on CSR -- ~2-4x for the sparse table, ~8x for the dense one,
# whose CSR build is a single scatter.  With a per-vertex decode loop in
# the build these ratios were 16-41x and 120-140x.
MAX_COMPRESSED_TABLE_BUILD = {"sparse": 12.0, "full": 30.0}


def test_gain_table_build_on_compressed_within_envelope():
    from repro.core.partition import PartitionedGraph
    from repro.core.refinement.gain_table import make_gain_table
    from repro.graph.generators import rgg2d

    g = rgg2d(4096, 8.0, seed=1)
    part = np.random.default_rng(0).integers(0, 16, size=g.n)
    pg = PartitionedGraph(g, 16, part)
    pc = PartitionedGraph(compress_graph(g), 16, part)
    for kind, bound in MAX_COMPRESSED_TABLE_BUILD.items():
        make_gain_table(kind, pg)  # warm both sides
        make_gain_table(kind, pc)
        ratio = _best_of(lambda: make_gain_table(kind, pc)) / _best_of(
            lambda: make_gain_table(kind, pg)
        )
        assert ratio <= bound, (
            f"{kind} gain table on a compressed graph takes {ratio:.1f}x the "
            f"CSR build; did a change reintroduce a per-vertex decode loop?"
        )
