"""Pins of the loops that walk their chunks as ``chunk_bounds`` bounds.

One-pass contraction and the packet model of ``compress_graph_parallel``
used to take their chunks from a slice-list scheduler.  The digests below
were recorded on that scheduler, so the bounds walk must give the same
chunks, in the same order, to the same virtual threads: the coarse graphs
(their rows sorted, see :data:`ONE_PASS`), the bump counts, the conflict detector's verdicts, the compressed bytes and
the packet traces all stay byte for byte what they were.  The empty graph's
packets are pinned in ``test_runtime.py::TestScheduleBalanced::test_empty``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.coarsening.lp_clustering import label_propagation_clustering
from repro.core.coarsening.one_pass_contraction import contract_one_pass
from repro.graph import generators as gen
from repro.graph.compressed import compress_graph
from repro.graph.compression import PacketTrace, compress_graph_parallel
from repro.parallel.runtime import ParallelRuntime
from repro.verify.fuzz import _make_ctx


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a), dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


GRAPHS = {
    "weblike-compressed": lambda: compress_graph(gen.weblike(2000, seed=3)),
    "rgg2d-csr": lambda: gen.rgg2d(1500, seed=3),
}

#: (graph, policy) -> (coarse graph + fine_to_coarse digest, bumped
#: clusters, detector accesses recorded, conflicts).  The coarse rows are
#: ascending by coarse id; the scheduler's rows were ascending by leader id,
#: and each digest here is that coarse graph's after
#: ``with_sorted_neighborhoods()`` (chunks run in index order number the
#: coarse vertices in leader order, so those two rows were sorted already).
#: With no policy the chunks run in issue order too, so the ``None`` cells
#: equal the ``"issue"`` ones
ONE_PASS = {
    ("rgg2d-csr", None): ("120f18c5a279bd91", 0, 1822, 0),
    ("rgg2d-csr", "issue"): ("120f18c5a279bd91", 0, 1822, 0),
    ("rgg2d-csr", "reversed"): ("9b6e3aa490c80cf0", 0, 1822, 0),
    ("rgg2d-csr", "random"): ("4290aaefa5d7044e", 0, 1822, 0),
    ("rgg2d-csr", "heavy-first"): ("aab7b897fca1f7b5", 0, 1822, 0),
    ("weblike-compressed", None): ("af5a4f65e0dd1335", 4, 7818, 0),
    ("weblike-compressed", "issue"): ("af5a4f65e0dd1335", 4, 7818, 0),
    ("weblike-compressed", "reversed"): ("e93aea99cc0a90cf", 4, 7818, 0),
    ("weblike-compressed", "random"): ("29fcff378e7a3ceb", 4, 7818, 0),
    ("weblike-compressed", "heavy-first"): ("af5c400ccf8dcd51", 4, 7818, 0),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def clustered(request):
    graph = GRAPHS[request.param]()
    ctx, _ = _make_ctx(graph, p=4, policy=None, seed=0, chunk_size=16)
    ctx.runtime.detach_detector()
    clu = label_propagation_clustering(graph, ctx, 8)
    return request.param, graph, clu


@pytest.mark.parametrize("policy", [None, "issue", "reversed", "random", "heavy-first"])
def test_one_pass_contraction_is_pinned(clustered, policy):
    name, graph, clu = clustered
    ctx, det = _make_ctx(graph, p=4, policy=policy, seed=5, chunk_size=16)
    out = contract_one_pass(graph, clu.clusters.copy(), clu.cluster_weights.copy(), ctx)
    c = out.coarse
    got = (
        _digest(c.indptr, c.adjncy, c.adjwgt, c.vwgt, out.fine_to_coarse),
        out.bumped_clusters,
        det.accesses_recorded,
        len(det.conflicts),
    )
    assert got == ONE_PASS[name, policy]


#: star(500) with its hub chunk-encoded: (bytes digest, offsets digest)
STAR_BYTES = ("6f3c28889a8a24f1", "4fd1ebb699b219a7")
#: its packets: (packet_id, thread_id, num_vertices, buffer_bytes, claim)
STAR_TRACES = [
    (0, 0, 1, 40, 0),
    (1, 1, 125, 562, 40),
    (2, 2, 125, 625, 602),
    (3, 0, 125, 625, 1227),
    (4, 1, 124, 620, 1852),
]


def test_parallel_compression_of_a_star_is_pinned():
    cg, traces = compress_graph_parallel(
        gen.star(500), ParallelRuntime(3, chunk_size=64),
        high_degree_threshold=100, chunk_length=64,
    )  # fmt: skip
    got = (hashlib.sha1(bytes(cg.data)).hexdigest()[:16], _digest(cg.offsets))
    assert got == STAR_BYTES
    assert traces == [PacketTrace(*t) for t in STAR_TRACES]
