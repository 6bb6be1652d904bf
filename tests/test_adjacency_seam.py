"""One adjacency seam (ISSUE 15).

Above ``graph/``, whole-graph and chunk adjacency comes from
``repro.graph.access``; nothing in ``core`` / ``dist`` / ``serve`` asks
which representation it holds or keeps a per-vertex path for "the other
one".  These tests hold the collapse down: the gain tables, the cut and
boundary reductions and the rebalancer give the same answer on a
compressed graph as on its CSR twin (and as the loops they replaced), the
partitions are pinned to the commit before the collapse, a warm start is
traced and self-checked like a full run, and a structural check fails if a
representation fork grows back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
import repro
from repro.core import config as presets
from repro.core.config import DebugConfig, FMConfig, ObsConfig
from repro.core.partition import PartitionedGraph
from repro.core.partitioner import refine_partition
from repro.core.refinement.balancer import rebalance
from repro.core.refinement.gain_table import make_gain_table
from repro.graph import generators as gen
from repro.graph.access import adjacency_blocks, chunk_adjacency, full_adjacency
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.obs.tracer import SpanTracer
from repro.verify.invariants import check_gain_table_vs_recompute
from scalar_reference import scalar_rebalance

# ``crossing_weight`` reads ``adjacency_blocks`` from its own module
access_module = importlib.import_module("repro.graph.access")

FAMILIES = {
    "rgg2d": lambda seed: gen.rgg2d(300, avg_degree=8, seed=seed),
    "weblike": lambda seed: gen.weblike(300, avg_degree=10, seed=seed),
    "rhg": lambda seed: gen.rhg(300, avg_degree=10, seed=seed),
}


def reweighted(g, seed, high=400):
    """``g`` with random symmetric edge weights in ``[1, high)``."""
    src, dst, _ = full_adjacency(g)
    once = src < dst
    edges = np.stack([src[once], dst[once]], axis=1)
    w = np.random.default_rng(seed).integers(1, high, size=len(edges))
    return from_edges(g.n, edges, w)


def star(leaves):
    return from_edges(
        leaves + 1, np.array([[0, v] for v in range(1, leaves + 1)], dtype=np.int64)
    )


def edgeless(n):
    return from_edges(n, np.empty((0, 2), dtype=np.int64))


def random_pgraph(g, k, seed):
    part = np.random.default_rng(seed).integers(0, k, size=g.n)
    return PartitionedGraph(g, k, part)


# --------------------------------------------------------------------- #
# (a) gain tables: compressed == CSR
# --------------------------------------------------------------------- #
def assert_tables_equal(kind, g, k, seed):
    pg = random_pgraph(g, k, seed)
    pc = PartitionedGraph(compress_graph(g), k, pg.partition.copy())
    t, tc = make_gain_table(kind, pg), make_gain_table(kind, pc)
    if kind == "sparse":
        for attr in ("_keys", "_vals", "_width_bits"):
            assert np.array_equal(getattr(t, attr), getattr(tc, attr)), attr
        assert t.width_mix() == tc.width_mix()
        assert t.lock_acquisitions == tc.lock_acquisitions
    if kind == "full":
        assert np.array_equal(t._table, tc._table)
    assert t.nbytes == tc.nbytes
    everyone = np.arange(g.n, dtype=np.int64)
    for a, b in zip(oracles.gains_many(t, everyone), oracles.gains_many(tc, everyone)):
        assert np.array_equal(a, b)
    check_gain_table_vs_recompute(tc, pc, phase="compressed-table")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("weights", ["unit", "random"])
@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("kind", ["sparse", "full", "none"])
def test_gain_table_on_compressed_equals_csr(kind, family, weights, seed):
    g = FAMILIES[family](seed)
    if weights == "random":
        # up to ~400 * deg incident weight: 8-, 16- and 32-bit entries mix
        g = reweighted(g, seed, high=400 if seed < 3 else 70_000)
    assert_tables_equal(kind, g, 8, seed)


@pytest.mark.parametrize("kind", ["sparse", "full", "none"])
@pytest.mark.parametrize(
    "make",
    [lambda: edgeless(0), lambda: edgeless(7), lambda: star(20)],
    ids=["n0", "all-isolated", "star"],
)
def test_gain_table_on_degenerate_graphs(kind, make):
    assert_tables_equal(kind, make(), 4, 0)


def test_sparse_table_keeps_a_dense_row_for_the_hub():
    table = make_gain_table("sparse", random_pgraph(compress_graph(star(20)), 4, 0))
    assert table._dense[0] and not table._dense[1:].any()  # deg(hub) >= k


def test_sparse_table_decodes_the_graph_once(monkeypatch):
    """Both cached tables read every row once, inside the kernel's walk: no
    whole-graph gather (``full_adjacency``), no ``decode_chunk`` and no
    per-vertex decode, and the edges are reported to ``decode.edges`` once
    a build; the table still equals the CSR twin's."""

    def forbidden(name):
        return lambda *a, **kw: pytest.fail(f"the build called {name}")

    g = FAMILIES["rgg2d"](1)
    cg = compress_graph(g)
    want = {kind: make_gain_table(kind, random_pgraph(g, 8, 1)) for kind in ("sparse", "full")}
    for mod, bound in oracles.holders(full_adjacency):
        monkeypatch.setattr(mod, bound, forbidden("full_adjacency"))
    for name in ("decode_chunk", "incident_weight", "neighbors_and_weights"):
        monkeypatch.setattr(type(cg), name, forbidden(name))
    tracer = SpanTracer()
    access_module.install_tracer(tracer)
    try:
        for kind in ("sparse", "full"):
            tracer.counters.clear()
            table = make_gain_table(kind, random_pgraph(cg, 8, 1))
            assert dict(tracer.counters) == {"decode.edges": cg.num_directed_edges}, kind
            got = [a.tobytes() for a in table.kernel_arrays() if a is not None]
            assert got == [a.tobytes() for a in want[kind].kernel_arrays() if a is not None]
    finally:
        access_module.uninstall_tracer()


# --------------------------------------------------------------------- #
# (b) cut / boundary through adjacency_blocks
# --------------------------------------------------------------------- #
def per_vertex_cut_and_boundary(pg):
    g, part = pg.graph, pg.partition
    cut, boundary = 0, []
    for u in range(g.n):
        nbrs, wgts = g.neighbors_and_weights(u)
        cross = part[np.asarray(nbrs)] != part[u]
        cut += int(np.asarray(wgts)[cross].sum())
        if cross.any():
            boundary.append(u)
    return cut // 2, np.array(boundary, dtype=np.int64)


@pytest.mark.parametrize("block_size", [1, 7, 64, 4096])
@pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
def test_cut_and_boundary_via_blocks(monkeypatch, compressed, block_size):
    g = reweighted(gen.weblike(201, avg_degree=8, seed=4), 4)  # 201 = 28 * 7 + 5
    pg = random_pgraph(compress_graph(g) if compressed else g, 5, 2)
    want_cut, want_boundary = per_vertex_cut_and_boundary(random_pgraph(g, 5, 2))
    monkeypatch.setattr(
        access_module,
        "adjacency_blocks",
        functools.partial(adjacency_blocks, block_size=block_size),
    )
    assert pg.cut_weight() == want_cut
    got = pg.boundary_vertices()
    assert got.dtype == np.int64 and np.array_equal(got, want_boundary)


@pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
def test_adjacency_blocks_cover_every_edge_once(compressed):
    g = gen.rgg2d(150, avg_degree=6, seed=3)
    graph = compress_graph(g) if compressed else g
    blocks = list(adjacency_blocks(graph, block_size=32))
    assert len(blocks) == (5 if compressed else 1)
    for got, want in zip(map(np.concatenate, zip(*blocks)), full_adjacency(g)):
        assert np.array_equal(got, want)
    for empty in (edgeless(0), compress_graph(edgeless(0))):
        pg = PartitionedGraph(empty, 2, np.empty(0, dtype=np.int32))
        assert pg.cut_weight() == 0 and len(pg.boundary_vertices()) == 0


def test_chunk_adjacency_rejects_unknown_graph_types():
    with pytest.raises(TypeError, match="CSRGraph or a CompressedGraph"):
        chunk_adjacency(object(), np.arange(3))


# --------------------------------------------------------------------- #
# (c) rebalance == the per-member loop it replaced
# --------------------------------------------------------------------- #
def overloaded_start(g, k, seed):
    part = np.random.default_rng(seed).integers(0, k, size=g.n)
    part[: g.n // 2] = 0
    part[g.n // 2 : g.n // 2 + g.n // 5] = k - 1
    return part


REBALANCE_CASES = {
    # scalar limit, two overloaded blocks
    "scalar-limit": lambda g, k: int(1.03 * -(-g.total_vertex_weight // k)),
    # per-block limits (the deep scheme's growth phase)
    "per-block": lambda g, k: np.linspace(
        0.8, 1.6, k
    ) * (g.total_vertex_weight / k),
    # nothing fits anywhere: every pop falls through both targets
    "no-feasible-target": lambda g, k: 1,
}


@pytest.mark.parametrize("limits", list(REBALANCE_CASES))
@pytest.mark.parametrize("compressed", [False, True], ids=["csr", "compressed"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_rebalance_matches_scalar_reference(family, compressed, limits):
    k = 6
    base = reweighted(FAMILIES[family](2), 2, high=5)
    # three isolated vertices, all members of the overloaded block 0
    src, dst, w = full_adjacency(base)
    once = src < dst
    g = from_edges(
        base.n + 3, np.stack([src[once] + 3, dst[once] + 3], axis=1), w[once]
    )
    limit = REBALANCE_CASES[limits](g, k)
    start = overloaded_start(g, k, 7)
    want = PartitionedGraph(g, k, start.copy())
    want_moves = scalar_rebalance(want, limit)
    got = PartitionedGraph(compress_graph(g) if compressed else g, k, start.copy())
    got_moves = rebalance(got, limit)
    assert got_moves == want_moves
    assert (got_moves > 0) == (limits != "no-feasible-target")
    assert np.array_equal(got.partition, want.partition)
    assert np.array_equal(got.block_weights, want.block_weights)


# --------------------------------------------------------------------- #
# (d) golden pins, recorded at the commit before the collapse
#     (the 16 partition pins re-recorded once for PR 17's initial-partitioning
#     contract: sha1 and cut moved, every ledger peak stayed; the warm-start
#     pins, which run no initial partitioning, did not move)
# --------------------------------------------------------------------- #
GOLDEN_GRAPHS = {
    "rgg2d": lambda: gen.rgg2d(1500, avg_degree=8, seed=31),
    "weblike": lambda: gen.weblike(1200, avg_degree=10, seed=7),
}

LOCALIZED = presets.terapart_fm(
    name="terapart-fm-localized", fm=FMConfig(localized=True)
)


def golden_config(preset, seed):
    if preset == "terapart-fm-localized":
        return LOCALIZED.with_(seed=seed)
    return presets.preset(preset, seed=seed)


# (preset, graph, seed) -> (sha1 of the partition, cut, ledger peak bytes)
# of partition(graph, 8, config); the full / none tables and localized FM
# run on no ladder workload
GOLDEN_PARTITION = {
    ("terapart-fm", "rgg2d", 1): ("e360cdc3ae0383799208b94cb500f5a4eaeed968", 136, 109677),
    ("terapart-fm", "rgg2d", 2): ("759331138c1e8936e3dd1c6c876b7591922c008b", 169, 108373),
    ("terapart-fm", "weblike", 1): ("7a2c0a64031619325b80b05258f77d446915d0ad", 1337, 313154),
    ("terapart-fm", "weblike", 2): ("84a62911b1c9f538dae578dbdb45805c57c58f88", 1341, 311746),
    ("terapart-fm-full", "rgg2d", 1): ("e360cdc3ae0383799208b94cb500f5a4eaeed968", 136, 121645),
    ("terapart-fm-full", "rgg2d", 2): ("759331138c1e8936e3dd1c6c876b7591922c008b", 169, 121645),
    ("terapart-fm-full", "weblike", 1): ("7a2c0a64031619325b80b05258f77d446915d0ad", 1337, 313154),
    ("terapart-fm-full", "weblike", 2): ("84a62911b1c9f538dae578dbdb45805c57c58f88", 1341, 311746),
    ("terapart-fm-none", "rgg2d", 1): ("e360cdc3ae0383799208b94cb500f5a4eaeed968", 136, 109677),
    ("terapart-fm-none", "rgg2d", 2): ("759331138c1e8936e3dd1c6c876b7591922c008b", 169, 108373),
    ("terapart-fm-none", "weblike", 1): ("7a2c0a64031619325b80b05258f77d446915d0ad", 1337, 313154),
    ("terapart-fm-none", "weblike", 2): ("84a62911b1c9f538dae578dbdb45805c57c58f88", 1341, 311746),
    ("terapart-fm-localized", "rgg2d", 1): ("1ac163bfc13ff18c545348a97bc866265860f01d", 134, 109677),
    ("terapart-fm-localized", "rgg2d", 2): ("4b0043deab17b207e9cdfc694b3b036ff58455d7", 173, 108373),
    ("terapart-fm-localized", "weblike", 1): ("fc716c891ad7c8b978ed558d0a913d4260e71ac0", 1354, 313154),
    ("terapart-fm-localized", "weblike", 2): ("9e873bf6800ee461ed3f05fdc380f2d6398fbd46", 1384, 311746),
}

# refine_partition(graph, 8, overloaded random start, terapart_fm(seed=3),
# extra_lp_rounds=2) on the CSR graph and on its compressed twin
GOLDEN_WARM = {
    "csr": ("8897c04417e16fcab7c67851f487704bad284880", 784, 171312),
    "compressed": ("8897c04417e16fcab7c67851f487704bad284880", 784, 92853),
}


def sha1(partition) -> str:
    data = np.ascontiguousarray(partition, dtype=np.int64).tobytes()
    return hashlib.sha1(data).hexdigest()


@pytest.fixture(scope="module")
def golden_graphs():
    return {name: make() for name, make in GOLDEN_GRAPHS.items()}


def run_golden_partition(graphs, key):
    preset, family, seed = key
    r = repro.partition(graphs[family], 8, config=golden_config(preset, seed))
    return sha1(r.partition), int(r.cut), int(r.peak_bytes)


def warm_start_input(graphs):
    g = graphs["rgg2d"]
    part = np.random.default_rng(5).integers(0, 8, size=g.n)
    part[: g.n // 3] = 0  # block 0 starts overloaded
    return g, part


def run_golden_warm(graphs, *, compressed=False, config=None):
    g, part = warm_start_input(graphs)
    r = refine_partition(
        compress_graph(g) if compressed else g,
        8,
        part,
        config or presets.terapart_fm(seed=3),
        extra_lp_rounds=2,
    )
    return r, (sha1(r.partition), int(r.cut), int(r.peak_bytes))


@pytest.mark.parametrize(
    "key", list(GOLDEN_PARTITION), ids=["-".join(map(str, k)) for k in GOLDEN_PARTITION]
)
def test_golden_partition(golden_graphs, key):
    assert run_golden_partition(golden_graphs, key) == GOLDEN_PARTITION[key]


@pytest.mark.parametrize("rep", list(GOLDEN_WARM))
def test_golden_warm_start(golden_graphs, rep):
    _, got = run_golden_warm(golden_graphs, compressed=rep == "compressed")
    assert got == GOLDEN_WARM[rep]


# --------------------------------------------------------------------- #
# (e) a warm start is traced and self-checked like a full run
# --------------------------------------------------------------------- #
def test_traced_warm_start_reports_what_a_full_run_reports(golden_graphs):
    from repro.graph import access

    plain, pin = run_golden_warm(golden_graphs, compressed=True)
    assert plain.obs is None and plain.trace is None and plain.selfcheck is None
    traced, traced_pin = run_golden_warm(
        golden_graphs,
        compressed=True,
        config=presets.terapart_fm(seed=3, obs=ObsConfig(enabled=True)),
    )
    assert traced_pin == pin  # traced == untraced, ledger peak included
    counters = traced.obs["counters"]
    assert counters.get("decode.edges", 0) + counters.get("decode.edges_csr", 0) > 0
    assert [p["name"] for p in traced.obs["phases"]][:2] == [
        "partition",
        "refinement-level0",
    ]
    assert traced.obs["threads"]  # chunk attribution reached the runtime
    assert traced.trace is not None
    assert access._tracer is None  # torn down again


def test_warm_start_honours_debug_and_scratch_knobs(golden_graphs):
    from repro.memory import scratch

    _, pin = run_golden_warm(golden_graphs)
    checked, checked_pin = run_golden_warm(
        golden_graphs,
        config=presets.terapart_fm(
            seed=3,
            debug=DebugConfig(validation_level=2, detect_conflicts=True),
            obs=ObsConfig(track_scratch=True),
        ),
    )
    assert checked_pin[:2] == pin[:2]
    assert checked.selfcheck["invariant_checks"] == 1
    assert checked.selfcheck["conflicts"] == []
    assert checked.selfcheck["regions_checked"] > 0
    assert checked.peak_bytes > pin[2]  # scratch buffers reached the ledger
    assert scratch._ledger is None


# --------------------------------------------------------------------- #
# structural guard: the forks cannot grow back
# --------------------------------------------------------------------- #
SRC = Path(repro.__file__).resolve().parent
FORK = re.compile(r'hasattr\([^()]+,\s*"(adjncy|indptr|decode_chunk)"\)')
# "is the input still CSR" around compress_input / check_csr, and the
# service's validation of what a client registers
ALLOWED_FORKS = {"core/partitioner.py": 2, "serve/service.py": 1}


def test_no_representation_fork_above_graph():
    found: dict[str, int] = {}
    per_vertex_weight = []
    for pkg in ("core", "dist", "serve"):
        for path in sorted((SRC / pkg).rglob("*.py")):
            text = path.read_text()
            rel = path.relative_to(SRC).as_posix()
            hits = len(FORK.findall(text))
            if hits:
                found[rel] = hits
            if pkg == "core" and "incident_weight(" in text:
                per_vertex_weight.append(rel)
    assert found == ALLOWED_FORKS
    assert per_vertex_weight == []
    for rel in ("graph/access.py", "core/refinement/balancer.py", "core/partition.py"):
        assert "neighbors_and_weights" not in (SRC / rel).read_text(), rel
