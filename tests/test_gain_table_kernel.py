"""A round's gain-table build and seed scan in C (``fm_kernel.c``:
``repro_gain_table_build``, ``repro_boundary_vertices``) against the numpy
build and scan they replace (``oracles.installed("gain-table")``).

Each table is built twice from the same partition, on the kernel and on the
oracle, and must come out byte-equal: the sparse table's ``_keys``,
``_vals``, ``_offsets``, ``_dense`` and ``_width_bits``, the full table's
rows, ``lock_acquisitions``, ``nbytes``, the round's seeds, and the
tracer's ``decode.edges*`` counters; ``PartitionedGraph.boundary_vertices()``
likewise.  The matrix covers CSR input and compressed input with and without
intervals, a chunk-encoded hub, unit and random weights, k in {2, 16, 64}
(dense and hash rows mixed) and the degenerate graphs; a hypothesis property
draws graphs.  Refusals (a block id out of range, a corrupt stream, a hash
row with no slot left) are raised as the FM pass raises them, with the
partition untouched.  Whole ``partition()`` runs under the three FM presets
equal the oracle's.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
from repro.core.config import FMConfig, ObsConfig, preset
from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import make_gain_table
from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from test_bulk_decode import _body, _hand_built
from test_fm_kernel import BASES, FORMS, as_input, star, traced, weighted

KINDS = ("sparse", "full", "none")
SPARSE_ARRAYS = ("_keys", "_vals", "_offsets", "_dense", "_width_bits")


def built(graph, k, kind, part) -> dict:
    """What building ``kind`` on ``part`` left: every array, the counts and
    the counters, as bytes and ints."""
    pg = PartitionedGraph(graph, k, part)
    with traced() as tracer:
        table = make_gain_table(kind, pg)
        boundary = pg.boundary_vertices()
    got = {
        "seeds": (table.seeds.dtype.str, table.seeds.tobytes()),
        "boundary": (boundary.dtype.str, boundary.tobytes()),
        "nbytes": table.nbytes,
        "counters": dict(tracer.counters),
        "partition": pg.partition.tobytes(),
    }
    if kind == "sparse":
        for name in SPARSE_ARRAYS:
            array = getattr(table, name)
            got[name] = (array.dtype.str, array.shape, array.tobytes())
        got["locks"] = table.lock_acquisitions
        got["width_mix"] = table.width_mix()
    if kind == "full":
        got["rows"] = table._table.tobytes()
    return got


def assert_build_agrees(graph, k, kind, seed) -> dict:
    part = np.random.default_rng(seed).integers(0, k, size=graph.n)
    got = built(graph, k, kind, part)
    with oracles.installed("gain-table"):
        want = built(graph, k, kind, part)
    assert got == want
    return got


MATRIX = list(itertools.product(BASES, FORMS, ("unit", "weighted"), (2, 16, 64), KINDS))


@pytest.mark.parametrize(
    "base,form,weights,k,kind", MATRIX, ids=["-".join(map(str, c)) for c in MATRIX]
)
def test_build_is_the_oracle(base, form, weights, k, kind):
    g = BASES[base]()
    if weights == "weighted":
        g = weighted(g, seed=k)
    graph = as_input(g, form)
    got = assert_build_agrees(graph, k, kind, seed=k + 1)
    assert len(got["seeds"][1]) > 0
    # a compressed graph's rows are reported once a walk (the build with its
    # seeds, then boundary_vertices()), a CSR graph's not
    edges = {} if form == "csr" else {"decode.edges": 2 * graph.num_directed_edges}
    assert got["counters"] == edges
    if kind == "sparse" and base == "web":
        degrees = np.asarray(graph.degrees)
        assert (degrees >= k).any() and (degrees < k).any()  # dense and hash rows


def test_weights_spread_over_every_entry_width():
    g = gen.rgg2d(300, 8.0, seed=3)
    edges = np.stack([np.repeat(np.arange(g.n), g.degrees), g.adjncy], axis=1)
    once = edges[edges[:, 0] < edges[:, 1]]
    w = np.random.default_rng(1).choice([1, 200, 40_000, 3_000_000_000], size=len(once))
    heavy = from_edges(g.n, once, w)
    for form in FORMS:
        got = assert_build_agrees(as_input(heavy, form), 16, "sparse", seed=2)
        assert set(got["width_mix"]) == {8, 16, 32, 64}


@pytest.mark.parametrize("form", FORMS)
def test_entry_widths_at_their_thresholds(form):
    """Pairs of vertices joined by one edge whose weight sits on each side
    of 2^8, 2^16 and 2^32: the incident weight picks the width."""
    weights = np.array([255, 256, 65_535, 65_536, 2**32 - 1, 2**32], dtype=np.int64)
    pairs = np.arange(2 * len(weights)).reshape(-1, 2)
    graph = as_input(from_edges(2 * len(weights), pairs, weights), form)
    got = assert_build_agrees(graph, 4, "sparse", seed=1)
    width = np.frombuffer(got["_width_bits"][2], dtype=np.int64)
    assert width.tolist() == np.repeat([8, 16, 16, 32, 32, 64], 2).tolist()


@pytest.mark.parametrize("form", FORMS)
def test_an_affinity_that_wraps_to_zero_keeps_its_key(form):
    """Eight edges of 2^61 into one block sum to 2^64, which wraps to 0 as
    numpy's sums do; the numpy build inserted the pair all the same."""
    spokes = np.stack([np.zeros(8, dtype=np.int64), np.arange(1, 9)], axis=1)
    graph = as_input(from_edges(9, spokes, np.full(8, 1 << 61)), form)
    part = np.array([0] + [1] * 8)
    got = built(graph, 16, "sparse", part)
    with oracles.installed("gain-table"):
        assert built(graph, 16, "sparse", part) == got
    keys = np.frombuffer(got["_keys"][2], dtype=np.int32)[:16]  # vertex 0's row
    vals = np.frombuffer(got["_vals"][2], dtype=np.int64)[:16]
    assert (keys == 1).sum() == 1 and not vals.any()


@pytest.mark.parametrize("kind", KINDS)
def test_a_chunk_encoded_hub(kind):
    """``star(401)`` at a chunking threshold of 32 (chunks of 8): the hub is
    read from the stream chunk by chunk, and its dense row and the leaves'
    hash rows come out as the oracle's."""
    graph = as_input(star(401), "hub")
    assert graph.stats.num_chunked_vertices == 1
    for k in (2, 16, 64):
        assert_build_agrees(graph, k, kind, seed=k)


@pytest.mark.parametrize("form", FORMS)
def test_a_hash_row_touching_many_blocks(form):
    """``star(60)`` at k = 64: the centre's row is a hash row (degree below
    k) touching up to 60 blocks, past the kernel's insertion sort."""
    graph = as_input(star(60), form)
    for seed in range(3):
        got = assert_build_agrees(graph, 64, "sparse", seed)
        assert not np.frombuffer(got["_dense"][2], dtype=np.bool_).any()
        assert got["locks"] > 40


def edgeless(n: int) -> CSRGraph:
    return from_edges(n, np.empty((0, 2), dtype=np.int64))


DEGENERATE = {
    "n0": lambda: edgeless(0),
    "n1": lambda: edgeless(1),
    "all-isolated": lambda: edgeless(9),
    "k-above-n": lambda: gen.rgg2d(12, 4.0, seed=1),
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("make", list(DEGENERATE))
def test_degenerate_graphs(make, kind, form):
    graph = as_input(DEGENERATE[make](), form)
    for k in (1, 2, 64):
        got = assert_build_agrees(graph, k, kind, seed=k)
        if graph.num_directed_edges == 0:
            assert got["seeds"][1] == b"" and got["boundary"][1] == b""


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 150),
    degree=st.floats(0.5, 12.0),
    k=st.sampled_from([1, 2, 3, 8, 16, 64]),
    kind=st.sampled_from(KINDS),
    form=st.sampled_from(FORMS),
    seed=st.integers(0, 2**16),
)
def test_random_graphs(n, degree, k, kind, form, seed):
    g = gen.er(n, degree, seed=seed) if n > 1 else edgeless(n)
    if seed % 2 and g.num_directed_edges:
        g = weighted(g, seed)
    assert_build_agrees(as_input(g, form), k, kind, seed)


# --------------------------------------------------------------------- #
# refusals: named as the pass names them, the partition untouched
# --------------------------------------------------------------------- #
def refused(pg, kinds, exc, match):
    before = (pg.partition.tobytes(), pg.block_weights.tobytes())
    for kind in kinds:
        with pytest.raises(exc, match=match):
            make_gain_table(kind, pg)
    with pytest.raises(exc, match=match):
        pg.boundary_vertices()
    assert (pg.partition.tobytes(), pg.block_weights.tobytes()) == before


@pytest.mark.parametrize("form", FORMS)
def test_a_block_out_of_range_is_a_value_error(form):
    g = as_input(gen.rgg2d(200, 6.0, seed=8), form)
    pg = PartitionedGraph(g, 8, np.random.default_rng(1).integers(0, 8, size=g.n))
    pg.partition[50] = 99
    refused(pg, KINDS, ValueError, r"block id out of range at vertex 50 \(block 99\)")
    pg.partition[50] = -3
    refused(pg, KINDS, ValueError, r"block id out of range at vertex 50 \(block -3\)")


def test_a_neighbor_out_of_range_is_a_value_error():
    g = gen.rgg2d(200, 6.0, seed=8)
    pg = PartitionedGraph(g, 8, np.random.default_rng(1).integers(0, 8, size=g.n))
    g.adjncy[g.indptr[50]] = g.n + 3
    refused(pg, KINDS, ValueError, rf"vertex id out of range at vertex {g.n + 3}")


def test_a_stream_the_decoder_refuses_is_a_value_error():
    # vertex 0's last neighbour is 15, outside n = 10
    graph = _hand_built(10, 0, *_body(0, residuals=(1, 2, 15)))
    pg = PartitionedGraph(graph, 2, np.arange(10) % 2)
    refused(pg, KINDS, ValueError, r"neighbor id out of range at vertex 0 .corrupt stream")


class LyingDegrees:
    """A CSR graph whose degrees claim no vertex has a neighbour, so the
    sparse layout gives every row the smallest hash row (2 slots)."""

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph

    def __getattr__(self, name):
        return getattr(self._graph, name)

    @property
    def degrees(self) -> np.ndarray:
        return np.zeros(self._graph.n, dtype=np.int64)


def test_a_hash_row_with_no_slot_left_is_a_runtime_error():
    g = LyingDegrees(gen.rgg2d(200, 8.0, seed=8))
    pg = PartitionedGraph(g, 8, np.arange(g.n) % 8)  # most rows touch 3+ blocks
    before = (pg.partition.tobytes(), pg.block_weights.tobytes())
    with pytest.raises(RuntimeError, match=r"gain table for vertex \d+ is full"):
        make_gain_table("sparse", pg)
    assert (pg.partition.tobytes(), pg.block_weights.tobytes()) == before


SRC = str(Path(repro.__file__).resolve().parents[1])

FULL_ROW_INSERT = """
import numpy as np
from repro.core.kernels.gains import batch_hash_insert

keys, vals = np.array([0, 1], dtype=np.int32), np.ones(2, dtype=np.int64)
one = np.array([0]), np.array([2]), np.array([2]), np.array([5])
try:
    batch_hash_insert(keys, vals, *one)
except RuntimeError as exc:
    print(exc)
"""


def test_a_full_row_insert_raises_instead_of_spinning():
    """``batch_hash_insert`` into a 2-slot row holding two keys: a
    ``RuntimeError`` like ``batch_hash_probe``'s, not an endless probe (run
    in a child so that a spin fails the test instead of hanging it)."""
    env = {**os.environ, "PYTHONPATH": SRC}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", FULL_ROW_INSERT], env=env, capture_output=True, text=True,
            timeout=60,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        pytest.fail("batch_hash_insert spun on a full row")
    assert proc.returncode == 0, proc.stderr
    assert "table full?" in proc.stdout


# --------------------------------------------------------------------- #
# whole runs
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
@pytest.mark.parametrize("name", ("terapart-fm", "terapart-fm-full", "terapart-fm-none"))
def test_a_traced_partition_is_the_oracles(name, localized, monkeypatch):
    g = weighted(gen.rgg2d(1500, 8.0, seed=3), seed=3)
    config = preset(name, seed=4, obs=ObsConfig(enabled=True))
    config = config.with_(fm=FMConfig(gain_table=config.fm.gain_table, localized=localized))
    calls = []
    kernels = _native.gain_table_kernels()
    monkeypatch.setattr(
        _native, "gain_table_kernels",
        lambda: tuple(lambda *a, fn=fn: calls.append(1) or fn(*a) for fn in kernels),
    )  # fmt: skip
    got = repro.partition(g, 16, config)
    assert calls
    with oracles.installed("gain-table"):
        want = repro.partition(g, 16, config)
    assert np.array_equal(got.partition, want.partition)
    assert (got.cut, got.peak_bytes) == (want.cut, want.peak_bytes)
    assert got.obs["counters"] == want.obs["counters"]
