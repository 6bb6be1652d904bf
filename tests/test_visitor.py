"""The row visitor (``graph/neighborhood.h``) against the chunk decode.

Every compiled reader of a compressed row -- an LP round, a contraction step,
the crossing walk -- visits the row through one header, and the chunk
decode is the same visitor with a store sink.  Starting from valid rows
(plain, interval-heavy, weighted and chunk-encoded hubs), flipped bytes and
truncated byte ranges must give every visitor entry the code the chunk
decode gives, naming the same vertex, or let all of them succeed with the
sums of the decoded row.  A row with two faults reports the first one the
walk meets; a sink's refusal is one of them (the header states the order).
"""

from __future__ import annotations

import ctypes

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import _native
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from test_bulk_decode import _body, _hand_built

LABEL, LABELS = -4, 5  # lp_kernel.c's ERR_LABEL; contraction's labels 1..LABELS


def _band(n: int, reach: int, weights: bool):
    """Every vertex joined to the next ``reach``: rows of consecutive ids."""
    edges = np.array([(u, u + d) for u in range(n) for d in range(1, reach + 1) if u + d < n])
    w = np.random.default_rng(3).integers(1, 40, size=len(edges)) if weights else None
    return from_edges(n, edges, w)


def _hubbed(n: int):
    """A weighted band with vertex 0 joined to every other vertex: a row
    chunk-encoded above a threshold of 16."""
    band = _band(n, 2, False)
    src = np.repeat(np.arange(n), band.degrees)
    edges = {(int(a), int(b)) for a, b in zip(src, band.adjncy) if a < b}
    edges |= {(0, v) for v in range(2, n)}
    edges = np.array(sorted(edges))
    return from_edges(n, edges, np.random.default_rng(4).integers(1, 60, size=len(edges)))


def _weblike(weights: bool):
    g = gen.weblike(160, 8.0, seed=2)
    if not weights:
        return g
    src = np.repeat(np.arange(g.n), g.degrees)
    once = src < g.adjncy
    edges = np.stack([src[once], g.adjncy[once]], axis=1)
    return from_edges(g.n, edges, np.random.default_rng(5).integers(1, 1 << 40, size=len(edges)))


GRAPHS = {
    "plain": compress_graph(_weblike(False), enable_intervals=False),
    "intervals": compress_graph(_band(120, 6, False)),
    "weighted": compress_graph(_weblike(True)),
    "weighted-intervals": compress_graph(_band(120, 5, True)),
    "hub": compress_graph(_hubbed(90), high_degree_threshold=16, chunk_length=6),
}


class Rows:
    """A compressed graph's stream as arrays a test may corrupt, and the
    compiled entries called on them directly."""

    def __init__(self, graph):
        data, offsets = graph.stream()
        self.data, self.offsets = data.copy(), offsets.copy()
        self.degs = graph.degrees.copy()
        self.n = graph.n
        self.weighted = graph.has_edge_weights
        self.intervals = graph.config.enable_intervals
        self.chunking = graph.config.high_degree_threshold, graph.config.chunk_length
        self.cap = int(self.degs.max())
        self.pairs = np.zeros(2 * (min(self.cap, self.chunking[0]) // 3) + 2, dtype=np.int64)

    def corrupted(self, u: int, flips, cut: int) -> Rows:
        """Row ``u`` with ``flips`` (position, xor mask) applied inside its
        bytes and its last ``cut`` bytes dropped (later rows shift down)."""
        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        data = self.data.copy()
        for at, mask in flips:
            data[lo + at % (hi - lo)] ^= mask
        cut %= hi - lo + 1
        offsets = self.offsets.copy()
        offsets[u + 1 :] -= cut
        out = Rows.__new__(Rows)
        out.__dict__.update(self.__dict__)
        out.data = np.delete(data, np.arange(hi - cut, hi))
        out.offsets = offsets
        return out

    def stream(self) -> _native.Stream:
        """The LP / crossing source: no row scratch, a degree cap of the
        largest degree, one block's interval pairs."""
        self._block = _native.Stream(
            self.data.ctypes.data, len(self.data), self.offsets.ctypes.data, self.intervals,
            None, None, self.cap, self.pairs.ctypes.data, len(self.pairs), *self.chunking,
            self.weighted,
        )  # fmt: skip
        return ctypes.addressof(self._block)

    def decode(self, chunk) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
        """``(code, bad, owner, nbrs, wgts)`` of ``repro_decode_chunk``."""
        chunk = np.asarray(chunk, dtype=np.int64)
        degs = self.degs[chunk]
        total = int(degs.sum())
        owner, nbrs, wgts = (np.zeros(total, dtype=np.int64) for _ in range(3))
        bad = ctypes.c_int64()
        rc = _native.decode_kernel()(
            self.data.ctypes.data, len(self.data), self.offsets.ctypes.data, self.n,
            chunk.ctypes.data, degs.ctypes.data, len(chunk), *self.chunking, self.intervals,
            owner.ctypes.data, nbrs.ctypes.data, wgts.ctypes.data if self.weighted else None,
            total, self.pairs.ctypes.data, len(self.pairs), ctypes.byref(bad),
        )  # fmt: skip
        if not self.weighted:
            wgts[:] = 1
        return int(rc), bad.value, owner, nbrs, wgts

    def lp_round(self, u: int, clusters=None) -> tuple[int, int, int, int]:
        """``(code, info[BAD], distinct labels, edges)`` of one clustering
        round of the one-vertex chunk ``[u]``; the rating map must be zero
        again after it."""
        n = self.n
        clusters = np.arange(n, dtype=np.int64) if clusters is None else clusters
        maps = np.zeros((3, n), dtype=np.int64)
        rows = np.zeros(3, dtype=np.int64)
        stats, info = np.zeros(6, dtype=np.int64), np.zeros(2, dtype=np.int64)
        chunk, bounds = np.array([u], dtype=np.int64), np.array([0, 1], dtype=np.int64)
        weights, favorites = np.ones(n, dtype=np.int64), np.full(n, -1, dtype=np.int64)
        p = lambda a: a.ctypes.data  # noqa: E731
        rc = _native.library()["repro_lp_cluster_round"](
            n, p(chunk), None, p(self.degs), 1, None, None, 1, 0, 1, p(bounds), 1, p(clusters),
            p(weights), None, 1, 1 << 40, 1 << 40, p(favorites), p(maps[0]), p(maps[1]),
            p(maps[2]), n, p(rows), p(rows[1:]), p(rows[2:]), 1, None, p(stats), 1, p(info),
            self.stream(),
        )  # fmt: skip
        assert not maps[0].any(), "the rating map was left dirty"
        return int(rc), int(info[1]), int(rows[2]), int(stats[0])

    def contract(self, u: int) -> tuple[int, int, dict]:
        """``(code, info[BAD], {label: weight})`` of one contraction step
        whose one group is ``[u]``, neighbour v labelled ``1 + v % LABELS``."""
        deg = int(self.degs[u])
        labels = 1 + np.arange(self.n, dtype=np.int64) % LABELS
        maps = np.zeros((3, LABELS + 1), dtype=np.int64)
        label, weight = np.zeros(deg + 1, dtype=np.int64), np.zeros(deg + 1, dtype=np.int64)
        chunk, degs = np.array([u], dtype=np.int64), np.array([deg], dtype=np.int64)
        groups, degree = np.array([0, 1], dtype=np.int64), np.zeros(1, dtype=np.int64)
        info = np.zeros(2, dtype=np.int64)
        p = lambda a: a.ctypes.data  # noqa: E731
        rc = _native.library()["repro_contract_chunk"](
            self.n, p(chunk), None, p(degs), 1, None, None, 1, 0, LABELS + 1, p(labels),
            p(maps[0]), p(maps[1]), p(maps[2]), LABELS + 1, p(groups), 1, p(label), p(weight),
            deg, p(degree), p(info), self.stream(),
        )  # fmt: skip
        assert not maps[0].any(), "the rating map was left dirty"
        pairs = {int(a): int(b) for a, b in zip(label[: max(rc, 0)], weight[: max(rc, 0)])}
        return int(rc), int(info[1]), pairs

    def crossing(self, part: np.ndarray) -> tuple[int, int, int]:
        """``(code, bad, sum)`` of the crossing walk over every row."""
        out, bad = ctypes.c_int64(), ctypes.c_int64()
        rc = _native.library()["repro_crossing_weight"](
            self.n, self.degs.ctypes.data, part.ctypes.data, None, self.stream(),
            ctypes.byref(out), ctypes.byref(bad),
        )  # fmt: skip
        return int(rc), bad.value, out.value


def _wrapped(total: int) -> int:
    """``total`` modulo 2^64 as int64, how the kernels sum weights."""
    return (total + (1 << 63)) % (1 << 64) - (1 << 63)


def _agree(rows: Rows, u: int) -> str:
    """Assert every visitor entry agrees with the chunk decode on row ``u``;
    returns ``"ok"`` or the decode's code, for the coverage check."""
    rc, bad, _, nbrs, wgts = rows.decode([u])
    lp, lp_bad, labels, edges = rows.lp_round(u)
    pairs_rc, pairs_bad, pairs = rows.contract(u)
    part = (np.arange(rows.n) % 3).astype(np.int32)
    whole, whole_bad, src, dst, w = rows.decode(np.arange(rows.n))
    cross, cross_bad, cut = rows.crossing(part)
    if rc:
        assert (lp, lp_bad) == (_native.DECODE_ERROR + rc, 0)
        assert (pairs_rc, pairs_bad) == (_native.DECODE_ERROR + rc, 0)
        assert (whole, whole_bad) == (rc, u) and (cross, cross_bad) == (rc, u)
        return rc
    assert lp >= 0 and (labels, edges) == (len(np.unique(nbrs)), len(nbrs))
    want = {}
    for v, x in zip(nbrs.tolist(), wgts.tolist()):
        key = 1 + v % LABELS
        want[key] = _wrapped(want.get(key, 0) + x)
    assert pairs_rc == len(pairs) and pairs == want
    assert whole == 0 and cross == 0
    assert cut == _wrapped(int(w[part[src] != part[dst]].astype(object).sum()))
    return "ok"


#: each graph's rows with neighbours
ROWS = {name: np.flatnonzero(g.degrees).tolist() for name, g in GRAPHS.items()}


@st.composite
def corrupt_rows(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    u = draw(st.sampled_from(ROWS[name]))
    flips = draw(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), max_size=3))
    cut = draw(st.integers(0, 1 << 20)) if draw(st.booleans()) else 0
    return name, u, flips, cut


class TestCorruptRows:
    @given(case=corrupt_rows())
    @settings(max_examples=400, deadline=None)
    def test_every_visitor_entry_agrees_with_the_chunk_decode(self, case):
        name, u, flips, cut = case
        _agree(Rows(GRAPHS[name]).corrupted(u, flips, cut), u)

    def test_the_valid_rows_agree(self):
        for name, graph in GRAPHS.items():
            rows = Rows(graph)
            for u in ROWS[name][:: max(1, len(ROWS[name]) // 12)]:
                assert _agree(rows, u) == "ok", (name, u)

    def test_mutations_reach_many_codes(self):
        """The corruptions the property draws from do reach the decoder's
        checks: a single flip and a cut on every tenth row of every graph."""
        codes = set()
        rng = np.random.default_rng(7)
        for name, graph in GRAPHS.items():
            rows = Rows(graph)
            for u in ROWS[name][:: max(1, len(ROWS[name]) // 10)]:
                flip = (int(rng.integers(64)), 1 << int(rng.integers(8)))
                codes.add(_agree(rows.corrupted(u, [flip], 0), u))
                codes.add(_agree(rows.corrupted(u, [], int(rng.integers(1, 6))), u))
        assert {"ok", -1, -5, -6} <= codes, codes
        assert len(codes - {"ok"}) >= 5, codes


class TestTwoFaults:
    """A row with two faults reports the first the walk meets: the visitor
    rates as it decodes, so a neighbour's bad label met before a bad byte is
    the LP's code, while the chunk decode, which refuses no label, reports
    the byte."""

    N, U = 20, 2

    def test_a_bad_label_before_a_bad_residual_is_the_label(self):
        deg, body = _body(self.U, residuals=(3, self.N + 5))
        rows = Rows(_hand_built(self.N, self.U, deg, body))
        assert rows.decode([self.U])[0] == -6
        clusters = np.arange(self.N, dtype=np.int64)
        clusters[3] = self.N
        assert rows.lp_round(self.U, clusters)[:2] == (LABEL, 0)

    def test_a_bad_residual_before_a_bad_label_is_the_residual(self):
        deg, body = _body(self.U, residuals=(self.N + 5, self.N + 6))
        rows = Rows(_hand_built(self.N, self.U, deg, body))
        clusters = np.arange(self.N, dtype=np.int64)
        clusters[:] = self.N
        clusters[self.U] = self.U
        assert rows.lp_round(self.U, clusters)[:2] == (_native.DECODE_ERROR - 6, 0)

    def test_a_bad_weight_is_reported_after_every_neighbour(self):
        """Weights are read beside their neighbours but a weight fault is
        held to the row's end: a bad label anywhere in the row wins over a
        truncated last weight, and with good labels the code is the
        decode's."""
        graph = GRAPHS["weighted"]
        u = ROWS["weighted"][len(ROWS["weighted"]) // 2]
        rows = Rows(graph).corrupted(u, [], 1)
        code = rows.decode([u])[0]
        assert code == -1
        assert rows.lp_round(u)[:2] == (_native.DECODE_ERROR + code, 0)
        _, _, _, nbrs, _ = Rows(graph).decode([u])
        clusters = np.arange(graph.n, dtype=np.int64)
        clusters[nbrs[-1]] = graph.n
        assert rows.lp_round(u, clusters)[:2] == (LABEL, 0)
