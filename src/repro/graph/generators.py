"""Synthetic graph generators (KaGen substitutes + benchmark-set families).

The paper evaluates on three kinds of inputs, none of which are shippable:

* KaGen-generated ``rgg2D`` (random geometric) and ``rhg`` (random
  hyperbolic, power-law) families -- reimplemented here.  For ``rhg`` we use
  the threshold Geometric Inhomogeneous Random Graph (GIRG) formulation,
  which is the standard asymptotically-equivalent model of threshold RHG and
  reproduces the properties the paper relies on: power-law degrees with
  exponent ``gamma``, high clustering, and strong neighbor-ID locality.
* Benchmark Set A: 72 graphs from SuiteSparse / Network Repository spanning
  meshes, k-mer graphs, social networks and compressed-text graphs.  We
  generate structural stand-ins per family (``grid2d``/``torus`` for FEM
  meshes, ``kmer`` for low-locality near-regular graphs, ``ba`` for social
  networks, ``textlike`` for the weighted text-compression class).
* Benchmark Set B: huge web crawls.  ``weblike`` models their two key
  features -- skewed degree distribution and *runs of consecutive neighbor
  IDs* induced by URL-ordered vertex IDs -- which drive both partitioning
  behaviour and the 5-11x interval-encoding compression ratios.

All generators take a ``seed`` and are deterministic given it.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_zeros

from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# --------------------------------------------------------------------- #
# KaGen substitutes
# --------------------------------------------------------------------- #
def rgg2d(n: int, avg_degree: float = 8.0, seed: int = 0) -> CSRGraph:
    """Random geometric graph on the unit square (KaGen ``rgg2D``).

    Connects points within Euclidean distance ``r`` chosen so the expected
    average degree is ``avg_degree``.  Mesh-like: no high-degree vertices.
    """
    from scipy.spatial import cKDTree  # scipy loads with the first mesh, not with repro

    if n < 2:
        return from_edges(n, np.zeros((0, 2), dtype=np.int64))
    rng = _rng(seed)
    pts = rng.random((n, 2))
    r = float(np.sqrt(avg_degree / (np.pi * n)))
    # sort by space-filling order so vertex IDs have locality, as KaGen's
    # distributed generation produces
    order = np.lexsort((pts[:, 1], np.floor(pts[:, 0] * 16)))
    pts = pts[order]
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r, output_type="ndarray")
    return from_edges(n, pairs.astype(np.int64))


def rhg(
    n: int, avg_degree: float = 8.0, gamma: float = 3.0, seed: int = 0
) -> CSRGraph:
    """Random hyperbolic graph substitute via threshold 1-D GIRG.

    Vertices get power-law weights ``w ~ Pareto(gamma - 1)`` and positions on
    a ring; ``u ~ v`` iff ``dist(x_u, x_v) <= c * w_u * w_v / W``.  The
    constant ``c`` is calibrated so the realised average degree approaches
    ``avg_degree``.  Weight layers (powers of two) + sorted positions give
    near-linear generation time.
    """
    if gamma <= 2.0:
        raise ValueError("gamma must be > 2 for finite mean degree")
    if n < 2:
        return from_edges(n, np.zeros((0, 2), dtype=np.int64))
    rng = _rng(seed)
    alpha = gamma - 1.0
    w = (1.0 - rng.random(n)) ** (-1.0 / alpha)  # Pareto(alpha), min 1
    w = np.minimum(w, np.sqrt(n))  # cap to keep max degree < n
    pos = rng.random(n)
    total_w = float(w.sum())
    # E[deg_u] = sum_v min(1, 2 c w_u w_v / W); for small c: 2 c w_u.
    # Solve 2 c E[w] = avg_degree / n * W  =>  c = avg_degree / (2 E[w]) ... :
    mean_w = total_w / n
    c = avg_degree / (2.0 * mean_w)

    # sort by position; vertex ids follow position for locality
    order = np.argsort(pos)
    pos = pos[order]
    w = w[order]

    # layer vertices by log2(weight)
    layers = np.floor(np.log2(w)).astype(np.int64)
    max_layer = int(layers.max())
    layer_members: dict[int, np.ndarray] = {
        l: np.flatnonzero(layers == l) for l in range(max_layer + 1)
    }
    layer_members = {l: idx for l, idx in layer_members.items() if len(idx)}

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for li, mi in layer_members.items():
        for lj, mj in layer_members.items():
            if lj < li:
                continue
            # conservative window for this layer pair
            win = c * (2.0 ** (li + 1)) * (2.0 ** (lj + 1)) / total_w
            if win >= 0.5:
                # all pairs across these layers are candidates
                cand_u = np.repeat(mi, len(mj))
                cand_v = np.tile(mj, len(mi))
            else:
                pj = pos[mj]
                lo = np.searchsorted(pj, pos[mi] - win)
                hi = np.searchsorted(pj, pos[mi] + win)
                counts = hi - lo
                # also wrap-around candidates on the ring
                cand_u = np.repeat(mi, counts)
                flat = [mj[l:h] for l, h in zip(lo.tolist(), hi.tolist())]
                cand_v = (
                    np.concatenate(flat) if flat else np.empty(0, dtype=np.int64)
                )
                # ring wrap: near 0/1 boundary
                wrap_lo = np.searchsorted(pj, pos[mi] - win + 1.0)
                wrap_counts = len(mj) - wrap_lo
                if np.any(wrap_counts > 0):
                    wu = np.repeat(mi, wrap_counts)
                    wflat = [mj[l:] for l in wrap_lo.tolist()]
                    wv = np.concatenate(wflat) if wflat else np.empty(0, dtype=np.int64)
                    cand_u = np.concatenate([cand_u, wu])
                    cand_v = np.concatenate([cand_v, wv])
                wrap_hi = np.searchsorted(pj, pos[mi] + win - 1.0)
                if np.any(wrap_hi > 0):
                    wu = np.repeat(mi, wrap_hi)
                    wflat = [mj[:h] for h in wrap_hi.tolist()]
                    wv = np.concatenate(wflat) if wflat else np.empty(0, dtype=np.int64)
                    cand_u = np.concatenate([cand_u, wu])
                    cand_v = np.concatenate([cand_v, wv])
            if len(cand_u) == 0:
                continue
            keep = cand_u < cand_v
            cand_u, cand_v = cand_u[keep], cand_v[keep]
            d = np.abs(pos[cand_u] - pos[cand_v])
            d = np.minimum(d, 1.0 - d)
            thresh = c * w[cand_u] * w[cand_v] / total_w
            hit = d <= thresh
            us.append(cand_u[hit])
            vs.append(cand_v[hit])
    if us:
        edges = np.stack([np.concatenate(us), np.concatenate(vs)], axis=1)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return from_edges(n, edges)


# --------------------------------------------------------------------- #
# benchmark-family stand-ins
# --------------------------------------------------------------------- #
def weblike(
    n: int,
    avg_degree: float = 20.0,
    seed: int = 0,
    *,
    locality: float = 0.9,
    mean_run: int = 6,
    hub_fraction: float = 0.002,
) -> CSRGraph:
    """Web-crawl stand-in (gsh-2015 / eu-2015 / hyperlink class).

    Vertex IDs follow URL order, so most links land in a window around the
    source and arrive in *consecutive runs* (directory listings, navigation
    bars) -- exactly the structure interval encoding exploits.  Local links
    are emitted as explicit runs of ``3..2*mean_run`` consecutive IDs, so
    interval encoding is crucial for these graphs (gap-only compresses 2-3x,
    gap+interval 5-11x, as in Fig. 6 right).  A small hub set receives
    heavy-tailed in-links, producing the huge max degrees of Table I.
    """
    rng = _rng(seed)
    # heavy-tailed out-degrees
    deg = np.minimum(
        rng.zipf(1.7, size=n), max(4, int(avg_degree * 12))
    ).astype(np.int64)
    scale = avg_degree / max(deg.mean(), 1e-9) / 2.0
    deg = np.maximum(1, (deg * scale).astype(np.int64))

    local_deg = (deg * locality).astype(np.int64)
    global_deg = deg - local_deg

    # local links: per vertex, ceil(local_deg / run_len) runs of consecutive
    # IDs anchored inside a window around the source
    window = max(16, n // 256)
    run_len = max(3, mean_run)
    num_runs = -(-local_deg // run_len)  # ceil
    total_runs = int(num_runs.sum())
    run_src = np.repeat(np.arange(n, dtype=np.int64), num_runs)
    anchors = run_src + rng.integers(-window, window + 1, size=total_runs)
    # expand each run into run_len consecutive destinations
    lsrc = np.repeat(run_src, run_len)
    ldst = np.repeat(anchors, run_len) + np.tile(
        np.arange(run_len, dtype=np.int64), total_runs
    )
    np.clip(ldst, 0, n - 1, out=ldst)

    # global links: preferential toward a hub set
    total_global = int(global_deg.sum())
    gsrc = np.repeat(np.arange(n, dtype=np.int64), global_deg)
    n_hubs = max(1, int(n * hub_fraction))
    hubs = rng.integers(0, n, size=n_hubs)
    pick_hub = rng.random(total_global) < 0.7
    gdst = np.where(
        pick_hub,
        hubs[rng.integers(0, n_hubs, size=total_global)],
        rng.integers(0, n, size=total_global),
    )
    edges = np.stack(
        [np.concatenate([lsrc, gsrc]), np.concatenate([ldst, gdst])], axis=1
    )
    return from_edges(n, edges)


def kmer(n: int, degree: int = 4, seed: int = 0) -> CSRGraph:
    """k-mer graph stand-in: near-regular, *no* neighbor-ID locality.

    De-Bruijn-style genome graphs have degree <= 2k with neighbor IDs given
    by hashes, so gap encoding buys nothing (compression ratio ~1 in
    Fig. 10).  Modelled as a union of ``degree`` random permutations --
    random endpoints, tightly concentrated degrees.
    """
    rng = _rng(seed)
    srcs = []
    dsts = []
    for _ in range(max(1, degree // 2)):
        perm = rng.permutation(n).astype(np.int64)
        srcs.append(np.arange(n, dtype=np.int64))
        dsts.append(perm)
    edges = np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1)
    return from_edges(n, edges)


def grid2d(rows: int, cols: int, *, torus: bool = False) -> CSRGraph:
    """FEM-mesh stand-in: 2-D grid (optionally wrapped into a torus).

    Maximal neighbor-ID locality; compression ratios around 5-6 as the paper
    reports for finite-element graphs.
    """
    n = rows * cols
    idx = np.arange(n, dtype=np.int64).reshape(rows, cols)
    es = []
    # horizontal
    es.append(np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1))
    # vertical
    es.append(np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1))
    if torus:
        es.append(np.stack([idx[:, -1], idx[:, 0]], axis=1))
        es.append(np.stack([idx[-1, :], idx[0, :]], axis=1))
    edges = np.concatenate(es, axis=0)
    return from_edges(n, edges)


def grid3d(nx: int, ny: int, nz: int) -> CSRGraph:
    """3-D grid mesh."""
    n = nx * ny * nz
    idx = np.arange(n, dtype=np.int64).reshape(nx, ny, nz)
    es = [
        np.stack([idx[:-1].ravel(), idx[1:].ravel()], axis=1),
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()], axis=1),
    ]
    return from_edges(n, np.concatenate(es, axis=0))


def ba(n: int, m_attach: int = 4, seed: int = 0) -> CSRGraph:
    """Barabási-Albert preferential attachment (social-network stand-in)."""
    if n <= m_attach:
        raise ValueError("n must exceed m_attach")
    rng = _rng(seed)
    # repeated-nodes implementation: O(n * m)
    targets = list(range(m_attach))
    repeated: list[int] = []
    us: list[int] = []
    vs: list[int] = []
    for v in range(m_attach, n):
        for t in targets:
            us.append(v)
            vs.append(t)
        repeated.extend(targets)
        repeated.extend([v] * m_attach)
        # sample next targets from repeated (preferential) without replacement
        targets = []
        seen = set()
        while len(targets) < m_attach:
            t = repeated[rng.integers(0, len(repeated))]
            if t not in seen:
                seen.add(t)
                targets.append(t)
    edges = np.stack(
        [np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)], axis=1
    )
    return from_edges(n, edges)


def er(n: int, avg_degree: float = 8.0, seed: int = 0) -> CSRGraph:
    """Erdős–Rényi G(n, m) graph."""
    rng = _rng(seed)
    m = int(n * avg_degree / 2)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return from_edges(n, np.stack([src, dst], axis=1))


def textlike(n: int, seed: int = 0, *, skip_links: int = 3) -> CSRGraph:
    """Weighted text-compression-graph stand-in (Pizza&Chili class).

    Grammar-compressed texts yield chain-like weighted graphs: a backbone
    path (adjacent symbols) with Zipf-distributed multi-edge weights plus
    skip links from repeated phrases.
    """
    rng = _rng(seed)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    backbone = np.arange(n - 1, dtype=np.int64)
    us.append(backbone)
    vs.append(backbone + 1)
    ws.append(np.minimum(rng.zipf(1.5, size=n - 1), 10_000).astype(np.int64))
    for k in range(skip_links):
        span = int(2 ** (k + 2))
        count = max(1, n // (2 * (k + 1)))
        s = rng.integers(0, max(1, n - span), size=count)
        us.append(s.astype(np.int64))
        vs.append((s + rng.integers(2, span + 1, size=count)).astype(np.int64))
        ws.append(np.minimum(rng.zipf(1.8, size=count), 1_000).astype(np.int64))
    edges = np.stack([np.concatenate(us), np.concatenate(vs)], axis=1)
    weights = np.concatenate(ws)
    edges[:, 1] = np.minimum(edges[:, 1], n - 1)
    return from_edges(n, edges, weights)


def star(n: int) -> CSRGraph:
    """Star graph: the extreme high-degree stress case for chunked encoding."""
    edges = np.stack(
        [
            tracked_zeros(n - 1, np.int64, name="star-centers"),
            np.arange(1, n, dtype=np.int64),
        ],
        axis=1,
    )
    return from_edges(n, edges)


def path(n: int) -> CSRGraph:
    b = np.arange(n - 1, dtype=np.int64)
    return from_edges(n, np.stack([b, b + 1], axis=1))


def complete(n: int) -> CSRGraph:
    u, v = np.triu_indices(n, k=1)
    return from_edges(n, np.stack([u.astype(np.int64), v.astype(np.int64)], axis=1))


def rmat(
    n: int,
    avg_degree: float = 8.0,
    seed: int = 0,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """R-MAT / Kronecker graph (Graph500-style power-law generator).

    Each edge is placed by descending a 2^scale x 2^scale adjacency matrix,
    choosing a quadrant per level with probabilities (a, b, c, 1-a-b-c).
    Produces heavy-tailed degrees with community structure; rounds ``n`` up
    to a power of two internally and discards out-of-range endpoints.
    """
    if not (0 < a and 0 <= b and 0 <= c and a + b + c < 1):
        raise ValueError("require a,b,c >= 0 and a+b+c < 1")
    rng = _rng(seed)
    scale = max(1, int(np.ceil(np.log2(max(2, n)))))
    m = int(n * avg_degree / 2)
    src = tracked_zeros(m, np.int64, name="rmat-src")
    dst = tracked_zeros(m, np.int64, name="rmat-dst")
    for level in range(scale):
        r = rng.random(m)
        # quadrant: 0=(0,0) w.p. a, 1=(0,1) w.p. b, 2=(1,0) w.p. c, 3=(1,1)
        right = (r >= a) & (r < a + b)
        down = (r >= a + b) & (r < a + b + c)
        both = r >= a + b + c
        bit = np.int64(1) << (scale - 1 - level)
        dst += bit * (right | both)
        src += bit * (down | both)
    keep = (src < n) & (dst < n)
    edges = np.stack([src[keep], dst[keep]], axis=1)
    return from_edges(n, edges)


def connected_components(graph) -> np.ndarray:
    """Component label per vertex (labels are representative vertex IDs).

    Pointer-jumping label propagation: O((n + m) log n) vectorized rounds.
    """
    n = graph.n
    labels = np.arange(n, dtype=np.int64)
    if n == 0:
        return labels
    from repro.graph.access import full_adjacency

    src, dstv, _ = full_adjacency(graph)
    while True:
        new = labels.copy()
        np.minimum.at(new, src, labels[dstv])
        # pointer jumping
        changed = not np.array_equal(new, labels)
        labels = new
        for _ in range(2):
            labels = labels[labels]
        if not changed:
            break
    return labels


GENERATORS = {
    "rmat": rmat,
    "rgg2d": rgg2d,
    "rhg": rhg,
    "weblike": weblike,
    "kmer": kmer,
    "ba": ba,
    "er": er,
    "textlike": textlike,
}


def generate(name: str, **kwargs) -> CSRGraph:
    """Dispatch into the generator registry by family name."""
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r}; know {sorted(GENERATORS)}")
    return GENERATORS[name](**kwargs)
