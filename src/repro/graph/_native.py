"""Loader of the compiled kernels: the codec's chunk decode and
packet encoder (``decode_kernel.c``), initial partitioning's searches,
subgraph split and bisection-tree depth, which runs every attempt pool
(``core/initial/bisection_kernel.c``), the
rating map of label
propagation's rounds and picks and of contraction
(``core/kernels/lp_kernel.c``) and k-way FM's pass, gain-table build and
seed scan (``core/refinement/fm_kernel.c``), one library.

Compiled on first use with ``$CC`` (else ``cc``, else ``gcc``) into a
per-user cache directory, loaded through :mod:`ctypes`.  The kernels are
required: every hot phase has this one implementation.  No compiler, a
failed build, a library that does not load or a symbol that does not
resolve raises :class:`NativeBuildError` from :func:`library` and the seven
getters (:func:`decode_kernel`, :func:`encode_kernel`,
:func:`bisection_kernels`, :func:`lp_kernels`, :func:`contraction_kernels`,
:func:`fm_kernel`, :func:`gain_table_kernels`), naming the compiler command
and its stderr or the missing symbol; the error is kept for the process,
like the library.

:func:`check_graph` states the inputs the kernels' integer arithmetic
holds on an input graph, so that the entry points refuse the rest before
any work: contraction only sums weights, so a bound that holds on the input
holds at every coarse level.

The library is named by the sha256 of every source and header, flags,
compiler and platform, written under a temporary name and published with one
``os.replace``: concurrent first builds each publish a complete file, and a
build of other source is never loaded.  It is only ever loaded from a
directory this user owns and nobody else can write.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import platform
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

_SOURCES = (
    Path(__file__).with_name("decode_kernel.c"),
    Path(__file__).parents[1] / "core" / "initial" / "bisection_kernel.c",
    Path(__file__).parents[1] / "core" / "kernels" / "lp_kernel.c",
    Path(__file__).parents[1] / "core" / "refinement" / "fm_kernel.c",
)
#: what the sources include: part of the library's name, not compiled alone
_HEADERS = (Path(__file__).with_name("neighborhood.h"),)
# no fused multiply-add and no errno: the pool's skip rule rounds every
# double operation once, as Python does, and sqrt is the bare instruction
_FLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno"]

#: the codec's one error enum: what ``repro_decode_chunk`` returns for a
#: stream it refuses and ``repro_encode_run`` for a run it refuses
ERRORS = {
    -1: "varint truncated",
    -2: "varint too long",
    -3: "interval count or lengths exceed degree",
    -4: "interval contains a residual",
    -5: "neighborhood value count mismatch",
    -6: "neighbor id out of range",
    -7: "vertex id, byte offsets or degree out of range",
    -8: "neighbors descend inside a row",
    -9: "it lists the same neighbor twice",
    -10: "an edge-weight gap does not fit 63 bits once sign-folded",
    -11: "output capacity exhausted",
    -12: "a chunk's byte length runs past its neighborhood",
}

#: ``repro_encode_run``'s answer for an unsorted row (sort, then call
#: again) and its two refusals, which the numpy encoder raises alike
ENCODE_DESCENT, ENCODE_DUPLICATE, ENCODE_WEIGHT = -8, -9, -10

#: what the functions of ``bisection_kernel.c`` return for a graph or a
#: buffer they refuse (one enum in the source, one table here)
BISECTION_ERRORS = {
    -1: "vertex id out of range",
    -2: "heap, moves, grown or subgraph capacity exhausted",
    -3: "assignment entry other than 0 or 1",
    -4: "label, slot, pool kind, seed or block out of range",
    -5: "xadj does not tile the adjacency",
}

#: what the functions of ``lp_kernel.c`` return for a chunk or round they
#: refuse
LP_ERRORS = {
    -1: "vertex id out of range",
    -2: "adjacency, group or chunk bounds out of range",
    -3: "neighbor id out of range",
    -4: "cluster or block id out of range",
    -5: "rating map or output capacity exhausted",
}

#: what ``repro_fm_pass`` (``core/refinement/fm_kernel.c``) returns for a
#: pass it refuses, with every write of the pass undone (a negative affinity
#: and a full hash row are the gain table's own refusals), and what its
#: table build and seed scan return for a graph, partition or layout they
#: refuse
FM_ERRORS = {
    -1: "vertex id out of range",
    -2: "adjacency or gain-table row bounds out of range",
    -3: "block id out of range",
    -4: "negative affinity",
    -5: "gain table row is full",
    -6: "out of memory",
}

#: ``lp_kernel.c`` and ``fm_kernel.c`` return ``DECODE_ERROR + c`` for a
#: stream that the row reader (``neighborhood.h``) refuses with code ``c``
#: (a key of ERRORS)
DECODE_ERROR = -100

#: the kernels sum vertex weights in int64: they take only weights >= 0
#: whose total stays below this
WEIGHT_LIMIT = 1 << 62
#: the bisection pool's skip rule divides cut sums as doubles: every cut a
#: pool sums stays below this, so each converts exactly
CUT_SUM_LIMIT = 1 << 53


class NativeBuildError(RuntimeError):
    """The compiled kernels could not be built or loaded: the compiler
    command and its stderr, or the symbol the library lacks."""


def exact_sum(values) -> int:
    """The sum of int64 ``values`` as a Python int, never wrapped: numpy's
    int64 sum where no partial sum can leave int64, else the high and low
    32-bit halves summed apart (each fits) and joined."""
    values = np.asarray(values)
    if len(values) == 0:
        return 0
    widest = max(abs(int(values.min())), abs(int(values.max())))
    if widest * len(values) < 1 << 63:
        return int(values.sum())
    total = 0
    for at in range(0, len(values), 1 << 30):
        part = values[at : at + (1 << 30)]
        total += (int((part >> 32).sum()) << 32) + int((part & 0xFFFFFFFF).sum())
    return total


def vertex_weight_error(vwgt) -> str | None:
    """Why the kernels cannot sum the vertex weights ``vwgt``, or ``None``:
    a negative weight, or a total of :data:`WEIGHT_LIMIT` or more."""
    vwgt = np.asarray(vwgt)
    if len(vwgt) == 0:
        return None
    values = vwgt[:1] if vwgt.strides == (0,) else vwgt
    if int(values.min()) < 0:
        return "a vertex weight is negative"
    if int(values.max()) * len(vwgt) < WEIGHT_LIMIT:
        return None
    total = int(values[0]) * len(vwgt) if vwgt.strides == (0,) else exact_sum(values)
    if total >= WEIGHT_LIMIT:
        return f"the total vertex weight {total} is not below 2^62"
    return None


def edge_weight_sum(graph) -> int:
    """``W``: the sum of |edge weight| over the directed edges of ``graph``,
    which bounds every coarse graph's, every subgraph's and every vertex's
    incident weight sum (a compressed graph's was summed at compression)."""
    if not graph.has_edge_weights:
        return graph.num_directed_edges
    if not hasattr(graph, "adjwgt"):
        return graph.edge_weight_sum
    return exact_sum(np.abs(np.asarray(graph.adjwgt)))


def slack_error(edge_weight_sum: int) -> str | None:
    """Why k-way FM's abort slack, ten average edge weights of a level, may
    leave ``[0, 2^62)`` on a graph of |edge weight| sum ``edge_weight_sum``
    (no level's average exceeds it), or ``None``."""
    if 10 * edge_weight_sum >= WEIGHT_LIMIT:
        return (
            f"10 W is not below 2^62 (W = {edge_weight_sum} summed |edge weights|, "
            f"k-way FM's abort slack)"
        )
    return None


def cut_sum_error(attempts: int, edge_weight_sum: int) -> str | None:
    """Why a bisection pool of ``attempts`` cannot sum its cuts exactly as
    doubles, or ``None``."""
    if max(1, attempts) * edge_weight_sum >= CUT_SUM_LIMIT:
        return (
            f"attempts * W is not below 2^53 ({max(1, attempts)} bisection attempts, "
            f"W = {edge_weight_sum} summed |edge weights|)"
        )
    return None


def check_graph(graph, attempts: int) -> None:
    """Refuse, with one ``ValueError`` naming the bound, an input graph whose
    weights the kernels' integer arithmetic cannot hold at some level of a
    run whose initial partitioning makes ``attempts`` bisection attempts (0:
    a warm start, which bisects nothing): vertex weights negative or summing
    to 2^62 or more, ``10 W`` not below 2^62, or ``attempts * W`` not below
    2^53 (``W``: :func:`edge_weight_sum`).  Contraction only sums weights
    and subgraphs only drop them, so each bound holds at every coarse level
    once it holds here.  A CSR graph's ``W`` is summed only when its cheap
    bound, the heaviest |weight| times the edges, fails a bound."""
    why = vertex_weight_error(graph.vwgt)
    if why is None:
        def error(total):
            return slack_error(total) or (cut_sum_error(attempts, total) if attempts else None)

        if graph.has_edge_weights and hasattr(graph, "adjwgt"):  # CSR
            w = np.asarray(graph.adjwgt)
            heaviest = max(abs(int(w.min(initial=0))), abs(int(w.max(initial=0))))
            why = error(heaviest * graph.num_directed_edges) and error(edge_weight_sum(graph))
        else:
            why = error(edge_weight_sum(graph))
    if why is not None:
        raise ValueError(f"graph refused: {why}")


def clamp_weight(weight: int) -> int:
    """A target or cap as the kernels compare it: no weight sum they form
    leaves ``[0, WEIGHT_LIMIT)``, so clamping changes no comparison (and a
    cap past int64 is not truncated by ctypes)."""
    return max(-1, min(operator.index(weight), WEIGHT_LIMIT))


_p, _i64 = ctypes.c_void_p, ctypes.c_int64


class Stream(ctypes.Structure):
    """``stream_t`` of ``neighborhood.h``, the kernels' compressed source: a
    graph's bytes and offsets, its interval flag, the largest degree a row
    may claim (``cap``) with one row's scratch (NULL where rows are visited,
    not decoded), one block's interval pairs, its format's chunking, and
    whether it holds edge weights."""

    _fields_ = [
        ("data", _p), ("data_len", _i64), ("offsets", _p), ("intervals", _i64),
        ("nbrs", _p), ("wgts", _p), ("cap", _i64), ("pairs", _p), ("pairs_cap", _i64),
        ("hub_threshold", _i64), ("chunk_length", _i64), ("weighted", _i64),
    ]  # fmt: skip


#: (n, chunk, starts, degs, count, adj, wgt, unit_wgt, adj_len) and
#: (slot, seen, rating, cap) of every LP and contraction kernel; a round adds
#: (by_vertex, bounds, chunks) to the segments
_SEGMENTS = [_i64, _p, _p, _p, _i64, _p, _p, _i64, _i64]
_ROUND = [*_SEGMENTS, _i64, _p, _i64]
_RATING_MAP = [_p, _p, _p, _i64]
#: exported symbol -> argtypes (all return int64); every one must resolve
SIGNATURES = {
    # data, data_len, offsets, n, chunk, degs, count, hub_threshold,
    # chunk_length, intervals, owner, nbrs, wgts, capacity, pairs, pairs_cap, bad
    "repro_decode_chunk": [
        _p, _i64, _p, _i64, _p, _p, _i64, _i64, _i64, ctypes.c_int32, _p, _p, _p, _i64, _p, _i64,
        _p,
    ],
    # n, degs, label32, label64, stream, out, bad
    "repro_crossing_weight": [_i64, _p, _p, _p, _p, _p, _p],
    # lo, first_edge, count, nbrs, edges, wgts, intervals, hub_threshold,
    # chunk_length, out, out_cap, starts, stats, bad
    "repro_encode_run": [
        _i64, _p, _i64, _p, _i64, _p, ctypes.c_int32, _i64, _i64, _p, _i64, _p, _p, _p,
    ],
    # the searches share (n, xadj, adj, wgt, vwgt, ..., heap, heap_cap, work):
    # ... = order, target0, max0, gain, in_block, blocked, grown, grown_cap
    "repro_greedy_graph_growing": [
        _i64, _p, _p, _p, _p, _p, _i64, _i64, _p, _p, _p, _p, _i64, _p, _i64, _p,
    ],
    # ... = max0, max1, rounds, patience, side, gain, locked, kept, moves, moves_cap
    "repro_fm2way": [
        _i64, _p, _p, _p, _p, _i64, _i64, _i64, _i64, _p, _p, _p, _p, _p, _i64, _p, _i64, _p,
    ],
    # n, xadj, adj, wgt, vwgt, labels, slot_of, label_count, slots, ids,
    # local, out_xadj, out_adj, out_wgt, adj_cap, out_vwgt, out_ids,
    # sort_scratch, sort_cap, info
    "repro_split": [
        _i64, _p, _p, _p, _p, _p, _p, _i64, _i64, _p, _p, _p, _p, _p, _i64, _p, _p, _p, _i64, _p,
    ],
    # nodes, node_rows, xadj, xadj_len, adj, wgt, adj_len, vwgt, ids,
    # vertex_len, seeds, seed_count, pool, pool_len, attempts, sigmas,
    # rounds, scratch_n, the pool's twelve scratch arrays, moves_cap,
    # labels, local, sort_scratch, sort_cap, out_xadj, out_xadj_len,
    # out_adj, out_wgt, out_adj_len, out_vwgt, out_ids, out_vertex_len,
    # children, part, part_len, rows, heap, heap_cap, work
    "repro_bisect_depth": [
        _i64, _p, _p, _i64, _p, _p, _i64, _p, _p, _i64, _p, _i64, _p, _i64, _i64, ctypes.c_double,
        _i64, _i64, *[_p] * 12, _i64, _p, _p, _p, _i64, _p, _i64, _p, _p, _i64, _p, _p, _i64, _p,
        _p, _i64, _p, _p, _i64, _p,
    ],
    # segments, by_vertex, bounds, chunks, clusters, cluster_weights, vwgt,
    # unit_vwgt, max_cluster_weight, t_bump, favorites, rating map, fav, best,
    # nc, out_cap, moved, stats, stats_cap, info, stream
    "repro_lp_cluster_round": [
        *_ROUND, _p, _p, _p, _i64, _i64, _i64, _p, *_RATING_MAP, _p, _p, _p, _i64, _p, _p, _i64,
        _p, _p,
    ],
    # segments, by_vertex, bounds, chunks, k, part, block_weights, vwgt,
    # unit_vwgt, limits, rating map, best, out_cap, moved, stats, stats_cap,
    # info, stream
    "repro_lp_refine_round": [
        *_ROUND, _i64, _p, _p, _p, _i64, _p, *_RATING_MAP, _p, _i64, _p, _p, _i64, _p, _p,
    ],
    # the two picks: their chunk's arguments, and target[] after moved[]
    "repro_lp_cluster_pick": [
        *_SEGMENTS, _p, _p, _p, _i64, _i64, *_RATING_MAP, _p, _p, _p, _p, _p, _i64, _p, _p,
    ],
    "repro_lp_refine_pick": [
        *_SEGMENTS, _i64, _p, _p, _p, _i64, _p, *_RATING_MAP, _p, _p, _p, _i64, _p, _p,
    ],
    # segments, label_count, labels, rating map, groups, group_count, label,
    # weight, out_cap, degree, info, stream
    "repro_contract_chunk": [
        *_SEGMENTS, _i64, _p, *_RATING_MAP, _p, _i64, _p, _p, _i64, _p, _p, _p,
    ],
    # labels, count, label_count, offsets, members, info
    "repro_group_by_label": [_p, _i64, _i64, _p, _p, _p],
    # n, indptr, adj, wgt, unit_wgt, adj_len, degs, streams, k, part,
    # block_weights, vwgt, unit_vwgt, max_block_weight, kind, keys, vals,
    # offsets, dense, vals_len, seeds, count, localized, max_fruitless,
    # max_region, slack, locked, out, info
    "repro_fm_pass": [
        _i64, _p, _p, _p, _i64, _i64, _p, _p, _i64, _p, _p, _p, _i64, _i64, _i64, _p, _p, _p, _p,
        _i64, _p, _i64, _i64, _i64, _i64, _i64, _p, _p, _p,
    ],
    # the graph as above, k, part, kind, keys, vals, offsets, dense,
    # vals_len, width, seeds, out, info
    "repro_gain_table_build": [
        _i64, _p, _p, _p, _i64, _i64, _p, _p, _i64, _p, _i64, _p, _p, _p, _p, _i64, _p, _p, _p,
        _p,
    ],
    # the graph as above, k, part, seeds, out, info
    "repro_boundary_vertices": [_i64, _p, _p, _p, _i64, _i64, _p, _p, _i64, _p, _p, _p, _p],
}  # fmt: skip

_lock = threading.Lock()
_library = None
_loaded = False


def _cache_dir() -> tuple[Path, bool]:
    """``(directory, ephemeral)``: ``$XDG_CACHE_HOME/repro`` or
    ``~/.cache/repro`` if it is (or can be made) ours alone, else a
    per-process temporary directory -- the compile is then paid per process."""
    try:
        path = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
        shared = st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        if st.st_uid == os.getuid() and not shared and os.access(path, os.W_OK):
            return path, False
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        pass
    return Path(tempfile.mkdtemp(prefix="repro-native-")), True


def _build_key(cc: list[str]) -> str:
    """The library's name: a hash of every source and header, the flags, the
    compiler command and the platform."""
    texts = [path.read_text() for path in (*_SOURCES, *_HEADERS)]
    return hashlib.sha256(
        "\0".join([*texts, *_FLAGS, *cc, platform.platform()]).encode()
    ).hexdigest()[:20]


def _build(cache: Path) -> Path:
    """Path of the compiled library in ``cache``, compiling it if missing."""
    cc = shlex.split(os.environ.get("CC", "")) or [
        shutil.which("cc") or shutil.which("gcc") or "cc"
    ]
    lib = cache / f"kernels-{_build_key(cc)}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
        os.close(fd)
        cmd = [*cc, *_FLAGS, "-o", tmp, *map(str, _SOURCES)]
        try:
            subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
            os.replace(tmp, lib)
        except (OSError, subprocess.SubprocessError) as exc:
            stderr = (getattr(exc, "stderr", None) or "").strip()
            raise NativeBuildError(
                f"building the compiled kernels failed: {shlex.join(cmd)}: "
                + (stderr or str(exc))
            ) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _load() -> dict:
    cache, ephemeral = _cache_dir()
    try:
        path = _build(cache)
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise NativeBuildError(f"loading the compiled kernels failed: {exc}") from exc
    finally:
        if ephemeral:  # the mapping outlives the file
            shutil.rmtree(cache, ignore_errors=True)
    functions = {}
    for name, argtypes in SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError as exc:
            raise NativeBuildError(f"the compiled kernels lack the symbol {name}") from exc
        fn.argtypes = argtypes
        fn.restype = _i64
        functions[name] = fn
    return functions


def library() -> dict:
    """``{symbol: ctypes function}`` for all of :data:`SIGNATURES`.

    The first call builds and loads; the answer, the library or the
    :class:`NativeBuildError` raised, is kept for the process.
    """
    global _library, _loaded
    if not _loaded:
        with _lock:
            if not _loaded:
                try:
                    _library = _load()
                except NativeBuildError as exc:
                    _library = exc
                _loaded = True
    if isinstance(_library, NativeBuildError):
        raise _library
    return _library


def decode_kernel():
    """The ``repro_decode_chunk`` ctypes function."""
    return library()["repro_decode_chunk"]


def encode_kernel():
    """The ``repro_encode_run`` ctypes function."""
    return library()["repro_encode_run"]


def bisection_kernels():
    """``(greedy_graph_growing, fm2way, split, bisect_depth)`` ctypes
    functions of ``bisection_kernel.c``."""
    lib = library()
    return (
        lib["repro_greedy_graph_growing"],
        lib["repro_fm2way"],
        lib["repro_split"],
        lib["repro_bisect_depth"],
    )


def lp_kernels():
    """``(cluster_round, refine_round, cluster_pick, refine_pick)`` ctypes
    functions of ``lp_kernel.c``."""
    lib = library()
    return (
        lib["repro_lp_cluster_round"],
        lib["repro_lp_refine_round"],
        lib["repro_lp_cluster_pick"],
        lib["repro_lp_refine_pick"],
    )


def contraction_kernels():
    """``(contract_chunk, group_by_label)`` ctypes functions of
    ``lp_kernel.c``."""
    lib = library()
    return lib["repro_contract_chunk"], lib["repro_group_by_label"]


def fm_kernel():
    """The ``repro_fm_pass`` ctypes function of ``fm_kernel.c``."""
    return library()["repro_fm_pass"]


def gain_table_kernels():
    """``(gain_table_build, boundary_vertices)`` ctypes functions of
    ``fm_kernel.c``."""
    lib = library()
    return lib["repro_gain_table_build"], lib["repro_boundary_vertices"]
