"""Loader of the optional compiled kernels: the chunk decode
(``decode_kernel.c``), initial partitioning's sequential searches
(``core/initial/bisection_kernel.c``) and the rating-map chunks of label
propagation and contraction (``core/kernels/lp_kernel.c``), one library.

Compiled on first use with ``$CC`` (else ``cc``, else ``gcc``) into a
per-user cache directory, loaded through :mod:`ctypes`.  Nothing selects a
kernel but availability: with no compiler, a failed build, a library that
does not load or a symbol that does not resolve, :func:`decode_kernel`,
:func:`bisection_kernels`, :func:`lp_kernels` and
:func:`contraction_kernels` return ``None`` and their callers run the numpy
/ Python oracles.  ``REPRO_NATIVE=0`` (read at import) forces that answer, so a
whole test run can be held on the oracles.

The library is named by the sha256 of every source, flags, compiler and
platform, written under a temporary name and published with one
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

_SOURCES = (
    Path(__file__).with_name("decode_kernel.c"),
    Path(__file__).parents[1] / "core" / "initial" / "bisection_kernel.c",
    Path(__file__).parents[1] / "core" / "kernels" / "lp_kernel.c",
)
_FLAGS = ["-O3", "-shared", "-fPIC"]
_DISABLED = os.environ.get("REPRO_NATIVE") == "0"

#: what ``repro_decode_chunk`` returns for a stream it refuses
ERRORS = {
    -1: "varint truncated",
    -2: "varint too long",
    -3: "interval count or lengths exceed degree",
    -4: "interval contains a residual",
    -5: "neighborhood value count mismatch",
    -6: "neighbor id out of range",
    -7: "vertex id, byte offsets or degree out of range",
}

#: what the three functions of ``bisection_kernel.c`` return for a workspace
#: or a buffer they refuse (one enum in the source, one table here)
BISECTION_ERRORS = {
    -1: "vertex id out of range",
    -2: "heap, moves or grown capacity exhausted",
    -3: "assignment entry other than 0 or 1",
}

#: what the functions of ``lp_kernel.c`` return for a chunk they refuse
LP_ERRORS = {
    -1: "vertex id out of range",
    -2: "adjacency or group segment out of range",
    -3: "neighbor id out of range",
    -4: "cluster or block id out of range",
    -5: "rating map or output capacity exhausted",
}

#: ``lp_kernel.c`` returns ``DECODE_ERROR + c`` for a stream that
#: ``repro_decode_neighborhood`` refuses with code ``c`` (a key of ERRORS)
DECODE_ERROR = -100

#: the kernels sum vertex weights in int64: the callers hand them only
#: weights >= 0 whose total stays below this (else the oracles run)
WEIGHT_LIMIT = 1 << 62


def clamp_weight(weight: int) -> int:
    """A target or cap as the kernels compare it: no weight sum they form
    leaves ``[0, WEIGHT_LIMIT)``, so clamping changes no comparison (and a
    cap past int64 is not truncated by ctypes)."""
    return max(-1, min(operator.index(weight), WEIGHT_LIMIT))


_p, _i64 = ctypes.c_void_p, ctypes.c_int64


class Stream(ctypes.Structure):
    """``stream_t`` of ``lp_kernel.c``, the LP chunk kernels' compressed
    source: a graph's byte stream and offsets, its interval flag, and one
    neighbourhood's scratch (``cap`` ids, ``cap`` weights or NULL, the
    decoder's interval pairs)."""

    _fields_ = [
        ("data", _p), ("data_len", _i64), ("offsets", _p), ("intervals", _i64),
        ("nbrs", _p), ("wgts", _p), ("cap", _i64), ("pairs", _p), ("pairs_cap", _i64),
    ]  # fmt: skip


#: (n, chunk, starts, degs, count, adj, wgt, unit_wgt, adj_len) and
#: (slot, seen, rating, cap) of both LP chunk kernels
_SEGMENTS = [_i64, _p, _p, _p, _i64, _p, _p, _i64, _i64]
_RATING_MAP = [_p, _p, _p, _i64]
#: exported symbol -> argtypes (all return int64); every one must resolve
SIGNATURES = {
    # data, data_len, offsets, n, chunk, degs, count, hub_threshold,
    # intervals, owner, nbrs, wgts, capacity, pairs, pairs_cap, bad
    "repro_decode_chunk": [
        _p, _i64, _p, _i64, _p, _p, _i64, _i64, ctypes.c_int32, _p, _p, _p, _i64, _p, _i64, _p,
    ],
    # the searches share (n, xadj, adj, wgt, vwgt, ..., heap, heap_cap, work):
    # ... = order, target0, max0, gain, in_block, blocked, grown, grown_cap
    "repro_greedy_graph_growing": [
        _i64, _p, _p, _p, _p, _p, _i64, _i64, _p, _p, _p, _p, _i64, _p, _i64, _p,
    ],
    # ... = order, target0, visited, queue, queue_cap
    "repro_bfs_growing": [_i64, _p, _p, _p, _p, _p, _i64, _p, _p, _i64, _p, _i64, _p],
    # ... = max0, max1, rounds, patience, side, gain, locked, kept, moves, moves_cap
    "repro_fm2way": [
        _i64, _p, _p, _p, _p, _i64, _i64, _i64, _i64, _p, _p, _p, _p, _p, _i64, _p, _i64, _p,
    ],
    # segments, clusters, cluster_weights, vwgt, unit_vwgt, max_cluster_weight,
    # rating map, fav, best, nc, moved, out_cap, info, stream
    "repro_lp_cluster_chunk": [
        *_SEGMENTS, _p, _p, _p, _i64, _i64, *_RATING_MAP, _p, _p, _p, _p, _i64, _p, _p,
    ],
    # segments, k, part, block_weights, vwgt, unit_vwgt, limits, rating map,
    # best, moved, out_cap, info, stream
    "repro_lp_refine_chunk": [
        *_SEGMENTS, _i64, _p, _p, _p, _i64, _p, *_RATING_MAP, _p, _p, _i64, _p, _p,
    ],
    # segments, label_count, labels, rating map, groups, own, group_count,
    # label, weight, out_cap, degree, info, stream
    "repro_contract_chunk": [
        *_SEGMENTS, _i64, _p, *_RATING_MAP, _p, _p, _i64, _p, _p, _i64, _p, _p, _p,
    ],
    # labels, count, label_count, offsets, members, info
    "repro_group_by_label": [_p, _i64, _i64, _p, _p, _p],
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


def _build(cache: Path) -> Path:
    """Path of the compiled library in ``cache``, compiling it if missing."""
    cc = shlex.split(os.environ.get("CC", "")) or [
        shutil.which("cc") or shutil.which("gcc") or "cc"
    ]
    sources = [path.read_text() for path in _SOURCES]
    key = hashlib.sha256(
        "\0".join([*sources, *_FLAGS, *cc, platform.platform()]).encode()
    ).hexdigest()[:20]
    lib = cache / f"kernels-{key}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
        os.close(fd)
        try:
            cmd = [*cc, *_FLAGS, "-o", tmp, *map(str, _SOURCES)]
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _load() -> dict:
    cache, ephemeral = _cache_dir()
    try:
        lib = ctypes.CDLL(str(_build(cache)))
    finally:
        if ephemeral:  # the mapping outlives the file
            shutil.rmtree(cache, ignore_errors=True)
    functions = {}
    for name, argtypes in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = _i64
        functions[name] = fn
    return functions


def library() -> dict | None:
    """``{symbol: ctypes function}`` for all of :data:`SIGNATURES`, or ``None``
    if unavailable.

    The first call builds and loads; the answer, either way, is kept for the
    process.
    """
    global _library, _loaded
    if not _loaded:
        with _lock:
            if not _loaded and not _DISABLED:
                try:
                    _library = _load()
                except (OSError, subprocess.SubprocessError, AttributeError):
                    _library = None
            _loaded = True
    return _library


def decode_kernel():
    """The ``repro_decode_chunk`` ctypes function, or ``None`` if unavailable."""
    lib = library()
    return lib and lib["repro_decode_chunk"]


def bisection_kernels():
    """``(greedy_graph_growing, bfs_growing, fm2way)`` ctypes functions of
    ``bisection_kernel.c``, or ``None`` if unavailable."""
    lib = library()
    return lib and (
        lib["repro_greedy_graph_growing"],
        lib["repro_bfs_growing"],
        lib["repro_fm2way"],
    )


def lp_kernels():
    """``(cluster_chunk, refine_chunk)`` ctypes functions of ``lp_kernel.c``,
    or ``None`` if unavailable."""
    lib = library()
    return lib and (lib["repro_lp_cluster_chunk"], lib["repro_lp_refine_chunk"])


def contraction_kernels():
    """``(contract_chunk, group_by_label)`` ctypes functions of
    ``lp_kernel.c``, or ``None`` if unavailable."""
    lib = library()
    return lib and (lib["repro_contract_chunk"], lib["repro_group_by_label"])


def available() -> bool:
    """True if the compiled library is loaded (loading it now if need be)."""
    return library() is not None
