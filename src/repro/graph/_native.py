"""Loader of the optional compiled chunk-decode kernel (``decode_kernel.c``).

Compiled on first use with ``$CC`` (else ``cc``, else ``gcc``) into a
per-user cache directory, loaded through :mod:`ctypes`.  Nothing selects the
kernel but availability: with no compiler, a failed build or a library that
does not load, :func:`decode_kernel` returns ``None`` and
:class:`~repro.graph.compressed.CompressedGraph` decodes with numpy.
``REPRO_NATIVE=0`` (read at import) forces that answer, so a whole test run
can be held on the numpy path.

The library is named by the sha256 of source, flags, compiler and platform,
written under a temporary name and published with one ``os.replace``:
concurrent first builds each publish a complete file, and a build of other
source is never loaded.  It is only ever loaded from a directory this user
owns and nobody else can write.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("decode_kernel.c")
_FLAGS = ["-O2", "-shared", "-fPIC"]
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

_lock = threading.Lock()
_kernel = None
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
    key = hashlib.sha256(
        "\0".join([_SOURCE.read_text(), *_FLAGS, *cc, platform.platform()]).encode()
    ).hexdigest()[:20]
    lib = cache / f"decode_kernel-{key}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
        os.close(fd)
        try:
            cmd = [*cc, *_FLAGS, "-o", tmp, str(_SOURCE)]
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _load():
    cache, ephemeral = _cache_dir()
    try:
        fn = ctypes.CDLL(str(_build(cache))).repro_decode_chunk
    finally:
        if ephemeral:  # the mapping outlives the file
            shutil.rmtree(cache, ignore_errors=True)
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    # data, data_len, offsets, n, chunk, degs, count, hub_threshold,
    # intervals, owner, nbrs, wgts, capacity, pairs, pairs_cap, bad
    fn.argtypes = [p, i64, p, i64, p, p, i64, i64, ctypes.c_int32, p, p, p, i64, p, i64, p]
    fn.restype = i64
    return fn


def decode_kernel():
    """The ``repro_decode_chunk`` ctypes function, or ``None`` if unavailable.

    The first call builds and loads; the answer, either way, is kept for the
    process.
    """
    global _kernel, _loaded
    if not _loaded:
        with _lock:
            if not _loaded and not _DISABLED:
                try:
                    _kernel = _load()
                except (OSError, subprocess.SubprocessError, AttributeError):
                    _kernel = None
            _loaded = True
    return _kernel


def available() -> bool:
    """True if the compiled kernel is loaded (loading it now if need be)."""
    return decode_kernel() is not None
