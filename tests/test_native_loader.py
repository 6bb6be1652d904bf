"""The compiled kernels' loader: one library for the codec, initial
partitioning, the LP rounds and k-way FM, build cache hygiene, and a build
that fails or lacks a symbol raising one named error.

The loader keeps its answer for the life of a process, so every case runs
in a fresh interpreter with its own empty ``XDG_CACHE_HOME``.
"""

from __future__ import annotations

import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph import _native
from test_adjacency_seam import GOLDEN_PARTITION

SRC = str(Path(__file__).parent.parent / "src")

#: the committed golden pin the probe's partition must reproduce
GOLDEN_KEY = ("terapart-fm", "weblike", 1)

# prints: whether the library holds every symbol, then the sha1, cut and
# ledger peak of one pinned partition -- compressed input, chunk decodes, LP
# rounds, recursive bisection and k-way FM inside -- or the error partition()
# stopped on
PROBE = """
import hashlib
import numpy as np
from repro import partition
from repro.core import config
from repro.graph import _native
from repro.graph.generators import weblike
try:
    res = partition(weblike(1200, avg_degree=10, seed=7), 8, config.preset("terapart-fm", seed=1))
except _native.NativeBuildError as exc:
    print("NativeBuildError:", exc)
    raise SystemExit(3)
print(sorted(_native.library()) == sorted(_native.SIGNATURES))
data = np.ascontiguousarray(res.partition, dtype=np.int64).tobytes()
print(hashlib.sha1(data).hexdigest(), int(res.cut), int(res.peak_bytes))
"""


def _spawn(cache: Path, code: str = PROBE, **env) -> subprocess.Popen:
    inherited = {k: v for k, v in os.environ.items() if k != "CC"}
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**inherited, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(cache), **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc: subprocess.Popen) -> list[str]:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out.split("\n")[:2]


def _refused(proc: subprocess.Popen) -> str:
    """The ``NativeBuildError`` message a probe stopped on."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 3, (out, err)
    assert out.startswith("NativeBuildError: "), out
    return out.strip()


needs_compiler = pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")),
    reason="no C compiler: nothing to build",
)


def _golden() -> str:
    sha, cut, peak = GOLDEN_PARTITION[GOLDEN_KEY]
    return f"{sha} {cut} {peak}"


def test_failing_compiler_is_a_named_error(tmp_path):
    message = _refused(_spawn(tmp_path, CC="false"))
    assert "building the compiled kernels failed: false " in message  # the command
    assert not list((tmp_path / "repro").iterdir())  # no half-built file left


@needs_compiler
def test_compiler_stderr_is_kept(tmp_path):
    cc = shutil.which("cc") or shutil.which("gcc")
    message = _refused(_spawn(tmp_path, CC=f"{cc} -include no_such_header.h"))
    assert "no_such_header.h" in message  # the compiler's own words
    assert not list((tmp_path / "repro").iterdir())


@needs_compiler
def test_racing_first_builds_both_load_and_agree(tmp_path):
    procs = [_spawn(tmp_path), _spawn(tmp_path)]
    for proc in procs:
        complete, answer = _finish(proc)
        assert complete == "True"
        assert answer == _golden()  # the committed pin, end to end
    cache = tmp_path / "repro"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    built = sorted(p.name for p in cache.iterdir())
    assert len(built) == 1 and built[0].endswith(".so"), built  # one library, one compile


@needs_compiler
def test_library_missing_a_symbol_names_it(tmp_path):
    """A build that lacks one exported function is no library at all: the
    first caller gets an error naming the symbol, none runs half the kernels."""
    cc = shutil.which("cc") or shutil.which("gcc")
    symbols = ("repro_fm2way", "repro_lp_refine_round", "repro_contract_chunk")
    procs = [_spawn(tmp_path / s, CC=f"{cc} -D{s}={s}_renamed") for s in symbols]
    for symbol, proc in zip(symbols, procs):
        message = _refused(proc)
        assert message.endswith(f"the compiled kernels lack the symbol {symbol}")


@needs_compiler
def test_cache_others_can_write_is_not_used(tmp_path):
    shared = tmp_path / "repro"
    shared.mkdir()
    shared.chmod(0o777)
    code = "from repro.graph import _native; print(len(_native.library())); print()"
    assert _finish(_spawn(tmp_path, code))[0] == str(len(_native.SIGNATURES))
    assert not list(shared.iterdir())  # built somewhere private


def test_every_included_header_names_the_library_and_ships():
    """A header a kernel source includes is hashed into the library's name
    (``_native._HEADERS``) and listed in the package data: left out of the
    first, an edit to it loads a stale library; of the second, an installed
    package does not build."""
    included = {
        (source.parent / name).resolve()
        for source in _native._SOURCES
        for name in re.findall(r'^#include "([^"]+)"', source.read_text(), re.M)
    }
    assert included and included == {h.resolve() for h in _native._HEADERS}
    root = Path(SRC).resolve()
    data = (root.parent / "pyproject.toml").read_text()
    data = data.split("[tool.setuptools.package-data]")[1].split("\n[")[0]
    for path in (*_native._SOURCES, *_native._HEADERS):
        package = ".".join(path.resolve().parent.relative_to(root).parts)
        listed = re.search(rf'^"{re.escape(package)}" = \[(.*)\]$', data, re.M)
        assert listed and f'"{path.name}"' in listed.group(1), path


def test_a_header_edit_renames_the_library(tmp_path, monkeypatch):
    header = _native._HEADERS[0]
    before = _native._build_key(["cc"])
    edited = tmp_path / header.name
    edited.write_text(header.read_text() + "\n/* edited */\n")
    monkeypatch.setattr(_native, "_HEADERS", (edited,))
    assert _native._build_key(["cc"]) != before
