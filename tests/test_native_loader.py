"""The compiled kernels' loader (ISSUEs 21, 22, 24): one library for the
chunk decode, initial partitioning's searches and the LP chunk, build cache
hygiene, the silent fallback, and the one environment override.

The loader keeps its answer for the life of a process, so every case runs
in a fresh interpreter with its own empty ``XDG_CACHE_HOME``.
"""

from __future__ import annotations

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parent.parent / "src")

# prints: library loaded? (all of it or none of it), then a digest of one
# compressed-mode partition -- chunk decodes, LP chunks and recursive
# bisection inside
PROBE = """
import hashlib
from repro import partition
from repro.core.config import terapart
from repro.graph import _native
from repro.graph.generators import weblike
loaded = _native.available()
accessors = (
    _native.decode_kernel, _native.bisection_kernels, _native.lp_kernels,
    _native.contraction_kernels,
)
assert {accessor() is not None for accessor in accessors} == {loaded}
assert sorted(_native.library() or _native.SIGNATURES) == sorted(_native.SIGNATURES)
print(loaded)
res = partition(weblike(3000, 8.0, seed=1), 4, config=terapart(seed=3))
print(res.cut, res.peak_bytes, hashlib.sha256(res.partition.tobytes()).hexdigest())
"""


def _spawn(cache: Path, code: str = PROBE, **env) -> subprocess.Popen:
    inherited = {k: v for k, v in os.environ.items() if k not in ("REPRO_NATIVE", "CC")}
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


needs_compiler = pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")),
    reason="no C compiler: nothing to build",
)


@pytest.fixture(scope="module")
def fallback_answer(tmp_path_factory):
    """What a process without the kernel answers (the oracle's partition)."""
    loaded, answer = _finish(
        _spawn(tmp_path_factory.mktemp("off"), REPRO_NATIVE="0")
    )
    assert loaded == "False"
    return answer


def test_failing_compiler_leaves_partition_working(tmp_path, fallback_answer):
    loaded, answer = _finish(_spawn(tmp_path, CC="false"))
    assert loaded == "False" and answer == fallback_answer
    assert not list((tmp_path / "repro").iterdir())  # no half-built file left


@needs_compiler
def test_racing_first_builds_both_load_and_agree(tmp_path, fallback_answer):
    procs = [_spawn(tmp_path), _spawn(tmp_path)]
    for proc in procs:
        loaded, answer = _finish(proc)
        assert loaded == "True"
        assert answer == fallback_answer  # kernel == oracle, end to end
    cache = tmp_path / "repro"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    built = sorted(p.name for p in cache.iterdir())
    assert len(built) == 1 and built[0].endswith(".so"), built  # one library, one compile


@needs_compiler
def test_library_missing_a_symbol_is_not_used(tmp_path, fallback_answer):
    """A build that lacks one exported function is no library at all: every
    caller runs its oracle, none runs half the kernels."""
    cc = shutil.which("cc") or shutil.which("gcc")
    procs = [
        _spawn(tmp_path / symbol, CC=f"{cc} -D{symbol}={symbol}_renamed")
        for symbol in ("repro_fm2way", "repro_lp_refine_chunk", "repro_contract_chunk")
    ]
    for proc in procs:
        loaded, answer = _finish(proc)
        assert loaded == "False" and answer == fallback_answer


@needs_compiler
def test_cache_others_can_write_is_not_used(tmp_path):
    shared = tmp_path / "repro"
    shared.mkdir()
    shared.chmod(0o777)
    code = "from repro.graph import _native; print(_native.available()); print()"
    assert _finish(_spawn(tmp_path, code))[0] == "True"  # built somewhere private
    assert not list(shared.iterdir())
