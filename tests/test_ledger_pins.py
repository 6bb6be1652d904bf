"""Pins of the runtime's chunk ledger: what every preset books.

Each of the eight presets partitions a CSR ``rgg2d(3000)`` and a compressed
``weblike(3000)`` with ``p=4``; the pin holds, per run, the keys and every
field of ``phase_stats``, ``modeled_seconds`` and the traced ``threads``
rows as ``(phase, tid, chunks, items)`` (their seconds are timings and are
not pinned).  A run that stays on CSR must book the same floats to the
last bit.  A run with a compressed level sums fractional per-edge work
factors, so there the floats may move by summation order, within
:data:`REL`.

Regenerate with ``PYTHONPATH=src python tests/test_ledger_pins.py`` -- only
when a change means to move what a phase books, and say so.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import repro
from repro.core import config as C
from repro.graph import generators as gen
from repro.graph.compressed import compress_graph

PINS = Path(__file__).parent / "data" / "ledger_pins.json"
#: relative tolerance of a booked float on a run with a compressed level
REL = 1e-12
K = 8
FIELDS = ("work", "span", "bytes_moved", "atomic_ops", "max_parallelism")

GRAPHS = {
    "rgg2d-csr": lambda: gen.rgg2d(3000, seed=3),
    "weblike-compressed": lambda: compress_graph(gen.weblike(3000, seed=3)),
}
_graphs: dict = {}


def _graph(name):
    if name not in _graphs:
        _graphs[name] = GRAPHS[name]()
    return _graphs[name]


def _cell(graph_name: str, preset: str) -> dict:
    graph = _graph(graph_name)
    cfg = C.preset(preset, seed=1, p=4)
    plain = repro.partition(graph, K, cfg)
    traced = repro.partition(graph, K, cfg.with_(obs=C.ObsConfig(enabled=True)))
    return {
        "modeled_seconds": plain.modeled_seconds,
        "phase_stats": {
            name: [getattr(s, f) for f in FIELDS]
            for name, s in sorted(plain.phase_stats.items())
        },
        "threads": [
            [t["phase"], t["tid"], t["chunks"], t["items"]]
            for t in traced.obs["threads"]
        ],
    }


def _close(got: float, want: float, exact: bool) -> bool:
    if exact or math.isinf(want):
        return got == want
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


CELLS = [(g, p) for g in sorted(GRAPHS) for p in sorted(C.PRESETS)]


@pytest.mark.parametrize("graph_name,preset", CELLS)
def test_ledger_is_pinned(graph_name, preset):
    want = json.loads(PINS.read_text())[f"{graph_name}/{preset}"]
    got = _cell(graph_name, preset)
    # bit-equal unless some level of the run is compressed
    exact = graph_name == "rgg2d-csr" and not C.preset(preset).compress_input
    assert _close(got["modeled_seconds"], want["modeled_seconds"], exact)
    assert list(got["phase_stats"]) == list(want["phase_stats"])
    for name, fields in want["phase_stats"].items():
        for f, g, w in zip(FIELDS, got["phase_stats"][name], fields):
            assert _close(g, w, exact), (name, f, g, w)
    assert got["threads"] == want["threads"]


def main() -> None:
    pins = {f"{g}/{p}": _cell(g, p) for g, p in CELLS}
    lines = (f"{json.dumps(key)}: {json.dumps(cell)}" for key, cell in pins.items())
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    main()
