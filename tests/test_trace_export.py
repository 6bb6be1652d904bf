"""Golden-schema tests for the Chrome-trace exporter (obs satellite).

The Trace Event Format contract: every event carries the five mandatory
keys ``name/ph/ts/pid/tid``, ``B``/``E`` events nest strictly per tid, the
document round-trips through ``json.loads``, and the span tree of a
deterministic mini-run matches a checked-in golden file (names and nesting
only -- timings and byte counts are machine-dependent).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.core import config as C
from repro.graph import generators as gen
from repro.memory import MemoryTracker
from repro.obs.export import chrome_trace, chrome_trace_events, render_level_summary

GOLDEN = Path(__file__).parent / "data" / "golden_trace_tree.json"

MANDATORY_KEYS = ("name", "ph", "ts", "pid", "tid")


def mini_run(tracker=None):
    """The deterministic mini-run the golden tree is generated from."""
    graph = gen.weblike(400, avg_degree=8, seed=5)
    cfg = C.preset("terapart", seed=3, p=4).with_(obs=C.ObsConfig(enabled=True))
    return repro.partition(graph, 4, cfg, tracker=tracker)


@pytest.fixture(scope="module")
def tracker():
    return MemoryTracker()


@pytest.fixture(scope="module")
def traced_result(tracker):
    return mini_run(tracker)


def test_every_event_has_mandatory_keys(traced_result):
    events = chrome_trace_events(traced_result.trace)
    assert events, "trace must not be empty"
    for ev in events:
        for key in MANDATORY_KEYS:
            assert key in ev, f"event {ev} missing {key!r}"
        assert ev["ph"] in ("B", "E", "C", "M")
        assert ev["ts"] >= 0


def test_duration_events_strictly_nest_per_tid(traced_result):
    events = chrome_trace_events(traced_result.trace)
    stacks: dict[int, list[str]] = {}
    ts_last: dict[int, float] = {}
    for ev in events:
        if ev["ph"] not in ("B", "E"):
            continue
        tid = ev["tid"]
        stack = stacks.setdefault(tid, [])
        # timestamps never go backwards within a tid's lane
        assert ev["ts"] >= ts_last.get(tid, 0.0)
        ts_last[tid] = ev["ts"]
        if ev["ph"] == "B":
            stack.append(ev["name"])
        else:
            assert stack, f"E event {ev['name']!r} with empty stack"
            assert stack.pop() == ev["name"], "E does not match innermost B"
    for tid, stack in stacks.items():
        assert stack == [], f"unclosed spans on tid {tid}: {stack}"


def test_trace_round_trips_through_json(traced_result):
    doc = chrome_trace(traced_result.trace)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back == doc
    assert back["displayTimeUnit"] == "ms"
    assert isinstance(back["traceEvents"], list)


def test_span_tree_matches_golden(traced_result):
    tree = traced_result.trace.span_tree()
    golden = json.loads(GOLDEN.read_text())
    assert tree == golden, (
        "span tree of the mini-run diverged from the golden file; if the "
        "pipeline structure changed intentionally, regenerate with: "
        "PYTHONPATH=src python tests/data/regen_golden_trace.py"
    )


def test_waterfall_agrees_with_memory_report(traced_result, tracker):
    """The acceptance criterion: per-phase peak-memory entries in the
    metrics JSON equal the run's tracker's phase peaks byte-for-byte, and
    each breakdown sums exactly to its peak."""
    obs = traced_result.obs
    phase_peaks = {phase: stats.peak_bytes for phase, stats in tracker.phases().items()}
    assert obs["waterfall"], "waterfall must not be empty"
    for entry in obs["waterfall"]:
        assert entry["phase"] in phase_peaks
        assert entry["peak_bytes"] == phase_peaks[entry["phase"]]
        assert sum(entry["breakdown"].values()) == entry["peak_bytes"]
    # the global peak and its breakdown agree with the tracker as well
    assert obs["peak_bytes"] == traced_result.peak_bytes == tracker.peak_bytes
    assert sum(obs["peak_breakdown"].values()) == obs["peak_bytes"]


def test_metrics_json_is_serializable(traced_result, tmp_path):
    out = tmp_path / "metrics.json"
    out.write_text(json.dumps(traced_result.obs))
    back = json.loads(out.read_text())
    assert back["schema"] == 1
    assert back["counters"] == traced_result.obs["counters"]


def test_level_summary_renders(traced_result):
    text = render_level_summary(traced_result.trace)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["level", "wall"]
    assert len(lines) >= 3  # header + rule + at least one level row
