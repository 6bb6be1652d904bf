"""Trace exporters: Chrome-trace JSON and human-readable summaries.

``write_chrome_trace`` emits the Trace Event Format consumed by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): ``B``/``E``
duration events per span (one lane per virtual thread), ``C`` counter
events carrying the memory ledger at every span boundary (the waterfall as
a live track), and ``M`` metadata naming the process and thread lanes.

Events are emitted in depth-first span order per thread, so ``B``/``E``
pairs nest strictly even when adjacent timestamps tie at microsecond
resolution.  Every event carries the five mandatory keys
``name/ph/ts/pid/tid`` (golden-schema-tested).

``render_level_summary`` prints the per-level table the paper's Figure 2
narrates: wall time, peak memory, and headline counters per hierarchy
level.
"""

from __future__ import annotations

import json

from repro.memory.report import fmt_bytes
from repro.obs.tracer import Span, SpanTracer

PID = 1  # single-process reproduction


def chrome_trace_events(
    tracer: SpanTracer,
    *,
    pid: int = PID,
    process_name: str = "repro.partition",
) -> list[dict]:
    """The flat ``traceEvents`` list for a finished tracer.

    ``pid``/``process_name`` select the process lane the events land in:
    the shared-memory exporter keeps the single-process default, while the
    distributed roll-up (:mod:`repro.obs.dist.rollup`) emits one process
    per rank so the merged trace shows one track per rank.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    tids = sorted({s.tid for s in tracer.spans} | {0})
    for tid in tids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "args": {
                    "name": "driver" if tid == 0 else f"vthread-{tid}"
                },
            }
        )

    # depth-first emission keeps B/E strictly nested per tid
    kids: dict[int, list[Span]] = {}
    for s in tracer.spans:
        kids.setdefault(s.parent, []).append(s)

    def emit(span: Span) -> None:
        args: dict = {"category": span.category}
        if span.level is not None:
            args["level"] = span.level
        events.append(
            {
                "name": span.name,
                "ph": "B",
                "ts": span.t_start * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": args,
            }
        )
        events.append(_mem_counter(span.t_start, span.mem_enter, pid))
        for child in kids.get(span.sid, []):
            emit(child)
        end_args: dict = {
            "mem_enter_bytes": int(span.mem_enter),
            "mem_exit_bytes": int(span.mem_exit),
            "mem_peak_bytes": int(span.mem_peak),
        }
        if span.counters:
            end_args["counters"] = {
                k: v for k, v in sorted(span.counters.items())
            }
        events.append(
            {
                "name": span.name,
                "ph": "E",
                "ts": span.t_end * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": end_args,
            }
        )
        events.append(_mem_counter(span.t_end, span.mem_exit, pid))

    for root in kids.get(-1, []):
        emit(root)
    return events


def _mem_counter(t: float, bytes_now: int, pid: int = PID) -> dict:
    return {
        "name": "ledger-bytes",
        "ph": "C",
        "ts": t * 1e6,
        "pid": pid,
        "tid": 0,
        "args": {"bytes": int(bytes_now)},
    }


def chrome_trace(tracer: SpanTracer) -> dict:
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path, tracer: SpanTracer) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer), f)
        f.write("\n")


# --------------------------------------------------------------------- #
# human-readable per-level summary
# --------------------------------------------------------------------- #
#: headline counters shown in the summary table, in display order; a tuple
#: of keys sums into one column (compressed-decode + CSR-gather edges)
_SUMMARY_COUNTERS = (
    (("decode.edges", "decode.edges_csr"), "edges decoded"),
    ("lp.bumped", "bumps"),
    ("lp.moves", "lp moves"),
    ("contraction.coarse_edges", "coarse edges"),
    ("refine.lp_moves", "refine moves"),
    ("fm.moves", "fm moves"),
)


def render_level_summary(tracer: SpanTracer) -> str:
    """Per-hierarchy-level roll-up of wall time, peak memory and counters."""
    levels: dict[object, dict] = {}

    def fold(span: Span, acc: dict) -> None:
        acc["wall"] += span.duration
        acc["peak"] = max(acc["peak"], span.mem_peak)
        for k, v in span.counters.items():
            acc["counters"][k] = acc["counters"].get(k, 0) + v

    # attribute each *top-most* levelled span (and, via counters already
    # rolled into it, its children) to its level; unlevelled roots go to "-"
    for s in tracer.spans:
        if s.level is None:
            continue
        parent = tracer.spans[s.parent] if s.parent >= 0 else None
        if parent is not None and parent.level == s.level:
            continue  # nested same-level span: parent already counted
        acc = levels.setdefault(
            s.level, {"wall": 0.0, "peak": 0, "counters": {}}
        )
        fold(s, acc)
        # pull descendants' counters up (durations nest inside the parent)
        stack = [s.sid]
        while stack:
            sid = stack.pop()
            for child in tracer.spans:
                if child.parent != sid:
                    continue
                for k, v in child.counters.items():
                    acc["counters"][k] = acc["counters"].get(k, 0) + v
                acc["peak"] = max(acc["peak"], child.mem_peak)
                stack.append(child.sid)

    header = ["level", "wall", "peak mem"] + [
        label for _, label in _SUMMARY_COUNTERS
    ]
    rows: list[list[str]] = []
    for level in sorted(levels, key=lambda x: (x is None, x)):
        acc = levels[level]
        row = [
            str(level),
            f"{acc['wall']:.3f}s",
            fmt_bytes(acc["peak"]),
        ]
        for key, _label in _SUMMARY_COUNTERS:
            keys = key if isinstance(key, tuple) else (key,)
            v = sum(acc["counters"].get(k, 0) for k in keys)
            row.append(str(int(v)) if float(v).is_integer() else f"{v:.1f}")
        rows.append(row)

    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
