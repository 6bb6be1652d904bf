"""Roll all ranks of a distributed run up into cluster-wide artifacts.

* :func:`attribute_traffic` — the attribution rule: rank 0's span tree
  carries each collective's traffic on the span that was innermost when it
  was issued; what no span carried is untagged.
* :func:`cluster_chrome_trace` — one Chrome-trace document with one process
  track per rank (``pid = rank + 1``) plus a ``pid 0`` cluster track
  carrying cumulative COMM counters (raw vs varint bytes, messages), all on
  the shared observer epoch so the tracks align.
* :func:`cluster_waterfall` / :func:`cluster_rollup` — the per-rank phase
  peaks and their cluster-wide reduction.  Each row's ``peak_bytes`` is read
  straight from that rank's :class:`~repro.memory.tracker.MemoryTracker`
  (``tracker.phase_peak``), so the roll-up inherits the PR 3 byte-for-byte
  invariant instead of re-deriving memory numbers a second way.
"""

from __future__ import annotations

import json

from repro.obs.export import chrome_trace_events

#: pid of the cluster-wide COMM counter track (ranks are pid 1..size)
CLUSTER_PID = 0

#: the traffic fields SimComm adds (as ``comm.<field>``) to rank 0's spans
COMM_FIELDS = ("raw_bytes", "varint_bytes", "messages")


def attribute_traffic(observer) -> tuple[list[tuple], dict[str, int]]:
    """Split the ledger's traffic over rank 0's span tree.

    Returns one ``(span, level, traffic)`` per span that carried traffic,
    in the order the spans closed -- ``level`` is the nearest levelled
    ancestor's (the span itself included; ``None`` outside any), ``traffic``
    the span's own raw / varint bytes and messages -- and the untagged
    rest: the ledger's totals minus what the spans carried (traffic issued
    before the tracer was attached, or outside every span).
    """
    spans = observer.rank_tracers[0].spans
    tagged = []
    for span in sorted(spans, key=lambda s: s.t_end):
        if "comm.messages" not in span.counters:
            continue
        anc = span
        while anc.level is None and anc.parent >= 0:
            anc = spans[anc.parent]
        traffic = {f: span.counters.get(f"comm.{f}", 0) for f in COMM_FIELDS}
        tagged.append((span, anc.level, traffic))
    stats = observer.comm.stats
    totals = (stats.bytes_sent, stats.varint_bytes, stats.messages)
    untagged = {
        f: total - sum(traffic[f] for _, _, traffic in tagged)
        for f, total in zip(COMM_FIELDS, totals)
    }
    return tagged, untagged


def cluster_chrome_trace(observer) -> dict:
    """The merged Chrome trace of a finished cluster observer.

    Its COMM track starts at the untagged traffic (ts 0) and steps up at
    every traffic-carrying span's close, so it ends at the ledger's totals.
    """
    events: list[dict] = []
    for rank, tracer in enumerate(observer.rank_tracers):
        events.extend(
            chrome_trace_events(
                tracer, pid=rank + 1, process_name=f"rank{rank}"
            )
        )
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": CLUSTER_PID,
            "tid": 0,
            "args": {"name": "cluster-comm"},
        }
    )
    tagged, untagged = attribute_traffic(observer)
    steps = [(0.0, untagged)]
    steps += [(span.t_end, traffic) for span, _, traffic in tagged]
    total = dict.fromkeys(COMM_FIELDS, 0)
    for t, traffic in steps:
        for f in COMM_FIELDS:
            total[f] += traffic[f]
        raw_varint = {"raw": total["raw_bytes"], "varint": total["varint_bytes"]}
        for name, args in (
            ("comm-bytes", raw_varint),
            ("comm-messages", {"messages": total["messages"]}),
        ):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": CLUSTER_PID,
                    "tid": 0,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_cluster_trace(path, observer) -> None:
    with open(path, "w") as f:
        json.dump(cluster_chrome_trace(observer), f)
        f.write("\n")


# --------------------------------------------------------------------- #
# memory waterfall
# --------------------------------------------------------------------- #
def cluster_waterfall(observer) -> list[dict]:
    """One row per (rank, ledger-coupled phase): the rank's phase peak.

    ``peak_bytes`` comes from the rank's tracker, which is byte-identical
    to the phase span's ``mem_peak`` in that rank's trace track (tested).
    """
    rows: list[dict] = []
    for rank, tracer in enumerate(observer.rank_tracers):
        tracker = tracer.tracker
        for span in tracer.spans:
            if span.category != "phase" or not span.tracker_path:
                continue
            rows.append(
                {
                    "rank": rank,
                    "phase": span.tracker_path,
                    "name": span.name,
                    "level": span.level,
                    "peak_bytes": int(tracker.phase_peak(span.tracker_path)),
                }
            )
    return rows


def cluster_rollup(observer) -> list[dict]:
    """Cluster-wide reduction of the waterfall: per phase path, the peak of
    every rank plus the max over ranks (the number that OOMs a node)."""
    size = len(observer.rank_tracers)
    agg: dict[str, dict] = {}
    for row in cluster_waterfall(observer):
        e = agg.setdefault(
            row["phase"],
            {
                "phase": row["phase"],
                "name": row["name"],
                "level": row["level"],
                "rank_peak_bytes": [0] * size,
            },
        )
        peaks = e["rank_peak_bytes"]
        peaks[row["rank"]] = max(peaks[row["rank"]], row["peak_bytes"])
    out = []
    for phase in sorted(agg):
        e = agg[phase]
        e["max_rank_peak_bytes"] = max(e["rank_peak_bytes"])
        out.append(e)
    return out
