"""The memory-ratio report: the paper's xTeraPart claims as numbers.

The distributed experiments stand on two quantitative claims:

* **memory ratio** — per-rank peak memory stays near the fair share
  ``total / size``; we report ``max_rank_peak / (sum(rank_peaks) / size)``,
  which is 1.0 for perfectly balanced ledgers and grows with whatever one
  rank holds beyond its share (the coarsest-copy spike, skewed shards).
* **communication volume** — traffic is dominated by ghost-vertex label
  exchange, which compresses well: the report carries raw vs varint bytes
  per collective kind, per phase, and per hierarchy level, plus the
  comm/compute byte ratio per level (traffic over resident shard bytes).

Everything here is pure aggregation over a finished
:class:`~repro.obs.dist.cluster.ClusterObserver`: the totals and the
per-kind split are the communicator's one ledger
(:class:`~repro.dist.comm.CommStats`), the per-phase and per-level split
reads rank 0's span counters
(:func:`~repro.obs.dist.rollup.attribute_traffic`), and the per-rank peaks
come from the rank ledgers themselves.
"""

from __future__ import annotations

from repro.memory.report import fmt_bytes
from repro.obs.dist.rollup import COMM_FIELDS, attribute_traffic, cluster_rollup
from repro.obs.tracer import normalize_phase

REPORT_SCHEMA = 1


def memory_ratio_report(observer) -> dict:
    """Condense a finished observer into the memory-ratio report dict."""
    comm = observer.comm
    stats = comm.stats
    size = comm.size
    peaks = [int(p) for p in comm.rank_peaks()]
    total_peak = sum(peaks)
    mean_peak = total_peak / size if size else 0.0
    raw, varint = stats.bytes_sent, stats.varint_bytes

    tagged, untagged = attribute_traffic(observer)
    per_phase: dict[str, dict[str, int]] = {}
    comm_lv: dict[int | None, dict[str, int]] = {}
    for span, level, traffic in tagged:
        by_phase = per_phase.setdefault(
            normalize_phase(span.name), dict.fromkeys(COMM_FIELDS, 0)
        )
        by_lv = comm_lv.setdefault(level, dict.fromkeys(COMM_FIELDS, 0))
        for f in COMM_FIELDS:
            by_phase[f] += traffic[f]
            by_lv[f] += traffic[f]
    if any(untagged.values()):
        per_phase = {"(untagged)": untagged, **per_phase}

    by_level = {lv["level"]: lv for lv in observer.levels}
    per_level = []
    for level in sorted(by_level):
        lv = by_level[level]
        c = comm_lv.get(level, dict.fromkeys(COMM_FIELDS, 0))
        shard_bytes = lv["shard_bytes"]
        per_level.append(
            {
                "level": level,
                "n": lv["n"],
                "m": lv["m"],
                "shard_bytes": shard_bytes,
                "ghost_bytes": lv["ghost_bytes"],
                "comm_raw_bytes": c["raw_bytes"],
                "comm_varint_bytes": c["varint_bytes"],
                "comm_messages": c["messages"],
                "comm_compute_ratio": (
                    c["raw_bytes"] / shard_bytes if shard_bytes else 0.0
                ),
            }
        )

    top = by_level.get(0)
    ghost_bytes = int(top["ghost_bytes"]) if top else 0
    shard_bytes = int(top["shard_bytes"]) if top else 0
    footprint = ghost_bytes + shard_bytes
    return {
        "schema": REPORT_SCHEMA,
        "size": size,
        "rank_peak_bytes": peaks,
        "max_rank_peak_bytes": max(peaks) if peaks else 0,
        "mean_rank_peak_bytes": mean_peak,
        "memory_ratio": (max(peaks) / mean_peak) if mean_peak else 0.0,
        "ghost_bytes": ghost_bytes,
        "shard_bytes": shard_bytes,
        "ghost_fraction": (ghost_bytes / footprint) if footprint else 0.0,
        "comm": {
            "raw_bytes": raw,
            "varint_bytes": varint,
            "messages": stats.messages,
            "supersteps": stats.supersteps,
            "compression_ratio": (varint / raw) if raw else 1.0,
            "by_kind": {
                kind: {
                    "calls": ks.calls,
                    "messages": ks.messages,
                    "raw_bytes": ks.bytes_sent,
                    "varint_bytes": ks.varint_bytes,
                }
                for kind, ks in stats.by_kind.items()
            },
        },
        "per_phase": per_phase,
        "per_level": per_level,
        # cluster counters live on rank 0's tracer (obs/dist/cluster.py)
        "counters": dict(observer.rank_tracers[0].counters),
    }


def dist_obs_registry(observer) -> dict:
    """The obs snapshot stored in ``kind="dist"`` run-DB records: the
    memory-ratio report plus the cluster phase roll-up (compact — no raw
    span trees, which would bloat the append-only DB)."""
    return {
        "schema": REPORT_SCHEMA,
        "report": memory_ratio_report(observer),
        "rollup": cluster_rollup(observer),
    }


def render_memory_ratio(report: dict) -> str:
    """Human-readable memory-ratio table (the README sample's format)."""
    lines = [
        f"ranks={report['size']}  "
        f"max rank peak={fmt_bytes(report['max_rank_peak_bytes'])}  "
        f"mean={fmt_bytes(int(report['mean_rank_peak_bytes']))}  "
        f"memory ratio={report['memory_ratio']:.2f}  "
        f"ghost fraction={report['ghost_fraction']:.3f}",
        f"comm: raw={fmt_bytes(report['comm']['raw_bytes'])}  "
        f"varint={fmt_bytes(report['comm']['varint_bytes'])}  "
        f"(x{report['comm']['compression_ratio']:.2f})  "
        f"messages={report['comm']['messages']}  "
        f"supersteps={report['comm']['supersteps']}",
    ]
    # imported here: repro.dist loads this module, and must not drag the
    # bench harness in with it
    from repro.bench.reporting import render_table

    rows = [
        (
            lv["level"],
            lv["n"],
            fmt_bytes(lv["shard_bytes"]),
            fmt_bytes(lv["ghost_bytes"]),
            fmt_bytes(lv["comm_raw_bytes"]),
            fmt_bytes(lv["comm_varint_bytes"]),
            f"{lv['comm_compute_ratio']:.2f}",
        )
        for lv in report["per_level"]
    ]
    header = ("level", "n", "shard", "ghost", "comm raw", "comm varint", "c/c")
    return "\n".join([*lines, render_table(header, rows)])
