"""Distributed observability: per-rank span trees rolled up cluster-wide.

One :class:`ClusterObserver` mirrors every driver phase onto one ordinary
:class:`~repro.obs.tracer.SpanTracer` per rank (each coupled to that rank's
:class:`~repro.memory.tracker.MemoryTracker` on the :class:`SimComm`).
Traffic is counted once, by the communicator's ledger
(:class:`~repro.dist.comm.CommStats`), which also tags rank 0's open span
with each collective's raw / varint bytes; the roll-ups read that span
tree and the ledger into the merged Chrome trace, the cluster memory
waterfall, and the memory-ratio report.  See DESIGN.md §12.
"""

from repro.obs.dist.cluster import ClusterObserver
from repro.obs.dist.report import (
    dist_obs_registry,
    memory_ratio_report,
    render_memory_ratio,
)
from repro.obs.dist.rollup import (
    cluster_chrome_trace,
    cluster_rollup,
    cluster_waterfall,
    write_cluster_trace,
)

__all__ = [
    "ClusterObserver",
    "cluster_chrome_trace",
    "cluster_rollup",
    "cluster_waterfall",
    "dist_obs_registry",
    "memory_ratio_report",
    "render_memory_ratio",
    "write_cluster_trace",
]
