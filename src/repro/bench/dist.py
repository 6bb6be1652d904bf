"""Distributed partitioner benchmark: the ``dist`` kind's cell function.

One cell runs :func:`~repro.dist.dpartitioner.dpartition` on a simulated
system with tracing on (``DistConfig.obs``) and folds the result plus the
memory-ratio report frozen into ``result.obs`` into the flat ``run``
section of a ``dist``-kind run-DB row.  The report's traffic is the
communicator's one ledger (``result.comm``), so the row's ``comm_*``
figures are the same numbers the cost model reads.  The metrics the kind gates
(:data:`~repro.obs.regress.rundb.KINDS`) carry the paper's distributed
claims:

* ``max_rank_peak_bytes`` / ``memory_ratio`` — no rank's ledger peak may
  drift away from the fair share (Section V's per-node memory budget),
* ``comm_raw_bytes`` / ``comm_varint_bytes`` — communication volume, raw
  and under the Section III varint codec (xTeraPart mode must keep the
  compressed volume strictly below raw).

Both simulated systems run by default: ``dkaminpar-rN`` (uncompressed
shards) and ``xterapart-rN`` (compressed), so compare reports show the
memory/traffic trade side by side.  A system with ``artifacts_dir`` set
also writes each cell's merged Chrome trace and memory-ratio report for
offline inspection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.instances import Instance
from repro.obs.regress.rundb import Measurement

#: simulated system name -> whether its shards are compressed
MODES = {"dkaminpar": False, "xterapart": True}


@dataclass(frozen=True)
class DistSystem:
    """One point on the dist matrix's config axis."""

    mode: str  # a key of MODES
    ranks: int
    artifacts_dir: str | Path | None = None


def systems(opts) -> list[DistSystem]:
    """Config axis of ``repro bench record --kind dist``: every chosen
    mode at every chosen rank count."""
    modes = opts.modes.split(",") if opts.modes else list(MODES)
    unknown = sorted(set(modes) - set(MODES))
    if unknown:
        raise ValueError(f"unknown dist mode(s): {unknown}")
    return [
        DistSystem(mode, ranks, opts.artifacts)
        for ranks in opts.ranks
        for mode in MODES
        if mode in modes
    ]


def bench_one(
    system: DistSystem, instance: Instance, k: int, seed: int
) -> Measurement:
    """Run one dist cell on ``system``."""
    from repro.core.config import DistObsConfig
    from repro.dist.dpartitioner import DistConfig, dpartition
    from repro.obs.dist import render_memory_ratio, write_cluster_trace

    result = dpartition(
        instance.make(),
        k,
        system.ranks,
        compressed=MODES[system.mode],
        config=DistConfig(seed=seed, obs=DistObsConfig(enabled=True)),
    )
    obs = result.obs or {}
    report = obs.get("report", {})
    comm = report.get("comm", {})
    run = {
        "cut": int(result.cut),
        "balanced": bool(result.balanced),
        "imbalance": float(result.imbalance),
        "wall_seconds": float(result.wall_seconds),
        "ranks": int(result.num_ranks),
        "num_levels": int(result.num_levels),
        "compressed": MODES[system.mode],
        "max_rank_peak_bytes": int(result.max_rank_peak_bytes),
        "mean_rank_peak_bytes": float(
            report.get("mean_rank_peak_bytes", 0.0)
        ),
        "memory_ratio": float(report.get("memory_ratio", 0.0)),
        "ghost_fraction": float(report.get("ghost_fraction", 0.0)),
        "comm_raw_bytes": int(comm.get("raw_bytes", 0)),
        "comm_varint_bytes": int(comm.get("varint_bytes", 0)),
        "comm_messages": int(comm.get("messages", 0)),
        "supersteps": int(comm.get("supersteps", 0)),
        "compression_ratio": float(comm.get("compression_ratio", 1.0)),
    }
    if system.artifacts_dir is not None and result.trace is not None:
        out = Path(system.artifacts_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = (
            f"{instance.name}-r{system.ranks}-{system.mode}-k{k}-s{seed}"
        )
        write_cluster_trace(out / f"{stem}.trace.json", result.trace)
        with open(out / f"{stem}.memratio.json", "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        (out / f"{stem}.memratio.txt").write_text(
            render_memory_ratio(report) + "\n"
        )
    return Measurement(
        f"{system.mode}-r{system.ranks}", instance.name, k, seed, run, obs
    )
