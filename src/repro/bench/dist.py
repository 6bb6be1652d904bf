"""Distributed partitioner benchmark: the cluster-observability gate input.

For every (instance, ranks, mode, k, seed) cell this module runs
:func:`~repro.dist.dpartitioner.dpartition` with the
:class:`~repro.obs.dist.cluster.ClusterObserver` enabled and folds the
result plus its memory-ratio report into a ``dist``-kind run-DB record.
The gated metrics (:data:`~repro.obs.regress.rundb.DIST_METRICS`) carry
the paper's distributed claims:

* ``max_rank_peak_bytes`` / ``memory_ratio`` — no rank's ledger peak may
  drift away from the fair share (Section V's per-node memory budget),
* ``comm_raw_bytes`` / ``comm_varint_bytes`` — communication volume, raw
  and under the Section III varint codec (xTeraPart mode must keep the
  compressed volume strictly below raw).

Both simulated systems run: ``dkaminpar-rN`` (uncompressed shards) and
``xterapart-rN`` (compressed), so compare reports show the memory/traffic
trade side by side.  With ``artifacts_dir`` set, each cell also writes its
merged Chrome trace and memory-ratio report JSON for offline inspection.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.instances import SMOKE_SET, Instance
from repro.obs.regress.rundb import make_dist_record

#: default dist bench matrix: smoke instances, two rank counts, one k/seed
DEFAULT_RANKS = (2, 4)
DEFAULT_K = (8,)
DEFAULT_SEEDS = (0,)
#: (algorithm-name prefix, compressed flag) pairs benchmarked per cell
DEFAULT_MODES = (("dkaminpar", False), ("xterapart", True))


def bench_one(
    instance: Instance,
    ranks: int,
    k: int,
    *,
    compressed: bool,
    seed: int = 0,
    config=None,
    artifacts_dir: str | Path | None = None,
    artifact_stem: str | None = None,
) -> tuple[dict, dict]:
    """Run one dist cell; returns ``(run_metrics, obs_registry)``.

    ``run_metrics`` is the flat ``run``-section dict of a ``dist`` record;
    ``obs_registry`` is the compact registry snapshot (memory-ratio report
    + cluster roll-up) stored under the record's ``obs`` key.
    """
    import dataclasses

    from repro.core.config import DistObsConfig
    from repro.dist.dpartitioner import DistConfig, dpartition
    from repro.obs.dist import render_memory_ratio, write_cluster_trace

    cfg = config or DistConfig()
    cfg = dataclasses.replace(
        cfg, seed=seed, obs=DistObsConfig(enabled=True)
    )
    graph = instance.make()
    result = dpartition(graph, k, ranks, compressed=compressed, config=cfg)
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
        "compressed": bool(compressed),
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
    if artifacts_dir is not None and result.trace is not None:
        out = Path(artifacts_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = artifact_stem or (
            f"{instance.name}-r{ranks}-"
            f"{'xterapart' if compressed else 'dkaminpar'}-k{k}-s{seed}"
        )
        write_cluster_trace(out / f"{stem}.trace.json", result.trace)
        with open(out / f"{stem}.memratio.json", "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        (out / f"{stem}.memratio.txt").write_text(
            render_memory_ratio(report) + "\n"
        )
    return run, obs


def run_dist_bench(
    instances: tuple[Instance, ...] = SMOKE_SET,
    rank_counts: tuple[int, ...] = DEFAULT_RANKS,
    k_values: tuple[int, ...] = DEFAULT_K,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    *,
    modes: tuple[tuple[str, bool], ...] = DEFAULT_MODES,
    config=None,
    rundb=None,
    bench: str = "dist-smoke",
    label: str | None = None,
    artifacts_dir: str | Path | None = None,
    progress: bool = False,
) -> list[dict]:
    """Run the dist matrix; returns (and optionally appends) the
    ``dist``-kind run-DB records."""
    records = []
    for instance in instances:
        for ranks in rank_counts:
            for name, compressed in modes:
                for k in k_values:
                    for seed in seeds:
                        t0 = time.perf_counter()
                        run, obs = bench_one(
                            instance,
                            ranks,
                            k,
                            compressed=compressed,
                            seed=seed,
                            config=config,
                            artifacts_dir=artifacts_dir,
                        )
                        rec = make_dist_record(
                            bench,
                            algorithm=f"{name}-r{ranks}",
                            instance=instance.name,
                            k=k,
                            seed=seed,
                            metrics=run,
                            label=label,
                            obs=obs,
                        )
                        if rundb is not None:
                            rec = rundb.append(rec)
                        records.append(rec)
                        if progress:
                            print(
                                f"  dist {instance.name} r={ranks} "
                                f"{name} k={k} seed={seed}: "
                                f"cut={run['cut']} "
                                f"ratio={run['memory_ratio']:.3f} "
                                f"comm={run['comm_raw_bytes']}B"
                                f"->{run['comm_varint_bytes']}B "
                                f"in {time.perf_counter() - t0:.2f}s"
                            )
    return records
