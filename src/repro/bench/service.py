"""Replayed-trace service benchmark: the serving-layer perf gate input.

For every (instance, k, seed) cell this module spins up an in-process
:class:`~repro.serve.service.ServiceHandle`, replays the canonical
:func:`~repro.serve.trace.make_trace` workload (cold request, concurrent
burst, delta batches with warm-started re-requests), and folds the
replay's :class:`TraceReport` into a ``service``-kind run-DB record.

Two derived metrics carry the acceptance claims:

* ``warm_over_full``  — mean warm-run compute time / mean full-run
  compute time.  The ">= 3x faster warm starts" claim is this < 1/3.
* ``cut_overhead``    — warm cut / from-scratch cut on the *final*
  drifted graph (a fresh full multilevel run outside the service).
  The "within 5% quality" claim is this <= 1.05.

``cut_overhead`` is deterministic per seed and is the one metric in
:data:`~repro.obs.regress.rundb.SERVICE_METRICS`, so
``repro bench compare --kinds service`` gates it exactly like cut for
partition records; ``warm_over_full`` is wall-clock, so CI holds it to its
absolute bound only.
"""

from __future__ import annotations

import time

from repro.bench.instances import SMOKE_SET, Instance
from repro.core import config as C
from repro.core.config import ServeConfig
from repro.memory.tracker import MemoryTracker
from repro.obs.regress.rundb import make_service_record

#: default service bench matrix: the smoke instances at one modest k
DEFAULT_K = (8,)
DEFAULT_SEEDS = (0,)


def _scratch_cut(graph, k: int, config, seed: int) -> int:
    """Full multilevel cut on a graph, outside the service (the quality
    reference the warm-start cut is compared against)."""
    from repro.core.partitioner import partition

    return int(partition(graph, k, config.with_(seed=seed)).cut)


def bench_one(
    instance: Instance,
    k: int,
    *,
    seed: int = 0,
    config=None,
    serve_config: ServeConfig | None = None,
    trace_kwargs: dict | None = None,
) -> dict:
    """Replay one trace cell; returns the flat ``run``-section metric dict
    plus the counter-only obs registry under ``"_obs"``."""
    from repro.serve import ServiceHandle, make_trace, replay

    config = (config or C.terapart()).with_(seed=seed)
    serve_config = serve_config or ServeConfig()
    graph = instance.make()
    tracker = MemoryTracker()
    kwargs = dict(trace_kwargs or {})
    with ServiceHandle(config, serve_config, tracker=tracker) as handle:
        handle.register_graph(instance.name, graph)
        trace = make_trace(instance.name, graph, k, seed=seed, **kwargs)
        report = replay(handle, trace)
        # quality reference: a fresh full run on the drifted final graph
        final_graph = handle.service._entries[instance.name].graph
        obs = handle.metrics_registry(
            meta={"instance": instance.name, "k": k, "seed": seed}
        ).to_dict()
    run = report.to_run_dict()
    scratch = _scratch_cut(final_graph, k, config, seed)
    warm_cut = report.cuts.get("warm", report.cuts.get("full", 0))
    run["warm_cut"] = int(warm_cut)
    run["scratch_cut"] = int(scratch)
    # lower-is-better gate metric; 1.0 = warm quality matches from-scratch
    run["cut_overhead"] = warm_cut / scratch if scratch > 0 else 1.0
    run["_obs"] = obs
    return run


def run_service_bench(
    instances: tuple[Instance, ...] = SMOKE_SET,
    k_values: tuple[int, ...] = DEFAULT_K,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    *,
    config=None,
    serve_config: ServeConfig | None = None,
    trace_kwargs: dict | None = None,
    rundb=None,
    bench: str = "service-smoke",
    label: str | None = None,
    progress: bool = False,
) -> list[dict]:
    """Replay the trace matrix; returns (and optionally appends) the
    ``service``-kind run-DB records."""
    config = config or C.terapart()
    records = []
    for instance in instances:
        for k in k_values:
            for seed in seeds:
                t0 = time.perf_counter()
                run = bench_one(
                    instance,
                    k,
                    seed=seed,
                    config=config,
                    serve_config=serve_config,
                    trace_kwargs=trace_kwargs,
                )
                obs = run.pop("_obs", None)
                rec = make_service_record(
                    bench,
                    algorithm=f"serve-{config.name}",
                    instance=instance.name,
                    k=k,
                    seed=seed,
                    metrics=run,
                    label=label,
                    config=config,
                    obs=obs,
                )
                if rundb is not None:
                    rec = rundb.append(rec)
                records.append(rec)
                if progress:
                    print(
                        f"  service {instance.name} k={k} seed={seed}: "
                        f"{run['requests']} reqs in "
                        f"{time.perf_counter() - t0:.2f}s  "
                        f"warm/full={run['warm_over_full']:.3f}  "
                        f"cut_overhead={run['cut_overhead']:.3f}  "
                        f"hit_rate={run['cache_hit_rate']:.2f}"
                    )
    return records
