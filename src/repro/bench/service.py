"""Replayed-trace service benchmark: the ``service`` kind's cell function.

One cell spins up an in-process
:class:`~repro.serve.service.ServiceHandle`, replays the canonical
:func:`~repro.serve.trace.make_trace` workload (cold request, concurrent
burst, delta batches with warm-started re-requests), and folds the
replay's :class:`TraceReport` into the flat ``run`` section of a
``service``-kind run-DB row.

Two derived metrics carry the acceptance claims:

* ``warm_over_full``  — mean warm-run compute time / mean full-run
  compute time.  The ">= 3x faster warm starts" claim is this < 1/3.
* ``cut_overhead``    — warm cut / from-scratch cut on the *final*
  drifted graph (a fresh full multilevel run outside the service).
  The "within 5% quality" claim is this <= 1.05.

``cut_overhead`` is deterministic per seed and is the one metric the kind
gates (:data:`~repro.obs.regress.rundb.KINDS`), so
``repro bench compare --kind service`` holds it to its baseline value
exactly like cut for partition records; ``warm_over_full`` is wall-clock, so CI holds it to its
absolute bound only.
"""

from __future__ import annotations

from repro.bench.instances import Instance
from repro.core.config import PartitionerConfig, ServeConfig, preset
from repro.memory.tracker import MemoryTracker
from repro.obs.regress.rundb import Measurement


def presets(opts) -> list[PartitionerConfig]:
    """Config axis of ``repro bench record --kind service``."""
    return [preset(name, p=opts.threads) for name in opts.preset]


def bench_one(
    config: PartitionerConfig,
    instance: Instance,
    k: int,
    seed: int,
    *,
    trace_kwargs: dict | None = None,
) -> Measurement:
    """Replay one trace cell against a service running ``config``."""
    from repro.core.partitioner import partition
    from repro.serve import ServiceHandle, make_trace, replay

    seeded = config.with_(seed=seed)
    graph = instance.make()
    with ServiceHandle(seeded, ServeConfig(), tracker=MemoryTracker()) as handle:
        handle.register_graph(instance.name, graph)
        trace = make_trace(
            instance.name, graph, k, seed=seed, **(trace_kwargs or {})
        )
        report = replay(handle, trace)
        final_graph = handle.service._entries[instance.name].graph
        obs = handle.metrics_registry(
            meta={"instance": instance.name, "k": k, "seed": seed}
        ).to_dict()
    run = report.to_run_dict()
    # quality reference: a fresh full multilevel run on the drifted final
    # graph, outside the service
    scratch = int(partition(final_graph, k, seeded).cut)
    warm_cut = report.cuts.get("warm", report.cuts.get("full", 0))
    run["warm_cut"] = int(warm_cut)
    run["scratch_cut"] = scratch
    # lower-is-better gate metric; 1.0 = warm quality matches from-scratch
    run["cut_overhead"] = warm_cut / scratch if scratch > 0 else 1.0
    return Measurement(
        f"serve-{config.name}", instance.name, k, seed, run, obs
    )
