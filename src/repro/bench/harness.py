"""Run-matrix execution and the paper's aggregation rules.

Methodology (Section VI): an *instance* is a (graph, k) pair; metrics are
averaged over seeds with the arithmetic mean per instance, then aggregated
across instances with the geometric mean (memory, time, cut) or harmonic
mean (relative speedups).

:func:`run_matrix` is the one loop that walks a cell matrix and appends
to the run database, for every record kind of
:data:`~repro.obs.regress.rundb.KINDS`; this module also holds the
``partition`` kind's cell function (:func:`run_partitioner`).
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.bench.instances import Instance, load_instance
from repro.core.config import PartitionerConfig


@dataclass
class RunRecord:
    """One (algorithm, instance, k, seed) measurement."""

    algorithm: str
    instance: str
    k: int
    seed: int
    cut: int
    balanced: bool
    imbalance: float
    wall_seconds: float
    modeled_seconds: float
    peak_bytes: int
    extra: dict = field(default_factory=dict)

    @property
    def metrics(self) -> dict:
        """The ``run``-section fields of a partition row after the identity
        (wall is recorded; the shape-only parallel model is not)."""
        return {
            "cut": int(self.cut),
            "balanced": bool(self.balanced),
            "imbalance": float(self.imbalance),
            "wall_seconds": float(self.wall_seconds),
            "peak_bytes": int(self.peak_bytes),
            "extra": {k: v for k, v in self.extra.items() if k != "obs"},
        }

    @property
    def obs(self) -> dict | None:
        """The traced run's registry snapshot: its own section of the row."""
        return self.extra.get("obs")


class AggregateStat(float):
    """A mean that remembers its provenance.

    Both aggregation rules below are undefined for non-positive values and
    must drop them — but a dropped value (say a legal ``cut == 0``) silently
    biasing the aggregate is exactly the kind of thing the regression
    observatory exists to catch.  The result therefore carries ``used`` and
    ``dropped`` counts; reports surface them next to the number.
    """

    used: int
    dropped: int

    def __new__(cls, value: float, used: int = 0, dropped: int = 0):
        self = super().__new__(cls, value)
        self.used = used
        self.dropped = dropped
        return self

    def annotate(self) -> str:
        """``"12.3 (2 non-positive dropped)"`` — for report footnotes."""
        base = f"{float(self):.6g}"
        if self.dropped:
            return f"{base} ({self.dropped} non-positive dropped)"
        return base


def geometric_mean(values: Iterable[float]) -> AggregateStat:
    vals = [v for v in values]
    pos = [v for v in vals if v > 0]
    dropped = len(vals) - len(pos)
    if not pos:
        return AggregateStat(0.0, 0, dropped)
    mean = math.exp(sum(math.log(v) for v in pos) / len(pos))
    return AggregateStat(mean, len(pos), dropped)


def harmonic_mean(values: Iterable[float]) -> AggregateStat:
    vals = [v for v in values]
    pos = [v for v in vals if v > 0]
    dropped = len(vals) - len(pos)
    if not pos:
        return AggregateStat(0.0, 0, dropped)
    mean = len(pos) / sum(1.0 / v for v in pos)
    return AggregateStat(mean, len(pos), dropped)


def run_partitioner(
    config: PartitionerConfig,
    instance: Instance,
    k: int,
    seed: int,
) -> RunRecord:
    """Run the core partitioner once and record every reported metric.

    When the config enables observability (``config.obs.enabled``) the run's
    metrics-registry snapshot rides along in ``extra["obs"]`` -- figure
    scripts consume the per-phase memory waterfall and counters from there
    instead of re-measuring.
    """
    graph = load_instance(instance.name)
    result = repro.partition(graph, k, config.with_(seed=seed))
    extra: dict = {"num_levels": result.num_levels}
    if result.obs is not None:
        extra["obs"] = result.obs
    return RunRecord(
        algorithm=config.name,
        instance=instance.name,
        k=k,
        seed=seed,
        cut=result.cut,
        balanced=result.balanced,
        imbalance=result.imbalance,
        wall_seconds=result.wall_seconds,
        modeled_seconds=result.modeled_seconds,
        peak_bytes=result.peak_bytes,
        extra=extra,
    )


def traced_presets(opts) -> list[PartitionerConfig]:
    """Config axis of ``repro bench record --kind partition``: the chosen
    presets with observability on, so every row carries its phase profile."""
    from repro.core.config import ObsConfig, preset

    return [
        preset(name, p=opts.threads).with_(obs=ObsConfig(enabled=True))
        for name in opts.preset
    ]


def run_matrix(
    configs: Iterable,
    instances: Iterable[Instance],
    ks: Iterable[int],
    seeds: Iterable[int],
    *,
    kind: str = "partition",
    runner: Callable | None = None,
    progress: bool = False,
    rundb=None,
    record_bench: str = "matrix",
    record_label: str | None = None,
) -> list:
    """The full cross product of configurations x instances x k x seeds.

    ``runner(config, instance, k, seed)`` runs one cell and returns its
    measurement (default: the cell function of ``kind``); the measurements
    are returned in matrix order.  Every one is also appended, as a row of
    ``kind``, to the regression observatory's run database: either the
    ``rundb`` passed explicitly (a :class:`~repro.obs.regress.rundb.RunDB`),
    or — when ``rundb`` is None — the ``$REPRO_RUNDB`` default the bench
    suite's conftest points at the repo-root ``BENCH_runs.jsonl``.  Pass
    ``rundb=False`` to disable persistence outright.
    """
    from repro.obs.regress.rundb import (
        KINDS,
        default_rundb,
        environment_stamp,
        make_record,
    )

    runner = runner or KINDS[kind].load("cell")
    if rundb is None:
        rundb = default_rundb()
    elif rundb is False:
        rundb = None
    env = environment_stamp() if rundb is not None else None
    records = []
    cells = list(itertools.product(configs, instances, ks, seeds))
    t0 = time.perf_counter()
    for done, (cfg, inst, k, seed) in enumerate(cells, 1):
        rec = runner(cfg, inst, k, seed)
        records.append(rec)
        if rundb is not None:
            rundb.append(
                make_record(
                    kind,
                    rec,
                    bench=record_bench,
                    label=record_label,
                    # a dist system is not a preset: no name, no digest
                    config=cfg if isinstance(cfg, PartitionerConfig) else None,
                    env=env,
                )
            )
        if progress and done % 10 == 0 and done < len(cells):
            elapsed = time.perf_counter() - t0
            print(f"  [{done}/{len(cells)}] {elapsed:6.1f}s", flush=True)
    if progress:
        elapsed = time.perf_counter() - t0
        rate = f", {elapsed / len(cells):.2f}s/run" if cells else ""
        print(
            f"  [{len(cells)}/{len(cells)}] done in {elapsed:.1f}s{rate}",
            flush=True,
        )
    return records


def aggregate(
    records: list[RunRecord], metric: str = "cut"
) -> dict[tuple[str, str, int], float]:
    """Arithmetic mean per (algorithm, instance, k) over seeds."""
    groups: dict[tuple[str, str, int], list[float]] = {}
    for r in records:
        key = (r.algorithm, r.instance, r.k)
        groups.setdefault(key, []).append(float(getattr(r, metric)))
    return {k: float(np.mean(v)) for k, v in groups.items()}


def relative_to(
    agg: dict[tuple[str, str, int], float], baseline: str
) -> dict[str, float]:
    """Geometric-mean ratio of each algorithm to the baseline, paired per
    instance (the paper's relative running time / memory plots)."""
    algorithms = sorted({k[0] for k in agg})
    out: dict[str, float] = {}
    for alg in algorithms:
        ratios = []
        for (a, inst, k), v in agg.items():
            if a != alg:
                continue
            base = agg.get((baseline, inst, k))
            if base and base > 0 and v > 0:
                ratios.append(v / base)
        out[alg] = geometric_mean(ratios) if ratios else float("nan")
    return out
