"""The multilevel partitioning driver: coarsen -> initial -> uncoarsen+refine.

This is the KaMinPar skeleton into which the paper's optimizations plug.
The configured variant decides:

* whether the input is compressed before partitioning (Section III),
* classic vs two-phase label propagation clustering (Section IV-A),
* buffered vs one-pass contraction (Section IV-B),
* LP-only vs LP+FM refinement and the FM gain-table kind (Section V).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.coarsening.coarsener import coarsen_hierarchy
from repro.core.config import PartitionerConfig, terapart
from repro.core.context import CONTRACTION_LIMIT_FACTOR, PartitionContext
from repro.core.initial.recursive import initial_partition
from repro.core.partition import PartitionedGraph, max_block_weight
from repro.memory.scratch import tracked_full
from repro.core.refinement.balancer import rebalance
from repro.core.refinement.fm_localized import fm_refine_localized
from repro.core.refinement.fm_refine import fm_refine
from repro.core.refinement.lp_refine import lp_refine
from repro.graph import _native
from repro.graph import access as graph_access
from repro.graph.compressed import compress_graph
from repro.memory.tracker import MemoryTracker
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.parallel.cost_model import CostModel
from repro.parallel.runtime import ParallelRuntime


@dataclass
class PartitionResult:
    """Everything the benchmarks report about one partitioning run."""

    pgraph: PartitionedGraph
    cut: int
    cut_fraction: float
    imbalance: float
    balanced: bool
    wall_seconds: float
    modeled_seconds: float
    peak_bytes: int
    num_levels: int
    config_name: str
    phase_stats: dict = field(default_factory=dict)
    # verify-layer report (populated when config.debug enables validation):
    # the validation level and the invariant checks run
    selfcheck: dict | None = None
    # obs-layer artifacts (populated when config.obs.enabled): the raw span
    # tracer (exportable via repro.obs.write_chrome_trace) and the metrics
    # registry snapshot (counters, per-phase memory waterfall, threads)
    trace: object | None = None
    obs: dict | None = None

    @property
    def partition(self) -> np.ndarray:
        return self.pgraph.partition


def partition(
    graph,
    k: int,
    config: PartitionerConfig | None = None,
    *,
    tracker: MemoryTracker | None = None,
    runtime: ParallelRuntime | None = None,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` balanced blocks.

    ``graph`` may be a :class:`~repro.graph.csr.CSRGraph` or an
    already-compressed :class:`~repro.graph.compressed.CompressedGraph`.
    Returns a :class:`PartitionResult`; the partition array itself is
    ``result.partition``.  A graph whose weights the compiled kernels
    cannot hold is refused before any work, with a ``ValueError`` naming
    the bound (:func:`repro.graph._native.check_graph`).
    """
    config = config or terapart()
    _native.check_graph(graph, config.initial.attempts)
    return _run(
        graph,
        k,
        config,
        tracker,
        runtime,
        lambda ctx, inv: _partition_phases(graph, ctx, inv),
    )


def refine_partition(
    graph,
    k: int,
    partition_in,
    config: PartitionerConfig | None = None,
    *,
    tracker: MemoryTracker | None = None,
    runtime: ParallelRuntime | None = None,
    extra_lp_rounds: int = 0,
    seeds=None,
) -> PartitionResult:
    """Warm-start: refine an existing assignment instead of repartitioning.

    This is the multilevel warm start the serving layer uses for
    incremental repartitioning: ``partition_in`` (typically the previous
    result on a slightly drifted graph) is treated as the projected
    finest-level partition, and only the refinement stack runs — rebalance,
    LP refinement (plus FM when the config enables it), rebalance.  The
    whole coarsening hierarchy, initial partitioning, and input compression
    are skipped, which is where the warm-start speedup comes from.

    ``graph`` may be CSR or compressed; ``partition_in`` must assign all
    ``graph.n`` vertices to blocks in ``[0, k)``.  ``seeds``, if given, are
    the only vertices LP refinement starts from (:func:`lp_refine`): any
    superset of the vertices whose neighbourhood or weight changed since
    ``partition_in`` was computed.  Returns a full
    :class:`PartitionResult` with ``num_levels == 0``, traced and
    self-checked under the same ``config.obs`` / ``config.debug`` knobs as
    :func:`partition`, and refused as it refuses, but for the bisection's
    bound: nothing is bisected here.
    """
    _native.check_graph(graph, 0)
    part = np.ascontiguousarray(partition_in, dtype=np.int32)
    return _run(
        graph,
        k,
        config or terapart(),
        tracker,
        runtime,
        lambda ctx, inv: _refine_phases(
            graph, part, extra_lp_rounds, seeds, ctx, inv
        ),
    )


def _refine_phases(graph, part, extra_lp_rounds, seeds, ctx, inv):
    """The warm start proper: one refinement level on the input graph."""
    with ctx.phase("partition"):
        input_aid = ctx.tracker.alloc("input-graph", graph.nbytes, "graph")
        pgraph = PartitionedGraph(graph, ctx.k, part.copy())
        lmax = ctx.max_block_weight()
        rounds = ctx.config.lp_refinement_rounds + max(0, extra_lp_rounds)
        with ctx.phase("refinement-level0", level=0):
            rebalance(pgraph, lmax, tracer=ctx.tracer)
            lp_refine(pgraph, ctx, lmax, rounds=rounds, seeds=seeds)
            _fm(pgraph, ctx, lmax)
            rebalance(pgraph, lmax, tracer=ctx.tracer)
        checks_run = 0
        if inv is not None:
            inv.check_partition(pgraph, phase="final")
            checks_run = 1
        ctx.tracker.free(input_aid)
    return pgraph, 0, checks_run


def _fm(pgraph, ctx, lmax) -> None:
    """The configured k-way FM variant, if the config enables FM at all."""
    config = ctx.config
    if not config.use_fm:
        return
    if config.fm.localized:
        fm_refine_localized(pgraph, ctx, lmax, max_region=config.fm.max_region)
    else:
        fm_refine(pgraph, ctx, lmax)


def _run(graph, k, config, tracker, runtime, phases) -> PartitionResult:
    """The harness both entry points share.

    Sets up what ``config.debug`` / ``config.obs`` ask for (runtime,
    invariant checks, span tracer, decode counters, scratch ledger), runs
    ``phases(ctx, inv) -> (pgraph, num_levels, checks_run)``, tears the
    process-wide hooks down again and assembles the
    :class:`PartitionResult`.
    """
    tracker = tracker if tracker is not None else MemoryTracker()
    dbg = config.debug
    runtime = runtime or ParallelRuntime(config.p)
    runtime.clear_ledger()  # a reused runtime holds its last run's costs
    inv = None
    if dbg.validation_level:
        from repro.verify import invariants as inv

    obs_cfg = config.obs
    tracer = SpanTracer(tracker) if obs_cfg.enabled else NULL_TRACER
    if obs_cfg.enabled:
        graph_access.install_tracer(tracer)
    if obs_cfg.track_scratch:
        from repro.memory import scratch as _scratch

        _scratch.install_ledger(tracker)

    ctx = PartitionContext(
        config=config,
        k=k,
        total_vertex_weight=graph.total_vertex_weight,
        tracker=tracker,
        runtime=runtime,
        tracer=tracer,
    )
    t0 = time.perf_counter()

    try:
        pgraph, num_levels, checks_run = phases(ctx, inv)
    finally:
        if obs_cfg.enabled:
            graph_access.uninstall_tracer()
            tracer.finish()
        if obs_cfg.track_scratch:
            from repro.memory import scratch as _scratch

            _scratch.uninstall_ledger()

    wall = time.perf_counter() - t0
    phase_stats = runtime.all_stats()
    modeled = CostModel().total_time(phase_stats, runtime.p)
    selfcheck = None
    if dbg.validation_level:
        selfcheck = {
            "validation_level": dbg.validation_level,
            "invariant_checks": checks_run,
        }
    obs_dict = None
    if obs_cfg.enabled:
        from repro.obs.metrics import MetricsRegistry

        obs_dict = MetricsRegistry.from_run(
            tracer,
            tracker,
            threads=runtime.thread_slices(),
            meta={
                "config": config.name,
                "k": k,
                "p": config.p,
                "seed": config.seed,
                "n": graph.n,
                "m": graph.m,
                "num_levels": num_levels,
            },
        ).to_dict()
    cut = pgraph.cut_weight()
    half_tew = pgraph.graph.total_edge_weight // 2
    return PartitionResult(
        pgraph=pgraph,
        cut=cut,
        cut_fraction=cut / half_tew if half_tew else 0.0,
        imbalance=pgraph.imbalance(),
        balanced=pgraph.is_balanced(config.epsilon),
        wall_seconds=wall,
        modeled_seconds=modeled,
        peak_bytes=tracker.peak_bytes,
        num_levels=num_levels,
        config_name=config.name,
        phase_stats=phase_stats,
        selfcheck=selfcheck,
        trace=tracer if obs_cfg.enabled else None,
        obs=obs_dict,
    )


def _partition_phases(graph, ctx, inv):
    """The multilevel pipeline proper, scoped by ledger phases + obs spans."""
    k = ctx.k
    config = ctx.config
    tracker = ctx.tracker
    runtime = ctx.runtime
    tracer = ctx.tracer
    dbg = config.debug
    checks_run = 0

    with ctx.phase("partition"):
        # ---------------- input representation ---------------- #
        top = graph
        input_aid = None
        if config.compress_input and hasattr(graph, "indptr"):
            with ctx.phase("compression"):
                top = compress_graph(graph, tracker=None)
                input_aid = tracker.alloc("input-graph", top.nbytes, "graph")
                tracer.add("compression.input_bytes", graph.nbytes)
                tracer.add("compression.compressed_bytes", top.nbytes)
        else:
            input_aid = tracker.alloc("input-graph", top.nbytes, "graph")

        if inv is not None and dbg.validation_level >= 2:
            if top is not graph:
                inv.check_compressed_roundtrip(
                    graph, top, sample=256, phase="compression"
                )
                checks_run += 1
            elif hasattr(graph, "indptr"):
                inv.check_csr(graph, phase="input")
                checks_run += 1

        # ---------------- coarsening ---------------- #
        with ctx.phase("coarsening"):
            levels = coarsen_hierarchy(top, ctx)

        graphs = [top] + [lvl.graph for lvl in levels]
        coarsest = graphs[-1]
        tracer.add("coarsening.levels", len(levels))

        if inv is not None:
            for li, lvl in enumerate(levels):
                inv.check_coarse_mapping(
                    graphs[li],
                    lvl.graph,
                    lvl.fine_to_coarse,
                    phase=f"coarsening-level{li}",
                )
                checks_run += 1
                if dbg.validation_level >= 2:
                    inv.check_csr(lvl.graph, phase=f"coarsening-level{li}")
                    checks_run += 1

        # ---------------- initial partitioning ---------------- #
        deep_state = None
        with ctx.phase("initial-partitioning", level=len(levels)):
            tracer.add("initial.coarsest_n", coarsest.n)
            tracer.add("initial.attempts", config.initial.attempts)
            if config.initial.scheme == "deep":
                from repro.core.initial.deep import deep_initial_partition

                part, deep_state = deep_initial_partition(
                    coarsest,
                    k,
                    config.epsilon,
                    ctx.rng,
                    factor=CONTRACTION_LIMIT_FACTOR,
                    attempts=config.initial.attempts,
                    fm_rounds=config.initial.fm_rounds,
                )
            else:
                part = initial_partition(
                    coarsest,
                    k,
                    config.epsilon,
                    ctx.rng,
                    attempts=config.initial.attempts,
                    fm_rounds=config.initial.fm_rounds,
                )
            # the portfolio and the bisection tree parallelize over at
            # most ~k slots (the paper: "initial partitioning can only make
            # full use of parallelism once k\' >= p")
            runtime.record(
                "initial-partitioning",
                work=float(
                    coarsest.num_directed_edges
                    * max(1, int(np.log2(max(k, 2))))
                    * config.initial.attempts
                ),
                max_parallelism=float(k),
            )

        lmax = max_block_weight(graph.total_vertex_weight, k, config.epsilon)

        def block_limits() -> np.ndarray | int:
            """Scalar L_max once all k blocks exist; budget-scaled during
            the deep scheme's growth phase (block b holds budgets[b] final
            blocks, so its ceiling is budgets[b] * ceil(w/k) * (1+eps))."""
            if deep_state is None or deep_state.done():
                return lmax
            limits = tracked_full(k, lmax, np.int64, name="block-limits")
            per_final = -(-graph.total_vertex_weight // k)
            kc = deep_state.k_current
            limits[:kc] = (
                (1.0 + config.epsilon)
                * per_final
                * deep_state.budgets.astype(np.float64)
            ).astype(np.int64)
            return limits

        # ---------------- uncoarsening + refinement ---------------- #
        pgraph = PartitionedGraph(coarsest, k, part)
        if inv is not None:
            inv.check_partition(pgraph, phase="initial-partitioning")
            checks_run += 1
        for li in range(len(graphs) - 1, -1, -1):
            with ctx.phase(f"refinement-level{li}", level=li):
                if deep_state is not None and not deep_state.done():
                    from repro.core.initial.deep import extend_partition

                    extend_partition(
                        pgraph,
                        deep_state,
                        ctx.rng,
                        factor=CONTRACTION_LIMIT_FACTOR,
                        attempts=config.initial.attempts,
                        fm_rounds=config.initial.fm_rounds,
                    )
                limits = block_limits()
                rebalance(pgraph, limits, tracer=tracer)
                lp_refine(pgraph, ctx, limits)
                if deep_state is None or deep_state.done():
                    _fm(pgraph, ctx, lmax)
                rebalance(pgraph, limits, tracer=tracer)
            if inv is not None:
                inv.check_partition(pgraph, phase=f"refinement-level{li}")
                checks_run += 1
            if li > 0:
                # project to the next finer graph and drop the coarse level
                fine_to_coarse = levels[li - 1].fine_to_coarse
                finer = graphs[li - 1]
                part = pgraph.partition[fine_to_coarse].astype(np.int32)
                tracker.free(levels[li - 1].graph_aid)
                pgraph = PartitionedGraph(finer, k, part)

        # the deep scheme may still owe block splits if the hierarchy was
        # shallow; finish them on the input graph
        if deep_state is not None and not deep_state.done():
            from repro.core.initial.deep import extend_partition

            while not deep_state.done():
                if not extend_partition(
                    pgraph,
                    deep_state,
                    ctx.rng,
                    factor=1,  # force: every remaining budget must split now
                    attempts=config.initial.attempts,
                    fm_rounds=config.initial.fm_rounds,
                ):
                    break
            rebalance(pgraph, lmax, tracer=tracer)
            lp_refine(pgraph, ctx, lmax)
            rebalance(pgraph, lmax, tracer=tracer)

        if inv is not None:
            inv.check_partition(pgraph, phase="final")
            checks_run += 1

        if input_aid is not None:
            tracker.free(input_aid)

    return pgraph, len(levels), checks_run
