"""Schedule-fuzzing harness: replay parallel kernels under many interleavings.

The simulated runtime executes one fixed chunk order by default, so the
paper's race-freedom arguments (Algorithm 2's first-writer rule, the
128-bit-CAS dual counter) would otherwise be exercised under exactly one
schedule.  The harness here sweeps a kernel across a matrix of

    schedule policy x schedule seed x virtual thread count p

with a :class:`~repro.verify.conflicts.ConflictDetector` attached, checks
the post-state invariants of every run, and (for contraction) verifies that
every schedule produces a coarse graph isomorphic to the buffered
reference.  This is the CHESS-style systematic exploration the verify layer
rests on: a declared race shows up as a detector conflict under at least
one schedule; a schedule-dependent *outcome* shows up as an isomorphism or
invariant failure.

The LP drivers replay to the detector the round call they make, so the
matrix checks the compiled round entry production runs.  The deliberate
race lives here, not in the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CoarseningConfig, DebugConfig, PartitionerConfig
from repro.core.context import PartitionContext
from repro.parallel.runtime import SCHEDULE_POLICIES, ParallelRuntime
from repro.verify import invariants as inv
from repro.verify.conflicts import Conflict, ConflictDetector

DEFAULT_POLICIES = SCHEDULE_POLICIES
DEFAULT_SEEDS = range(8)
DEFAULT_PS = (2, 4, 8)


@dataclass
class FuzzCase:
    """Outcome of one kernel run under one (policy, seed, p) schedule."""

    kernel: str
    policy: str
    seed: int
    p: int
    conflicts: list[Conflict]
    payload: object = None  # kernel-specific result for downstream checks

    @property
    def clean(self) -> bool:
        return not self.conflicts

    def __str__(self) -> str:
        state = "ok" if self.clean else f"{len(self.conflicts)} conflict(s)"
        return f"{self.kernel}[{self.policy}/seed{self.seed}/p{self.p}]: {state}"


class _RacyWeightsDetector(ConflictDetector):
    """A detector that hears every ``cluster-weights`` atomic as a plain
    write: LP clustering's weight transfers as if the CAS loop were gone,
    the race the fuzzed schedules must catch."""

    def record_atomic(self, array: str, indices, tid: int | None = None) -> None:
        if array == "cluster-weights":
            self.record_write(array, indices, tid)
        else:
            super().record_atomic(array, indices, tid)


def _make_ctx(
    graph,
    *,
    p: int,
    policy: str,
    seed: int,
    chunk_size: int,
    two_phase: bool = True,
    one_pass: bool = True,
    inject_race: bool = False,
    config_seed: int = 0,
) -> tuple[PartitionContext, ConflictDetector]:
    cfg = PartitionerConfig(
        p=p,
        seed=config_seed,
        coarsening=CoarseningConfig(
            two_phase_lp=two_phase, one_pass_contraction=one_pass
        ),
        debug=DebugConfig(
            schedule_policy=policy,
            schedule_seed=seed,
            detect_conflicts=True,
        ),
    )
    runtime = ParallelRuntime(
        p, chunk_size=chunk_size, schedule_policy=policy, schedule_seed=seed
    )
    ctx = PartitionContext(
        config=cfg,
        k=2,
        total_vertex_weight=graph.total_vertex_weight,
        runtime=runtime,
    )
    detector = _RacyWeightsDetector() if inject_race else ConflictDetector()
    runtime.attach_detector(detector)
    return ctx, detector


def fuzz_clustering(
    graph,
    *,
    policies=DEFAULT_POLICIES,
    seeds=DEFAULT_SEEDS,
    ps=DEFAULT_PS,
    two_phase: bool = True,
    inject_race: bool = False,
    chunk_size: int = 32,
    check_invariants: bool = True,
) -> list[FuzzCase]:
    """Replay LP clustering under the schedule matrix.

    Every run's post-state is invariant-checked (cluster weights vs
    recount); the returned cases carry the detector conflicts.  With
    ``inject_race=True`` the detector is a :class:`_RacyWeightsDetector`:
    the clustering runs unchanged, but its cluster-weight updates are heard
    as plain writes -- the deliberate race the detector must catch.
    """
    from repro.core.coarsening.lp_clustering import label_propagation_clustering

    cap = max(1, graph.total_vertex_weight // 8)
    cases = []
    for p in ps:
        for policy in policies:
            for seed in seeds:
                ctx, det = _make_ctx(
                    graph,
                    p=p,
                    policy=policy,
                    seed=seed,
                    chunk_size=chunk_size,
                    two_phase=two_phase,
                    inject_race=inject_race,
                )
                result = label_propagation_clustering(graph, ctx, cap)
                if check_invariants:
                    inv.check_clustering(
                        graph,
                        result.clusters,
                        result.cluster_weights,
                        phase=f"fuzz-lp[{policy}/seed{seed}/p{p}]",
                    )
                cases.append(
                    FuzzCase("lp", policy, seed, p, det.conflicts, result)
                )
    return cases


def canonical_coarse_form(fine_n: int, coarse, fine_to_coarse):
    """Schedule-independent canonical form of a contracted graph.

    Under a schedule policy, coarse vertex ids follow the chunks' run order;
    keying every coarse vertex by its smallest fine member id removes that
    freedom, so two isomorphic coarse graphs compare equal.
    """
    from repro.graph.access import full_adjacency

    f2c = np.asarray(fine_to_coarse)
    key = np.full(coarse.n, fine_n, dtype=np.int64)
    np.minimum.at(key, f2c, np.arange(fine_n, dtype=np.int64))
    src, dst, wgt = full_adjacency(coarse)
    edges = sorted(
        zip(key[src].tolist(), key[dst].tolist(), np.asarray(wgt).tolist())
    )
    vertices = sorted(zip(key.tolist(), np.asarray(coarse.vwgt).tolist()))
    return edges, vertices


def fuzz_contraction(
    graph,
    *,
    policies=DEFAULT_POLICIES,
    seeds=DEFAULT_SEEDS,
    ps=DEFAULT_PS,
    chunk_size: int = 32,
    check_invariants: bool = True,
) -> list[FuzzCase]:
    """Replay one-pass contraction under the schedule matrix.

    The clustering is computed once (fixed); every schedule must then
    produce a coarse graph isomorphic to the buffered reference, pass the
    coarse-mapping invariant, and report zero conflicts.
    """
    from repro.core.coarsening.contraction import contract_buffered
    from repro.core.coarsening.lp_clustering import label_propagation_clustering
    from repro.core.coarsening.one_pass_contraction import contract_one_pass

    cap = max(1, graph.total_vertex_weight // 8)
    base_ctx, _ = _make_ctx(
        graph, p=4, policy="issue", seed=0, chunk_size=chunk_size
    )
    base_ctx.runtime.detach_detector()
    clustering = label_propagation_clustering(graph, base_ctx, cap)

    ref_ctx, _ = _make_ctx(
        graph, p=4, policy="issue", seed=0, chunk_size=chunk_size
    )
    ref_ctx.runtime.detach_detector()
    ref = contract_buffered(
        graph, clustering.clusters, clustering.cluster_weights, ref_ctx
    )
    ref_form = canonical_coarse_form(graph.n, ref.coarse, ref.fine_to_coarse)

    cases = []
    for p in ps:
        for policy in policies:
            for seed in seeds:
                ctx, det = _make_ctx(
                    graph, p=p, policy=policy, seed=seed, chunk_size=chunk_size
                )
                out = contract_one_pass(
                    graph, clustering.clusters, clustering.cluster_weights, ctx
                )
                tag = f"fuzz-contraction[{policy}/seed{seed}/p{p}]"
                if check_invariants:
                    inv.check_coarse_mapping(
                        graph, out.coarse, out.fine_to_coarse, phase=tag
                    )
                    form = canonical_coarse_form(
                        graph.n, out.coarse, out.fine_to_coarse
                    )
                    if form != ref_form:
                        inv._fail(
                            tag,
                            "one-pass coarse graph is not isomorphic to the "
                            "buffered reference under this schedule",
                        )
                cases.append(
                    FuzzCase("contraction", policy, seed, p, det.conflicts, out)
                )
    return cases


def summarize(cases: list[FuzzCase]) -> str:
    dirty = [c for c in cases if not c.clean]
    head = f"{len(cases)} schedules fuzzed, {len(dirty)} with conflicts"
    lines = [head] + [f"  {c}" for c in dirty[:10]]
    return "\n".join(lines)
