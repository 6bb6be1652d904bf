"""The six workloads of the ladder: inputs, one rep, and its check.

Instances are *pinned*: every graph comes from a fixed generator seed and
its sha256 is verified in set-up (``pinned_inputs.json``), because the
partitioner is chaotic in its input -- across ten generator seeds ``cut``
moved 7 % (mesh-fm) to 108 % (dist-x4) and ``peak_bytes`` 29 % (small-k64),
IQR over median -- and a yardstick cannot move that much between two runs
of the same code.  ``--seed`` drives what the field varies between
repetitions: the partitioner seed of each rep (rep ``i`` runs
``seed * 1000 + i``; metrics aggregate over the reps) and serve-churn's
delta stream.  The program under test receives only graphs and a config.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import micro
from check import RawGraph, check_answer

INSTANCE_SEED = 1
QUICK_SHRINK = 20  # --quick divides every vertex count by this


@dataclass
class Answer:
    """One operation's outcome, kept raw until the clock has stopped."""

    graph: str  # key of the RawGraph it answers
    k: int
    partition: np.ndarray | None = None
    reported_cut: int | None = None
    peak_bytes: int = 0
    same_as_previous: bool = False  # a cached repeat of the previous answer
    error: str | None = None
    counts: dict[str, float] = field(default_factory=dict)  # exact counters
    ms: dict[str, float] = field(default_factory=dict)  # request class -> latency
    modeled_s: float = 0.0
    delta: dict | None = None  # a delta's bookkeeping (n, m) instead of a partition


@dataclass
class RepOutcome:
    """What one rep produced, after checking."""

    attempted: int
    failed: int
    failures: list[str]
    cut: int  # recomputed, summed over the distinct answers
    peak_bytes: int
    edges: int  # directed edges of the answered graphs, summed
    answer_hash: str
    counts: dict[str, float]
    samples_ms: dict[str, list[float]]
    modeled_s: float


def rep_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def _guarded(answer: Answer, call) -> Answer:
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        call(answer)
    except Exception:  # noqa: BLE001 - benchmark boundary: count, report, go on
        answer.error = traceback.format_exc(limit=4)
    return answer


class Workload:
    name: str = ""
    why: str = ""

    def generate(self, quick: bool) -> dict:
        """Pinned CSR graphs by key (independent of ``--seed``)."""
        raise NotImplementedError

    def prepare(self, graphs: dict, seed: int, quick: bool) -> dict:
        """Seed-dependent inputs and the checker's raw copies."""
        return {"graphs": graphs, "raw": {k: RawGraph.of(g) for k, g in graphs.items()}}

    def run(self, inputs: dict, pseed: int) -> list[Answer]:
        """One rep: only calls into the program's public entry points."""
        raise NotImplementedError

    def micro(self, inputs: dict, seed: int, budget) -> dict[str, float]:
        """Microbenches whose home is this workload."""
        return {}

    # -- after the clock ------------------------------------------------ #
    def check(self, inputs: dict, answers: list[Answer]) -> RepOutcome:
        raw = inputs["raw"]
        failures: list[str] = []
        digest = hashlib.sha256()
        cut = edges = peak = 0
        counts: dict[str, float] = {}
        samples: dict[str, list[float]] = {}
        modeled = 0.0
        last_ok: Answer | None = None
        for i, a in enumerate(answers):
            for key, val in a.counts.items():
                counts[key] = counts.get(key, 0) + val
            for key, val in a.ms.items():
                samples.setdefault(key, []).append(val)
            modeled += a.modeled_s
            peak = max(peak, a.peak_bytes)
            if a.error is not None:
                failures.append(f"op {i} raised: {a.error}")
                continue
            if a.delta is not None:
                want = raw[a.graph]
                if (a.delta["n"], 2 * a.delta["m"]) != (want.n, want.directed_edges):
                    failures.append(f"op {i}: delta left n/m {a.delta} behind")
                continue
            edges += raw[a.graph].directed_edges
            if a.same_as_previous:
                if (
                    last_ok is None
                    or a.reported_cut != last_ok.reported_cut
                    or not np.array_equal(a.partition, last_ok.partition)
                ):
                    failures.append(f"op {i}: cached answer differs from its source")
                continue
            verdict = check_answer(raw[a.graph], a.k, a.partition, a.reported_cut)
            if not verdict.ok:
                failures.append(f"op {i} on {a.graph}: {verdict.reason}")
                last_ok = None
                continue
            last_ok = a
            cut += verdict.cut
            digest.update(np.ascontiguousarray(a.partition, dtype=np.int32).tobytes())
        return RepOutcome(
            attempted=len(answers),
            failed=len(failures),
            failures=failures,
            cut=cut,
            peak_bytes=peak,
            edges=edges,
            answer_hash=digest.hexdigest(),
            counts=counts,
            samples_ms=samples,
            modeled_s=modeled,
        )


def _size(n: int, quick: bool) -> int:
    return max(n // QUICK_SHRINK, 256) if quick else n


# --------------------------------------------------------------------- #
# shared-memory partition() workloads
# --------------------------------------------------------------------- #
class PartitionWorkload(Workload):
    """``partition(graph, k, preset(seed))`` for each pinned graph."""

    def __init__(self, name, why, specs, k, preset, home_micro):
        self.name, self.why = name, why
        self.specs = specs  # ((key, family, n, param), ...)
        self.k = k
        self.preset = preset
        self.home_micro = home_micro  # (graphs, k, seed, budget) -> metrics

    def micro(self, inputs, seed, budget):
        return self.home_micro(inputs["graphs"], self.k, seed, budget)

    def generate(self, quick: bool) -> dict:
        from repro.graph import generators

        return {
            key: getattr(generators, family)(_size(n, quick), param, seed=INSTANCE_SEED)
            for key, family, n, param in self.specs
        }

    def run(self, inputs: dict, pseed: int) -> list[Answer]:
        import repro
        from repro.core import config as presets

        cfg = presets.preset(self.preset, seed=pseed)

        def op(answer: Answer) -> None:
            result = repro.partition(inputs["graphs"][answer.graph], self.k, cfg)
            answer.partition = result.partition
            answer.reported_cut = result.cut
            answer.peak_bytes = result.peak_bytes
            answer.counts = {"coarsening.levels": result.num_levels}
            answer.modeled_s = result.modeled_seconds

        return [_guarded(Answer(key, self.k), op) for key, *_ in self.specs]


def _initial_micro(graphs, k, seed, budget):
    from repro.graph import generators

    # the size recursive bisection works on: n <= 32 * k
    coarse = generators.rgg2d(min(32 * k, graphs["rgg"].n), 8.0, seed=INSTANCE_SEED)
    return micro.initial_kernels(coarse, seed, budget)


# --------------------------------------------------------------------- #
# dist-x4
# --------------------------------------------------------------------- #
class DistX4(Workload):
    name = "dist-x4"
    why = (
        "xTeraPart on 4 simulated ranks: distributed LP, SimComm collectives and "
        "per-rank compression do the work; the only workload where dist.* is non-zero."
    )
    k, ranks, n = 16, 4, 10_000

    def generate(self, quick: bool) -> dict:
        from repro.graph import generators

        return {"rhg": generators.rhg(_size(self.n, quick), 10.0, seed=INSTANCE_SEED)}

    def run(self, inputs: dict, pseed: int) -> list[Answer]:
        from repro.dist import dpartition
        from repro.dist.dpartitioner import DistConfig

        def op(answer: Answer) -> None:
            result = dpartition(
                inputs["graphs"]["rhg"],
                self.k,
                self.ranks,
                compressed=True,
                config=DistConfig(seed=pseed),
            )
            answer.partition = result.partition
            answer.reported_cut = result.cut
            answer.peak_bytes = result.max_rank_peak_bytes
            answer.counts = {
                "coarsening.levels": result.num_levels,
                "dist.bytes_sent": result.comm.bytes_sent,
                "dist.messages": result.comm.messages,
            }
            answer.modeled_s = result.modeled_seconds

        return [_guarded(Answer("rhg", self.k), op)]

    def micro(self, inputs, seed, budget):
        return micro.comm_kernels(self.ranks, budget)


# --------------------------------------------------------------------- #
# serve-churn
# --------------------------------------------------------------------- #
class ServeChurn(Workload):
    name = "serve-churn"
    why = (
        "One cold run, then the serve layer is most of the wall: deltas, fingerprints, "
        "byte-LRU hits and refine_partition warm starts (refinement from a warm assignment)."
    )
    k, n = 16, 20_000
    burst, repeats, deltas = 4, 200, 16
    delta_fraction = 0.005  # of the undirected edges, half added half removed

    def generate(self, quick: bool) -> dict:
        from repro.graph import generators

        return {"g0": generators.rhg(_size(self.n, quick), 10.0, seed=INSTANCE_SEED)}

    def prepare(self, graphs: dict, seed: int, quick: bool) -> dict:
        """The delta stream comes from ``--seed``; the checker's copy of the
        graph is advanced here with the public ``apply_delta``."""
        from repro.serve import apply_delta, random_delta

        rng = np.random.default_rng(seed)
        current = graphs["g0"]
        raw = {"g0": RawGraph.of(current)}
        stream = []
        per_delta = max(2, int(self.delta_fraction * current.m))
        for i in range(1, (4 if quick else self.deltas) + 1):
            delta = random_delta(
                current, rng, n_add=per_delta // 2, n_remove=per_delta - per_delta // 2
            )
            current, _ = apply_delta(current, delta)
            stream.append(delta)
            raw[f"g{i}"] = RawGraph.of(current)
        return {
            "graphs": graphs,
            "raw": raw,
            "deltas": stream,
            "repeats": 10 if quick else self.repeats,
            "final": current,
        }

    def run(self, inputs: dict, pseed: int) -> list[Answer]:
        from repro.core import config as presets
        from repro.serve import ServiceHandle

        answers: list[Answer] = []
        k = self.k

        def request(handle, graph_key: str, klass: str, repeat: bool) -> None:
            def op(answer: Answer) -> None:
                t0 = time.perf_counter()
                result = handle.partition("g", k)
                answer.ms = {klass: (time.perf_counter() - t0) * 1e3}
                answer.partition = result.partition
                answer.reported_cut = result.cut

            answers.append(
                _guarded(Answer(graph_key, k, same_as_previous=repeat), op)
            )

        with ServiceHandle(presets.terapart(seed=pseed)) as handle:
            handle.register_graph("g", inputs["graphs"]["g0"])

            def cold(answer: Answer) -> None:
                t0 = time.perf_counter()
                results = handle.partition_many([("g", k)] * self.burst)
                answer.ms = {"serve.cold_ms": (time.perf_counter() - t0) * 1e3}
                first = results[0]
                for other in results[1:]:
                    if other.cut != first.cut or not np.array_equal(
                        other.partition, first.partition
                    ):
                        raise AssertionError("coalesced burst returned different answers")
                answer.partition = first.partition
                answer.reported_cut = first.cut
                answer.counts = {"coarsening.levels": first.num_levels}

            # the burst is `burst` requests answered by one run
            answers.append(_guarded(Answer("g0", k), cold))
            for _ in range(self.burst - 1):
                answers.append(
                    Answer("g0", k, answers[0].partition, answers[0].reported_cut,
                           same_as_previous=True, error=answers[0].error)
                )
            for _ in range(inputs["repeats"]):
                request(handle, "g0", "serve.hit_ms", True)
            for i, delta in enumerate(inputs["deltas"], start=1):

                def apply(answer: Answer, delta=delta) -> None:
                    t0 = time.perf_counter()
                    info = handle.apply_delta("g", delta)
                    answer.ms = {"serve.delta_ms": (time.perf_counter() - t0) * 1e3}
                    answer.delta = {"n": info["n"], "m": info["m"]}

                answers.append(_guarded(Answer(f"g{i}", k), apply))
                request(handle, f"g{i}", "serve.warm_ms", False)
                request(handle, f"g{i}", "serve.hit_ms", True)
            snapshot = handle.metrics_snapshot()
            peak = handle.service.tracker.peak_bytes
        answers[0].peak_bytes = peak
        for key in ("cache_hits", "full_runs", "warm_runs", "fallback_drift"):
            answers[0].counts[f"serve.{key}"] = snapshot.get(f"serve.{key}", 0)
        return answers


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        PartitionWorkload(
            "web-terapart",
            "Compressed input, five LP rounds re-decoding every chunk: decode_chunk is the largest "
            "self time; where decode fusion, a page cache or an executor must show.",
            (("web", "weblike", 40_000, 14.0),),
            8,
            "terapart",
            lambda graphs, k, seed, budget: micro.graph_layer(graphs["web"], budget),
        ),
        PartitionWorkload(
            "mesh-fm",
            "High-locality mesh with k-way FM: sparse gain-table build + FM dominate; the only "
            "workload running fm_refine, make_gain_table and batch_hash_*; initial partitioning is ~5 %.",
            (("mesh", "rgg2d", 16_000, 8.0),),
            16,
            "terapart-fm",
            lambda graphs, k, seed, budget: micro.gain_table_kernels(graphs["mesh"], k, budget),
        ),
        PartitionWorkload(
            "small-k64",
            "Small graph at large k: recursive bisection (fm2way_refine, greedy graph growing) is "
            "most of the wall, coarsening <10 %; the service's cold path.",
            (("rgg", "rgg2d", 8_000, 8.0),),
            64,
            "terapart",
            _initial_micro,
        ),
        PartitionWorkload(
            "kmer-kaminpar",
            "Same layers used differently: raw CSR, classic per-thread rating maps, buffered "
            "contraction, no ID locality; decode_chunk.calls is 0, the baseline end of the memory ladder.",
            (("kmer", "kmer", 70_000, 4),),
            8,
            "kaminpar",
            lambda graphs, k, seed, budget: micro.coarsening_kernels(graphs["kmer"], budget),
        ),
        DistX4(),
        ServeChurn(),
    )
}


def input_digests(inputs: dict, graphs: dict) -> dict[str, str]:
    """sha256 of each pinned graph's indptr / indices / weights, plus (for
    a seed-made stream) the graph the stream ends on."""
    out = {}
    items = dict(graphs)
    if "final" in inputs:
        items["after-deltas"] = inputs["final"]
    for key, g in items.items():
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(g.indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(g.adjncy, dtype=np.int64).tobytes())
        if g.has_edge_weights:
            h.update(np.ascontiguousarray(g.adjwgt, dtype=np.int64).tobytes())
        if g.has_vertex_weights:
            h.update(np.ascontiguousarray(g.vwgt, dtype=np.int64).tobytes())
        out[key] = h.hexdigest()
    return out
