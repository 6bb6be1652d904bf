"""One workload, in its own fresh process (spawned by ``run.py``).

Run shape: set-up (import, generate, digest check, one untimed warm-up
rep) -> timed reps with tracing off, ``gc.collect()`` between reps outside
the clock -> ``ru_maxrss`` -> one traced rep -> the workload's
microbenches.  Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import boundaries
import micro
from calibrate import REFERENCE_S, Calibration, calibrated
from workloads import WORKLOADS, input_digests, rep_seed

HERE = Path(__file__).resolve().parent
MIN_REPS = 5
MAX_REPS = 64
OVERHEAD_LIMIT = 1.15
COVERAGE_FLOOR = 0.90


def summary(samples: list[float]) -> dict:
    """Sample count, min, quartiles, max (quartiles need two samples)."""
    q1, med, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive")
        if len(samples) > 1
        else (samples[0],) * 3
    )
    return {
        "n": len(samples),
        "min": min(samples),
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": max(samples),
    }


def one_rep(workload, inputs, pseed: int):
    gc.collect()
    t0 = time.perf_counter()
    answers = workload.run(inputs, pseed)
    wall = time.perf_counter() - t0
    return wall, workload.check(inputs, answers)


def calibrated_rep(workload, inputs, pseed: int, calibration):
    """``(calibrated wall, raw wall, calibration sample, outcome)``."""
    sample = calibration.sample()
    wall, outcome = one_rep(workload, inputs, pseed)
    return calibrated(wall, sample), wall, sample, outcome


def must_agree(what: str, a, b) -> None:
    """Same seed, same code: a differing answer is a benchmark error."""
    for field in ("cut", "peak_bytes", "answer_hash"):
        if getattr(a, field) != getattr(b, field):
            sys.exit(
                f"benchmark error: {what} disagree on {field}: "
                f"{getattr(a, field)} != {getattr(b, field)}"
            )


def check_pins(name: str, quick: bool, seed: int, digests: dict) -> None:
    pins = json.loads((HERE / "pinned_inputs.json").read_text())
    want = pins["workloads"][name]["quick" if quick else "full"]
    for key, digest in digests.items():
        print(f"input {name}/{key} sha256 {digest}", file=sys.stderr)
        if key == "after-deltas" and seed != pins["default_seed"]:
            continue  # seed-made: pinned at the default seed only
        if want.get(key) != digest:
            sys.exit(
                f"pinned input changed: {name}/{key} is {digest}, "
                f"pinned_inputs.json says {want.get(key)}"
            )


def traced_rep(workload, inputs, pseed: int, trace_out: str | None):
    recorder = boundaries.SpanRecorder()
    coarsest = []

    def probe_initial(span, args, kwargs):
        span.args["n"] = args[0].n
        coarsest.append(args[0].n)

    installed = boundaries.install(
        recorder, probes={"initial.initial_partition": probe_initial}
    )
    try:
        wall, outcome = one_rep(workload, inputs, pseed)
    finally:
        boundaries.uninstall(installed)
    stats = boundaries.self_times(recorder.spans)
    metrics: dict[str, float | None] = {}
    for name in boundaries.BOUNDARY_NAMES:
        calls, self_s = stats.get(name, (0, 0.0))
        gone = name in installed.missing
        metrics[f"{name}.calls"] = None if gone else calls
        metrics[f"{name}.self_s"] = None if gone else self_s
    metrics["trace.coverage"] = sum(s for _, s in stats.values()) / wall
    shim_s = len(recorder.spans) * boundaries.span_cost()
    metrics["trace.overhead"] = wall / max(wall - shim_s, 1e-9)
    metrics["parallel.modeled_s"] = outcome.modeled_s
    metrics["coarsening.coarsest_n"] = max(coarsest, default=0)
    if trace_out:
        out = Path(trace_out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload.name}.trace.json").write_text(
            json.dumps(boundaries.chrome_trace(recorder.spans, process=workload.name))
        )
    return wall, outcome, metrics


def per_layer_block(workload, inputs, args, outcomes, raw_walls, samples, peak, rss_mib):
    """The traced rep, the home microbenches, and the request classes and
    exact counts of the timed reps."""
    first = outcomes[0]
    t_wall, t_outcome, layer = traced_rep(
        workload, inputs, rep_seed(args.seed, 0), args.trace_out
    )
    must_agree("traced rep and rep 0", t_outcome, first)
    budget = micro.QUICK_BUDGET if args.quick else micro.Budget()
    home = workload.micro(inputs, args.seed, budget)
    for name in micro.MICRO_NAMES:
        layer[name] = home.get(name)
    pooled: dict[str, list[float]] = {}
    for o in outcomes:
        for key, vals in o.samples_ms.items():
            pooled.setdefault(key, []).extend(vals)
    for key in ("serve.cold_ms", "serve.hit_ms", "serve.warm_ms", "serve.delta_ms"):
        layer[key] = statistics.median(pooled[key]) if key in pooled else None
    hits = sorted(pooled.get("serve.hit_ms", []))
    layer["serve.hit_p99_ms"] = hits[int(0.99 * (len(hits) - 1))] if hits else None
    for key in (
        "serve.cache_hits",
        "serve.full_runs",
        "serve.warm_runs",
        "serve.fallback_drift",
        "coarsening.levels",
        "dist.bytes_sent",
        "dist.messages",
    ):
        layer[key] = first.counts.get(key, 0)
    layer["memory.ledger_over_rss"] = peak / (rss_mib * 2**20)
    layer["machine.wall_raw_s"] = statistics.median(raw_walls)
    layer["machine.calibration_ms"] = statistics.median(samples) * 1e3
    return {
        "reliable": bool(
            layer["trace.overhead"] <= OVERHEAD_LIMIT
            and layer["trace.coverage"] >= COVERAGE_FLOOR
        ),
        "hit_samples": len(hits),
        # raw and noisy: one traced rep over the one untraced rep of its seed
        "traced_wall_ratio": t_wall / raw_walls[0],
        "metrics": layer,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--reps", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--spawned-at", type=float, default=time.time())
    args = ap.parse_args(argv)

    calibration = Calibration()
    samples = [calibration.sample()]
    workload = WORKLOADS[args.workload]
    graphs = workload.generate(args.quick)
    inputs = workload.prepare(graphs, args.seed, args.quick)
    digests = input_digests(inputs, graphs)
    check_pins(workload.name, args.quick, args.seed, digests)
    _, warm = one_rep(workload, inputs, rep_seed(args.seed, 0))
    setup_raw = time.time() - args.spawned_at - samples[0]
    samples.append(calibration.sample())
    setup_s = calibrated(setup_raw, statistics.fmean(samples))

    walls: list[float] = []
    raw_walls: list[float] = []
    outcomes = []
    started = time.perf_counter()
    while len(walls) < MAX_REPS:
        if args.reps:
            if len(walls) >= args.reps:
                break
        elif len(walls) >= MIN_REPS and time.perf_counter() - started >= args.seconds:
            break
        wall, raw, sample, outcome = calibrated_rep(
            workload, inputs, rep_seed(args.seed, len(walls)), calibration
        )
        walls.append(wall)
        raw_walls.append(raw)
        samples.append(sample)
        outcomes.append(outcome)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    must_agree("warm-up and rep 0", warm, outcomes[0])

    attempted = warm.attempted + sum(o.attempted for o in outcomes)
    failed = warm.failed + sum(o.failed for o in outcomes)
    failures = [f for o in [warm] + outcomes for f in o.failures]
    wall_s = statistics.median(walls)
    peak = max(o.peak_bytes for o in outcomes)
    doc = {
        "workload": workload.name,
        "seed": args.seed,
        "quick": args.quick,
        "numpy": numpy.__version__,
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "end_to_end": {
            "wall_s": {"value": wall_s, **summary(walls)},
            "edges_per_s": {
                "value": outcomes[0].edges / wall_s,
                **summary([o.edges / w for o, w in zip(outcomes, walls)]),
            },
            # mean over the reps' partitioner seeds, the field's convention
            "cut": {
                "value": statistics.fmean(o.cut for o in outcomes),
                **summary([float(o.cut) for o in outcomes]),
            },
            "peak_bytes": {
                "value": peak,
                **summary([float(o.peak_bytes) for o in outcomes]),
            },
            "rss_peak_mb": {"value": rss_mib, "n": 1},
            "setup_s": {"value": setup_s, "n": 1, "raw": setup_raw},
            "fail_ratio": {"value": failed / attempted, "n": attempted},
        },
        "raw_wall_s": summary(raw_walls),
        "calibration_s": {"reference": REFERENCE_S, **summary(samples)},
        "per_layer": None,
    }

    if args.trace:
        doc["per_layer"] = per_layer_block(
            workload, inputs, args, outcomes, raw_walls, samples, peak, rss_mib
        )

    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
