"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the original KaMinPar/TeraPart binaries are driven:

* ``partition``  -- partition a graph file (binary or METIS format) into k
  blocks and write the block assignment.
* ``compress``   -- convert a binary graph to the compressed representation
  and report ratios (gap-only vs gap+interval).
* ``generate``   -- synthesize a benchmark graph to a file.
* ``stats``      -- print n / m / degree / locality statistics.
* ``serve``      -- run the long-lived partitioning service: an HTTP front
  end with admission batching, a byte-budgeted LRU cache, and incremental
  (warm-start) repartitioning under graph deltas.
* ``bench``      -- the regression observatory: ``record`` a run matrix
  of one ``--kind`` (one-shot ``partition`` runs, replayed ``service``
  traces, ``dist`` cluster runs) into the append-only run database,
  capture a named ``baseline``, and ``compare`` candidate runs against it
  (with ``--gate`` for CI).

Examples::

    python -m repro generate --family rgg2d --n 10000 --out g.bin
    python -m repro partition g.bin -k 16 --preset terapart --out g.part16
    python -m repro compress g.bin
    python -m repro stats g.bin
    python -m repro bench record --suite smoke --label base --db runs.jsonl
    python -m repro bench baseline --name smoke --db runs.jsonl \
        --out benchmarks/baselines/smoke.json
    python -m repro bench compare --baseline benchmarks/baselines/smoke.json \
        --db runs.jsonl --gate
    python -m repro serve --graph web=g.bin --port 8642
    python -m repro bench record --kind service --db runs.jsonl
    python -m repro bench record --kind dist --ranks 2 4 --db runs.jsonl
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.core import config as C
from repro.core.metrics import write_partition
from repro.graph import generators
from repro.graph.compressed import compress_graph
from repro.graph.io import read_binary, read_metis, stream_compressed, write_binary
from repro.graph.stats import compute_stats
from repro.parallel.runtime import SCHEDULE_POLICIES


def _load_graph(path: str, *, compressed: bool = False):
    p = Path(path)
    if p.suffix in (".metis", ".graph", ".txt"):
        if compressed:
            return compress_graph(read_metis(p))
        return read_metis(p)
    if compressed:
        return stream_compressed(p)
    return read_binary(p)


def cmd_partition(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, compressed=args.stream_compress)
    cfg = C.preset(args.preset, seed=args.seed, p=args.threads, epsilon=args.epsilon)
    if args.selfcheck or args.schedule_policy is not None or args.schedule_seed:
        cfg = cfg.with_(
            debug=C.DebugConfig(
                validation_level=2 if args.selfcheck else 0,
                detect_conflicts=bool(args.selfcheck),
                schedule_policy=args.schedule_policy,
                schedule_seed=args.schedule_seed,
            )
        )
    want_obs = bool(args.trace_out or args.metrics_json)
    if want_obs or args.selfcheck:
        # selfcheck runs also charge transient decode scratch to the ledger
        cfg = cfg.with_(
            obs=C.ObsConfig(enabled=want_obs, track_scratch=args.selfcheck)
        )
    t0 = time.perf_counter()
    if args.seeds > 1:
        from repro.core.portfolio import partition_portfolio

        pr = partition_portfolio(
            graph, args.k, cfg, seeds=range(args.seed, args.seed + args.seeds)
        )
        result = pr.best
        print(
            f"portfolio:  best of {args.seeds} seeds "
            f"(mean cut {pr.mean_cut:.0f}, std {pr.cut_std:.0f})"
        )
    else:
        result = repro.partition(graph, args.k, cfg)
    elapsed = time.perf_counter() - t0
    out = args.out or f"{args.graph}.part{args.k}"
    write_partition(out, result.partition)
    print(f"cut:        {result.cut} ({result.cut_fraction:.3%})")
    print(f"imbalance:  {result.imbalance:.4f} (balanced: {result.balanced})")
    print(f"peak bytes: {result.peak_bytes}")
    print(f"time:       {elapsed:.2f}s wall")
    print(f"partition:  {out}")
    if args.metrics:
        from repro.core.metrics import compute_metrics

        print("metrics:    " + compute_metrics(result.pgraph).row())
    if want_obs and result.trace is not None:
        from repro.obs.export import render_level_summary, write_chrome_trace

        if args.trace_out:
            write_chrome_trace(args.trace_out, result.trace)
            print(f"trace:      {args.trace_out}")
        if args.metrics_json:
            import json

            with open(args.metrics_json, "w") as f:
                json.dump(result.obs, f, indent=2)
                f.write("\n")
            print(f"metrics js: {args.metrics_json}")
        print(render_level_summary(result.trace))
    if result.selfcheck is not None:
        sc = result.selfcheck
        n_conflicts = len(sc["conflicts"])
        print(
            f"selfcheck:  {sc['invariant_checks']} invariant checks ok, "
            f"{sc['regions_checked']} parallel regions / "
            f"{sc['accesses_recorded']} accesses race-checked, "
            f"{n_conflicts} conflicts "
            f"(schedule {sc['schedule_policy']}, seed {sc['schedule_seed']})"
        )
        if n_conflicts:
            for c in sc["conflicts"][:10]:
                print(f"  {c}")
            return 1
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    full = compress_graph(graph)
    gap = compress_graph(graph, enable_intervals=False)
    print(f"n={graph.n} m={graph.m}")
    print(f"CSR bytes:          {graph.nbytes}")
    print(f"compressed bytes:   {full.nbytes} (ratio {full.stats.ratio:.2f}x)")
    print(f"gap-only bytes:     {gap.nbytes} (ratio {gap.stats.ratio:.2f}x)")
    print(f"intervals:          {full.stats.num_intervals}")
    print(f"chunked vertices:   {full.stats.num_chunked_vertices}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    kwargs = {"n": args.n, "seed": args.seed}
    if args.family in ("rgg2d", "rhg", "weblike", "er"):
        kwargs["avg_degree"] = args.degree
    if args.family == "kmer":
        kwargs["degree"] = int(args.degree)
    if args.family == "ba":
        kwargs["m_attach"] = max(1, int(args.degree // 2))
    graph = generators.generate(args.family, **kwargs)
    write_binary(graph, args.out)
    print(f"wrote {args.out}: n={graph.n} m={graph.m}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    st = compute_stats(graph)
    print(st.row())
    print(f"mean log2 gap: {st.mean_log2_gap:.2f}")
    print(f"interval edge fraction: {st.interval_edge_fraction:.1%}")
    print(f"isolated vertices: {st.isolated_vertices}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro import analysis
    from repro.analysis import baseline as baseline_mod

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        # default target: the installed repro package itself
        paths = [Path(repro.__file__).parent]
    passes = args.passes.split(",") if args.passes else None
    baseline_path = Path(args.baseline)

    if args.update_baseline:
        # regenerate from scratch: suppressions still apply, baseline doesn't
        report = analysis.lint_paths(paths, baseline=None, passes=passes)
        baseline_mod.save(baseline_path, report.findings)
        print(
            f"baseline: {len(report.findings)} findings accepted -> "
            f"{baseline_path}"
        )
        return 0

    report = analysis.lint_paths(paths, baseline=baseline_path, passes=passes)
    if args.format == "sarif":
        import json

        from repro.analysis.sarif import to_sarif

        print(json.dumps(to_sarif(report), indent=2))
    else:
        print(analysis.render_text(report, gate=args.gate))
    if args.json:
        analysis.write_json_report(report, Path(args.json))
        print(f"report:     {args.json}")
    if args.sarif:
        from repro.analysis.sarif import write_sarif

        write_sarif(report, Path(args.sarif))
        if args.format != "sarif":
            print(f"sarif:      {args.sarif}")
    if args.gate:
        if report.new:
            print(f"lint gate: FAILED ({len(report.new)} new findings)")
            return 1
        print("lint gate: passed")
        return 0
    return 1 if report.new else 0


# --------------------------------------------------------------------- #
# bench: the regression observatory (run DB / baselines / compare); what
# each record kind gates, prints and runs is read off rundb.KINDS
# --------------------------------------------------------------------- #
def cmd_bench_record(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_matrix
    from repro.bench.instances import SUITES
    from repro.bench.reporting import render_table
    from repro.obs.regress.rundb import KINDS, RunDB

    kind = KINDS[args.kind]
    args.preset = args.preset or ["terapart"]
    instances = list(SUITES[args.suite])
    if args.instances:
        wanted = set(args.instances)
        instances = [i for i in instances if i.name in wanted]
        missing = wanted - {i.name for i in instances}
        if missing:
            raise SystemExit(f"unknown instance(s) in suite: {sorted(missing)}")
    try:
        configs = kind.load("configs")(args)
    except ValueError as err:
        raise SystemExit(f"bench record: {err}") from None
    measurements = run_matrix(
        configs,
        instances,
        args.k or kind.ks,
        args.seeds or kind.seeds,
        kind=kind.name,
        progress=True,
        rundb=RunDB(args.db),
        record_bench=kind.bench_prefix + args.suite,
        record_label=args.label,
    )
    groups: dict[tuple, list[dict]] = {}
    for m in measurements:
        groups.setdefault((m.algorithm, m.instance, m.k), []).append(m.metrics)
    rows = [
        (*key, *(fmt(np.mean([run[f] for run in runs])) for _, f, fmt in kind.summary))
        for key, runs in sorted(groups.items())
    ]
    print(
        render_table(
            ["algorithm", "instance", "k"]
            + [f"mean {header}" for header, _, _ in kind.summary],
            rows,
            title=f"recorded {len(measurements)} {kind.name} runs -> {args.db}"
            + (f" (label {args.label})" if args.label else ""),
        )
    )
    return 0


def _candidate_records(args: argparse.Namespace) -> list[dict]:
    from repro.obs.regress.rundb import KINDS, RunDB, latest_per_key, run_key

    bench = KINDS[args.kind].bench_prefix + args.suite
    records = [
        r
        for r in RunDB(args.db).query(kind=args.kind, label=args.label)
        if r.get("bench") == bench
    ]
    # append order is chronological: keep the freshest run per identity
    return latest_per_key(records, run_key)


def cmd_bench_baseline(args: argparse.Namespace) -> int:
    from repro.obs.regress.compare import capture_baseline
    from repro.obs.regress.rundb import environment_stamp

    records = _candidate_records(args)
    if not records:
        raise SystemExit(
            f"no {args.kind} records in {args.db} match the filter"
        )
    base = capture_baseline(
        records, args.name, env=environment_stamp(), kind=args.kind
    )
    out = args.out or f"benchmarks/baselines/{args.name}.json"
    base.save(out)
    n_seeds = {len(g["seeds"]) for g in base.groups.values()}
    print(
        f"baseline '{args.name}': {len(base.groups)} groups "
        f"({sorted(n_seeds)} seeds each) -> {out}"
    )
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.obs.regress import report as R
    from repro.obs.regress.compare import Baseline, CompareThresholds, compare

    baseline = Baseline.load(args.baseline)
    candidates = _candidate_records(args)
    if not candidates:
        raise SystemExit(f"no candidate records in {args.db} match the filter")
    # default: everything the kind gates, each with a band by construction
    metrics = tuple(args.metrics.split(",")) if args.metrics else None
    thresholds = CompareThresholds()
    try:
        for metric in metrics or ():
            thresholds.band(metric)
    except ValueError as err:
        raise SystemExit(
            f"bench compare: {err}; seconds are judged by the ladder "
            "(BENCHMARK.json), not here"
        ) from None
    result = compare(
        baseline, candidates, kind=args.kind, metrics=metrics,
        thresholds=thresholds,
    )
    md = R.render_markdown(
        result, baseline=baseline, candidate_label=args.label
    )
    print(md)
    if args.report:
        Path(args.report).write_text(md)
        print(f"report:     {args.report}")
    traj = R.trajectory_dict(
        result,
        candidate_records=candidates,
        baseline=baseline,
        candidate_label=args.label,
    )
    R.write_trajectory(args.trajectory, traj)
    print(f"trajectory: {args.trajectory}")
    if args.attrib:
        _write_attrib_diff(args.attrib, baseline, candidates, args.label)
        print(f"attribution: {args.attrib}")
    if args.gate and result.regressed:
        why = [f"{m} regressed" for m in result.regressed_metrics]
        if result.gate.violations:
            why.append(f"{len(result.gate.violations)} unbalanced run(s)")
        if result.gate.uncompared:
            why.append("not compared: " + ", ".join(result.gate.uncompared))
        print(f"perf gate: FAILED ({'; '.join(why)})")
        return 1
    if args.gate:
        print("perf gate: passed")
    return 0


def _write_attrib_diff(path, baseline, candidates, label) -> None:
    """Full per-phase profile diff (every section, every phase, no verdict
    filter) -- the CI artifact that answers "where did the time/bytes move"
    even when no metric was flagged."""
    import json

    from repro.obs.regress import attrib as A

    base_profile = A.aggregate_profiles(
        g.get("profile", {}) for g in baseline.groups.values()
    )
    cand_profile = A.profiles_from_records(candidates)
    deltas = {
        section: [
            {
                "phase": d.phase,
                "metric": d.metric,
                "base": d.base,
                "cand": d.cand,
                "pct": None if d.pct == float("inf") else round(d.pct, 2),
                "kernel": d.kernel,
            }
            for d in A.diff_profiles(
                base_profile,
                cand_profile,
                section=section,
                min_pct=0.0,
                min_share=0.0,
                top=64,
            )
        ]
        for section in A.PROFILE_KEYS
    }
    payload = {
        "schema": 1,
        "kind": "attribution-diff",
        "baseline": baseline.name,
        "candidate_label": label,
        "base_profile": base_profile,
        "cand_profile": cand_profile,
        "deltas": deltas,
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import ServeConfig
    from repro.serve.http import serve_forever
    from repro.serve.service import PartitionService

    cfg = C.preset(args.preset, p=args.threads, epsilon=args.epsilon)
    serve_cfg = ServeConfig(
        cache_budget_bytes=int(args.cache_budget_mb * 1024 * 1024),
        drift_threshold=args.drift_threshold,
    )

    async def _main() -> None:
        service = PartitionService(cfg, serve_cfg)
        for spec in args.graph or []:
            name, _, path = spec.partition("=")
            if not path:
                path, name = name, Path(name).stem
            g = _load_graph(path)
            fp = await service.register_graph(name, g)
            print(f"registered {name}: n={g.n} m={g.m} fingerprint={fp}")
        for iname in args.instance or []:
            from repro.bench.instances import load_instance

            g = load_instance(iname)
            fp = await service.register_graph(iname, g)
            print(f"registered {iname}: n={g.n} m={g.m} fingerprint={fp}")
        await serve_forever(
            service,
            host=args.host,
            port=args.port,
            ready_callback=lambda addr: print(
                f"serving on http://{addr[0]}:{addr[1]}", flush=True
            ),
        )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a graph file")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--preset", default="terapart", choices=sorted(C.PRESETS))
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="portfolio size: run this many seeds, keep the best",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="also report communication volume / connectivity metrics",
    )
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--out")
    p.add_argument(
        "--stream-compress",
        action="store_true",
        help="stream the file directly into compressed memory",
    )
    p.add_argument(
        "--selfcheck",
        action="store_true",
        help="run phase-boundary invariant checks and the conflict "
        "detector; exit 1 if any conflict is found",
    )
    p.add_argument(
        "--schedule-policy",
        choices=list(SCHEDULE_POLICIES),
        default=None,
        help="replay all simulated-parallel loops under this chunk "
        "interleaving (default: model issue order)",
    )
    p.add_argument(
        "--schedule-seed",
        type=int,
        default=0,
        help="seed for the 'random' schedule policy",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="enable span tracing and write a Chrome-trace JSON "
        "(chrome://tracing / Perfetto) to PATH",
    )
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="enable span tracing and write the metrics registry "
        "(counters + per-phase memory waterfall) to PATH",
    )
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("compress", help="report compression ratios")
    p.add_argument("graph")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("--family", required=True, choices=sorted(generators.GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="print graph statistics")
    p.add_argument("graph")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "lint",
        help="AST discipline checks: parallel access, tracked allocation, "
        "integer widths, phase names (see DESIGN.md section 9)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    p.add_argument(
        "--baseline",
        default="analysis/baseline.json",
        help="accepted-findings baseline (default: %(default)s)",
    )
    p.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 only on findings not covered by the baseline",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept all current findings into the baseline file",
    )
    p.add_argument(
        "--passes",
        default=None,
        help="comma-separated subset of passes (default: all): "
        "parallel-access,untracked-alloc,int-width,phase-discipline",
    )
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="stdout format: human-readable text or SARIF 2.1.0 "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--sarif",
        default=None,
        help="also write a SARIF 2.1.0 report here (for code-scanning upload)",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "serve",
        help="long-lived partitioning service: HTTP front end with "
        "admission batching, a byte-budgeted cache, and incremental "
        "(warm-start) repartitioning under graph deltas (DESIGN.md §11)",
    )
    p.add_argument(
        "--graph",
        action="append",
        default=None,
        metavar="NAME=PATH",
        help="register a graph file under NAME (repeatable; bare PATH "
        "uses the file stem as the name)",
    )
    p.add_argument(
        "--instance",
        action="append",
        default=None,
        help="register a named benchmark instance (repeatable)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--preset", default="terapart", choices=sorted(C.PRESETS))
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--threads", type=int, default=8)
    p.add_argument(
        "--cache-budget-mb",
        type=float,
        default=256.0,
        help="byte budget of the graph/partition LRU cache",
    )
    p.add_argument(
        "--drift-threshold",
        type=float,
        default=0.25,
        help="cumulative drift fraction forcing a full repartition",
    )
    p.set_defaults(func=cmd_serve)

    from repro.bench.instances import SUITES
    from repro.obs.regress.rundb import KINDS

    p = sub.add_parser(
        "bench",
        help="regression observatory: record runs, baseline, compare",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def _common_args(bp):
        bp.add_argument(
            "--kind",
            default="partition",
            choices=list(KINDS),
            help="record kind: one-shot partition runs, replayed service "
            "traces, or dist cluster runs (default: %(default)s)",
        )
        bp.add_argument(
            "--db",
            default="BENCH_runs.jsonl",
            help="append-only JSONL run database (default: %(default)s)",
        )
        bp.add_argument(
            "--label",
            default=None,
            help="grouping label stamped on / filtering DB records",
        )
        bp.add_argument(
            "--suite",
            default="smoke",
            choices=sorted(SUITES),
            help="instance suite (default: %(default)s)",
        )

    bp = bench_sub.add_parser(
        "record", help="run a cell matrix of one kind and append it to the DB"
    )
    _common_args(bp)
    bp.add_argument(
        "--preset",
        action="append",
        default=None,
        choices=sorted(C.PRESETS),
        help="config preset(s) to run (repeatable; default: terapart; "
        "partition runs are traced, dist runs take none)",
    )
    bp.add_argument(
        "--instances",
        nargs="+",
        default=None,
        help="restrict the suite to these instance names",
    )
    per_kind = "; ".join(
        f"{k.name}: -k {' '.join(map(str, k.ks))} "
        f"--seeds {' '.join(map(str, k.seeds))}"
        for k in KINDS.values()
    )
    bp.add_argument(
        "-k", type=int, nargs="+", default=None,
        help=f"k values (defaults per kind -- {per_kind})",
    )
    bp.add_argument("--seeds", type=int, nargs="+", default=None)
    bp.add_argument("--threads", type=int, default=8)
    bp.add_argument(
        "--ranks",
        type=int,
        nargs="+",
        default=[2, 4],
        help="dist: simulated rank counts (default: %(default)s)",
    )
    bp.add_argument(
        "--modes",
        default=None,
        help="dist: comma-separated systems to run: dkaminpar, xterapart "
        "(default: both)",
    )
    bp.add_argument(
        "--artifacts",
        default=None,
        help="dist: directory for per-cell merged traces + memory-ratio "
        "reports",
    )
    bp.set_defaults(func=cmd_bench_record)

    bp = bench_sub.add_parser(
        "baseline", help="capture a named baseline from recorded runs"
    )
    _common_args(bp)
    bp.add_argument("--name", required=True, help="baseline name")
    bp.add_argument(
        "--out",
        default=None,
        help="output JSON (default: benchmarks/baselines/<name>.json)",
    )
    bp.set_defaults(func=cmd_bench_baseline)

    bp = bench_sub.add_parser(
        "compare",
        help="compare candidate runs against a baseline; --gate exits 1 "
        "on a confirmed regression or a baseline entry left uncompared",
    )
    _common_args(bp)
    bp.add_argument(
        "--baseline", required=True, help="baseline JSON captured earlier"
    )
    bp.add_argument(
        "--metrics",
        default=None,
        help="comma-separated metric list (default: everything the kind "
        "gates).  Only deterministic metrics with a declared neutral band "
        "classify; seconds are judged by the ladder",
    )
    bp.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 if any metric is classified regressed, a candidate "
        "run is unbalanced, or a baseline group / requested metric was "
        "not compared",
    )
    bp.add_argument("--report", default=None, help="write the Markdown report here")
    bp.add_argument(
        "--trajectory",
        default="BENCH_trajectory.json",
        help="machine-readable output (default: %(default)s)",
    )
    bp.add_argument(
        "--attrib",
        default=None,
        help="write the full per-phase attribution diff (JSON) here, "
        "regardless of verdicts",
    )
    bp.set_defaults(func=cmd_bench_compare)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
