"""The ladder: end-to-end wall, quality, memory and per-layer self time.

    python benchmarks/ladder/run.py [--workload NAME ...] [--seed S] [--seconds T | --reps R]
                                    [--trace 0|1] [--quick] [--trace-out DIR] [--out FILE]
                                    [--repeat-check]

Runs each workload in its own fresh subprocess, one after the other
(single process, single client, closed loop; BLAS threads pinned to 1,
``PYTHONHASHSEED=0``), checks every answer, prints every metric by name
with its unit, writes one JSON document (``--out``), and ends with the
one-line result object the benchmark contract asks for: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXACT = ("cut", "peak_bytes", "fail_ratio")  # must repeat exactly at a fixed seed
REPEAT_CHECK_REPS = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def env_stamp() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # an exported checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(name: str, args) -> dict:
    """Spawn the workload's subprocess and return its JSON document."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # benchmarks/conftest.py points this at the committed run DB
    env.pop("REPRO_RUNDB", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--reps", str(args.reps),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    if args.quick:
        cmd.append("--quick")
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"workload {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_workload(doc: dict, spec: dict) -> None:
    name = doc["workload"]
    print(f"== {name} (seed {doc['seed']}, {doc['end_to_end']['wall_s']['n']} timed reps)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_ratio"] = "ratio"  # see run_set
    for metric, row in doc["end_to_end"].items():
        spread = ""
        if row.get("n", 1) > 1 and "median" in row:
            spread = (
                f"  [n={row['n']} min {fmt(row['min'])} q1 {fmt(row['q1'])} "
                f"med {fmt(row['median'])} q3 {fmt(row['q3'])} max {fmt(row['max'])}]"
            )
        print(f"{name}  {metric:<14} {fmt(row['value']):>14} {units[metric]}{spread}")
    for failure in doc["failures"]:
        print(f"{name}  FAILED {failure}")
    layer = doc["per_layer"]
    if layer is None:
        return
    m = layer["metrics"]
    if not layer["reliable"]:
        print(
            f"{name}  per-layer block unreliable: trace.overhead "
            f"{fmt(m['trace.overhead'])}, trace.coverage {fmt(m['trace.coverage'])}"
        )
        return
    for metric in (row["name"] for row in spec["per_layer"]):
        print(f"{name}  {metric:<44} {fmt(m[metric]):>14} {units[metric]}")


def contract_metrics(doc: dict, spec: dict, trace: int) -> dict:
    """The metrics of the contract's result line (numbers only: a metric
    that does not apply to this workload reads 0)."""
    if trace:
        values = doc["per_layer"]["metrics"]
        return {
            m["name"]: {"value": values[m["name"]] or 0, "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return {
        m["name"]: {"value": doc["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec["end_to_end"]
    }


def run_set(names: list[str], args, spec: dict) -> dict:
    docs = {}
    for name in names:
        docs[name] = run_workload(name, args)
        print_workload(docs[name], spec)
    return {
        "schema": 1,
        "env": {**env_stamp(), "numpy": next(iter(docs.values()))["numpy"]},
        "args": {
            "seed": args.seed, "seconds": args.seconds, "reps": args.reps,
            "quick": args.quick, "trace": args.trace,
        },
        "metrics": {
            **{m["name"]: m for m in spec["end_to_end"]},
            # always 0 on a working program, so the contract cannot carry it
            # as a metric; it travels as `failed` / `attempted` there
            "fail_ratio": {"unit": "ratio", "better": "lower", "bound": 0.0},
        },
        "workloads": docs,
    }


def repeat_disagreements(a: dict, b: dict) -> list[str]:
    """End-to-end metrics on which two sets of the same code disagree."""
    out = []
    for name, doc in a["workloads"].items():
        for metric, row in doc["end_to_end"].items():
            x, y = row["value"], b["workloads"][name]["end_to_end"][metric]["value"]
            if metric in EXACT:
                if x != y:
                    out.append(f"{name} {metric}: {x} != {y} (must repeat exactly)")
                continue
            bound = a["metrics"][metric]["bound"]
            if abs(y - x) > bound * x:
                out.append(f"{name} {metric}: {fmt(x)} vs {fmt(y)} differ beyond {bound}")
    return out


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=known, help="default: all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="time budget of the timed reps (at least 5 reps run)")
    ap.add_argument("--reps", type=int, default=0, help="fixed rep count instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1: also run the traced rep and the microbenches")
    ap.add_argument("--quick", action="store_true", help="self-test sizes; never compared")
    ap.add_argument("--trace-out", help="directory for Chrome-trace JSON of the traced reps")
    ap.add_argument("--out", help="write the JSON document here")
    ap.add_argument("--repeat-check", action="store_true",
                    help="run two sets and fail if they disagree beyond the bounds")
    args = ap.parse_args(argv)
    if args.quick and not args.reps:
        args.reps = 1
    names = args.workload or known

    if args.repeat_check:
        args.reps = args.reps or REPEAT_CHECK_REPS  # equal seeds per set
        first, second = run_set(names, args, spec), run_set(names, args, spec)
        document = {**second, "repeat_of": first}
        problems = repeat_disagreements(first, second)
        for p in problems:
            print(f"REPEAT-CHECK {p}")
    else:
        document = run_set(names, args, spec)
        problems = []
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(document, indent=1))

    docs = document["workloads"]
    metrics = {}
    for name, doc in docs.items():
        for metric, row in contract_metrics(doc, spec, args.trace).items():
            metrics[metric if len(docs) == 1 else f"{name}:{metric}"] = row
    failed = sum(d["failed"] for d in docs.values())
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
