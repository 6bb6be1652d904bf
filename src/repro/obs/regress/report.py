"""Human (Markdown) and machine (``BENCH_trajectory.json``) reporting.

The Markdown report is what a PR reviewer reads: one verdict table, the
hard gate (balance and coverage), and the per-phase attribution of
anything regressed.  The trajectory JSON is the same content
machine-readable, uploaded as a CI artifact so the perf history of a
branch can be assembled without parsing logs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.regress.attrib import format_attribution
from repro.obs.regress.compare import Baseline, CompareReport
from repro.obs.regress.rundb import RUNDB_SCHEMA

_ARROWS = {"improved": "▼", "neutral": "·", "regressed": "▲"}


def _fmt_ratio(v: float) -> str:
    if v == float("inf"):
        return "inf"
    return f"{v:.3f}"


def render_markdown(
    report: CompareReport,
    *,
    baseline: Baseline | None = None,
    candidate_label: str | None = None,
) -> str:
    """The full compare report as GitHub-flavored Markdown."""
    out: list[str] = []
    title = f"# Bench compare — candidate vs baseline `{report.baseline_name}`"
    out.append(title)
    out.append("")
    status = "**REGRESSED**" if report.regressed else "ok"
    out.append(
        f"Overall: {status} · {len(report.keys_compared)} (algorithm, "
        f"instance, k) groups compared"
        + (f" · candidate label `{candidate_label}`" if candidate_label else "")
    )
    if baseline is not None and baseline.env:
        sha = baseline.env.get("git_sha")
        out.append(
            f"Baseline captured at `{(sha or 'unknown')[:12]}` "
            f"(python {baseline.env.get('python')}, "
            f"numpy {baseline.env.get('numpy')})"
        )
    out.append("")

    out.append("| metric | geomean ratio | 95% CI | band | verdict |")
    out.append("|---|---|---|---|---|")
    for v in report.verdicts:
        extras = []
        if v.dropped_pairs:
            extras.append(f"{v.dropped_pairs} pair(s) hit zero, excluded")
        if v.dropped_seeds:
            extras.append(f"{v.dropped_seeds} seed(s) unpaired, excluded")
        if v.infinite_pairs:
            extras.append(f"{v.infinite_pairs} pair(s) lost a zero baseline")
        note = f" ({'; '.join(extras)})" if extras else ""
        out.append(
            f"| {v.metric} | {_fmt_ratio(v.ratio)} "
            f"| [{_fmt_ratio(v.ci_low)}, {_fmt_ratio(v.ci_high)}] "
            f"| ±{v.neutral_band:.0%} "
            f"| {_ARROWS[v.classification]} {v.classification}{note} |"
        )
    out.append("")

    out.append("## Balance gate")
    if not report.gate.violations:
        out.append("All candidate runs balanced — hard gate passed.")
    else:
        out.append(
            f"**{len(report.gate.violations)} imbalance violation(s)** — "
            "hard gate FAILED:"
        )
        for viol in report.gate.violations:
            out.append(
                f"- `{viol['key']}` seed {viol['seed']}: "
                f"imbalance {viol['imbalance']:.4f}"
            )
    out.append("")

    if report.gate.uncompared:
        out.append("## Coverage")
        out.append(
            f"**{len(report.gate.uncompared)} hole(s) in the comparison** "
            "(a baseline group the candidate did not run, or "
            "`metric@group` with no paired seed) — hard gate FAILED:"
        )
        out.extend(f"- `{hole}`" for hole in report.gate.uncompared)
        out.append("")

    if report.regressed_metrics:
        out.append("## Attribution")
        if report.attribution:
            out.append(format_attribution(report.attribution))
            out.append("")
            for d in report.attribution:
                scope = "kernel" if d.kernel else "phase"
                out.append(
                    f"- {scope} `{d.phase}`: {d.base:.4g} → {d.cand:.4g} "
                    f"{d.metric} ({d.describe().split()[-2]})"
                )
        else:
            out.append(
                "No per-phase obs data recorded — rerun with observability "
                "enabled to attribute the regression."
            )
        out.append("")

    return "\n".join(out).rstrip() + "\n"


def trajectory_dict(
    report: CompareReport,
    *,
    candidate_records: list[dict],
    baseline: Baseline | None = None,
    candidate_label: str | None = None,
    timestamp: float | None = None,
) -> dict:
    """The machine-readable companion of the Markdown report.

    Candidate records ride along without their obs payloads (the
    attribution already condensed what matters) so the artifact stays
    small."""
    slim = []
    for rec in candidate_records:
        r = {k: v for k, v in rec.items() if k != "obs"}
        slim.append(r)
    return {
        "schema": RUNDB_SCHEMA,
        "kind": "trajectory",
        "generated_unix": time.time() if timestamp is None else timestamp,
        "baseline": report.baseline_name,
        "baseline_env": baseline.env if baseline else {},
        "candidate_label": candidate_label,
        "regressed": report.regressed,
        "verdicts": [v.to_dict() for v in report.verdicts],
        "gate": report.gate.to_dict(),
        "attribution": [
            {
                "phase": d.phase,
                "metric": d.metric,
                "base": d.base,
                "cand": d.cand,
                "kernel": d.kernel,
                "description": d.describe(),
            }
            for d in report.attribution
        ],
        "keys_compared": report.keys_compared,
        "records": slim,
    }


def write_trajectory(path: str | Path, trajectory: dict) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")


__all__ = [
    "render_markdown",
    "trajectory_dict",
    "write_trajectory",
]
