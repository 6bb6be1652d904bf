"""The Markdown compare report.

What a PR reviewer reads: every group the candidate ran under another
config (``group config old → new``), every baseline value it did not
reproduce (``group seed metric old → new``), the balance and coverage
gates, and the per-phase attribution of any metric that rose.  The run-DB
rows the comparison read carry the raw values.
"""

from __future__ import annotations

from repro.obs.regress.attrib import format_attribution
from repro.obs.regress.compare import Baseline, CompareReport


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
    status = "ok" if report.passed else "**FAILED**"
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

    out.append("## Values")
    if report.configs:
        out.append(
            f"**{len(report.configs)} group(s) ran under another config than "
            "the baseline's** — gate FAILED:"
        )
        out.extend(f"- `{change}`" for change in report.configs)
    if not report.changes:
        out.append(
            f"All {report.pairs} values ({', '.join(report.metrics)}) equal "
            "the baseline."
        )
    else:
        out.append(
            f"**{len(report.changes)} of {report.pairs} values differ from the "
            "baseline** — gate FAILED:"
        )
        out.extend(f"- `{change}`" for change in report.changes)
    out.append("")

    out.append("## Balance gate")
    if not report.gate.violations:
        out.append("All candidate runs balanced.")
    else:
        out.append(
            f"**{len(report.gate.violations)} imbalance violation(s)** — "
            "gate FAILED:"
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
            "(a baseline group the candidate did not run, or a "
            "baseline value it has no counterpart for) — gate FAILED:"
        )
        out.extend(f"- `{hole}`" for hole in report.gate.uncompared)
        out.append("")

    if report.attribution:
        out.append("## Attribution")
        out.append(format_attribution(report.attribution))
        out.append("")
        for d in report.attribution:
            scope = "kernel" if d.kernel else "phase"
            out.append(
                f"- {scope} `{d.phase}`: {d.base:.4g} → {d.cand:.4g} "
                f"{d.metric} ({d.describe().split()[-2]})"
            )
        out.append("")

    return "\n".join(out).rstrip() + "\n"
