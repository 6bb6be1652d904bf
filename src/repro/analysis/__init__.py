"""``repro lint``: AST-based discipline checks for this codebase.

The repo encodes three non-negotiable disciplines that ordinary linters
cannot see -- shared-array accesses must match the declarations the
dynamic :class:`~repro.verify.conflicts.ConflictDetector` enforces, every
input-sized allocation must reach the :class:`~repro.memory.tracker
.MemoryTracker` ledger, and integer widths must never silently narrow at
tera-scale ID ranges.  This package walks the source ASTs and checks them
at rest, complementing the runtime verify layer (which only sees executed
paths).  See DESIGN.md section 9.

Passes (`repro lint --passes` selects a subset), one per discipline:

* ``parallel-access``   PA001-PA005  declarations vs kernel ASTs
* ``untracked-alloc``   UA001        allocations outside the ledger
* ``int-width``         IW001-IW002  narrowing stores / casts
* ``phase-discipline``  PH001-PH003  phase vocabulary + span hygiene

The ``int-width`` dtype lattice runs on the CFG + fixpoint machinery in
:mod:`repro.analysis.dataflow`.

The gate (``repro lint --gate``) fails only on findings that are neither
inline-suppressed (``# repro-lint: ignore[...] -- reason``) nor covered by
the committed baseline (:mod:`repro.analysis.baseline`).  Suppressions
without a reason still work but are listed as legacy bare ignores;
suppressions naming no known pass or code are listed as unknown.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import (
    allocations,
    baseline as baseline_mod,
    intwidth,
    parallel_access,
    phases,
)
from repro.analysis.core import (
    PASS_IDS,
    Finding,
    LintReport,
    fingerprint,
    load_module,
)

__all__ = [
    "PASS_IDS",
    "Finding",
    "LintReport",
    "fingerprint",
    "lint_paths",
    "render_text",
]

_PASSES = {
    parallel_access.PASS_ID: parallel_access.run,
    allocations.PASS_ID: allocations.run,
    intwidth.PASS_ID: intwidth.run,
    phases.PASS_ID: phases.run,
}


def iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    # de-dup while keeping a stable order
    seen: set[Path] = set()
    out = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            out.append(f)
    return out


def lint_paths(
    paths: list[Path],
    *,
    baseline: Path | None = None,
    passes: list[str] | None = None,
    repo_root: Path | None = None,
) -> LintReport:
    """Run the selected passes over ``paths`` and apply the baseline."""
    selected = list(passes) if passes else list(PASS_IDS)
    unknown = [p for p in selected if p not in _PASSES]
    if unknown:
        raise KeyError(f"unknown passes {unknown}; know {sorted(_PASSES)}")

    findings: list[Finding] = []
    suppressed = 0
    bare: list[str] = []
    unknown: list[str] = []
    files = iter_python_files(paths)
    for path in files:
        mod = load_module(path, repo_root)
        if mod.skip_file:
            continue
        bare.extend(f"{mod.rel}:{line}" for line in mod.bare_ignores())
        unknown.extend(
            f"{mod.rel}:{line} [{', '.join(ids)}]"
            for line, ids in mod.unknown_ignores()
        )
        for pid in selected:
            for f in _PASSES[pid](mod):
                if mod.suppressed(f):
                    suppressed += 1
                else:
                    findings.append(f)
    findings.sort(key=lambda f: (f.file, f.line, f.code))

    accepted = baseline_mod.load(baseline) if baseline else {}
    report = baseline_mod.apply(findings, accepted)
    report.suppressed = suppressed
    report.files_checked = len(files)
    report.bare_suppressions = bare
    report.unknown_suppressions = unknown
    return report


def render_text(report: LintReport, *, gate: bool = False) -> str:
    """Human-readable report; new findings first, then the tallies."""
    lines: list[str] = []
    shown = report.new if gate else report.findings
    for f in shown:
        lines.append(f.render())
    for items, one, many, hint in (
        (
            report.stale_baseline,
            "stale baseline entry",
            "stale baseline entries",
            "finding fixed but still accepted -- run "
            "`repro lint --update-baseline`",
        ),
        (
            report.bare_suppressions,
            "legacy bare ignore",
            "legacy bare ignores",
            "add `-- <reason>` to each `# repro-lint: ignore[...]`",
        ),
        (
            report.unknown_suppressions,
            "unknown ignore",
            "unknown ignores",
            "ids naming no pass or code suppress nothing",
        ),
    ):
        if items:
            noun = one if len(items) == 1 else many
            lines.extend(["", f"{len(items)} {noun} ({hint}):"])
            lines.extend(f"  {item}" for item in items)
    lines.append("")
    by_pass = ", ".join(f"{k}={v}" for k, v in report.by_pass().items())
    lines.append(
        f"checked {report.files_checked} files: "
        f"{len(report.findings)} findings ({by_pass}), "
        f"{report.baselined} baselined, {report.suppressed} suppressed, "
        f"{len(report.new)} new"
    )
    return "\n".join(lines)


def write_json_report(report: LintReport, path: Path) -> None:
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
