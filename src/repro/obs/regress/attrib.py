"""Per-phase attribution of wall-time / memory regressions.

When the compare engine flags a total (wall or peak bytes) as regressed,
this module answers *where*: it condenses each run's obs registry (the
span records + memory waterfall of :class:`~repro.obs.metrics
.MetricsRegistry`) into a small per-phase profile, aggregates profiles
across seeds, and diffs baseline vs candidate to name the offending
phase — "clustering +210% time, coarsening +96% bytes" instead of a bare
"wall regressed".

Phase naming: ledger-coupled spans carry a ``tracker_path`` like
``partition/coarsening/coarsening-level0/clustering``.  Depth-1 children
of the root form the non-overlapping *top-level* phases (compression,
coarsening, initial-partitioning, refinement-levelN); deeper spans are
*kernels* (clustering, contraction, fm-pass ...).  Per-level suffixes are
stripped (:func:`~repro.obs.tracer.normalize_phase`) so the same phase
aggregates across hierarchy levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.tracer import normalize_phase

#: profile sections: (key, how runs aggregate, human metric name)
PROFILE_KEYS = ("wall", "bytes", "kernel_wall", "kernel_bytes")


# --------------------------------------------------------------------- #
# profile extraction
# --------------------------------------------------------------------- #
def phase_profile(obs: dict) -> dict[str, dict[str, float]]:
    """Condense one run's obs registry into per-phase totals.

    Returns ``{"wall": {phase: seconds}, "bytes": {phase: peak_bytes},
    "kernel_wall": ..., "kernel_bytes": ...}``.  Wall times sum over the
    levels of a phase; byte entries keep the maximum per-phase ledger peak
    (the waterfall value that can move the run's global peak).
    """
    wall: dict[str, float] = {}
    kernel_wall: dict[str, float] = {}
    for span in obs.get("phases", ()):
        path = span.get("tracker_path")
        if not path:
            continue
        depth = path.count("/")  # root span "partition" has depth 0
        if depth == 0:
            continue
        name = normalize_phase(span["name"])
        target = wall if depth == 1 else kernel_wall
        target[name] = target.get(name, 0.0) + float(span["wall_seconds"])

    bytes_: dict[str, float] = {}
    kernel_bytes: dict[str, float] = {}
    for step in obs.get("waterfall", ()):
        depth = step["phase"].count("/")
        if depth == 0:
            continue
        name = normalize_phase(step["name"])
        target = bytes_ if depth == 1 else kernel_bytes
        target[name] = max(target.get(name, 0.0), float(step["peak_bytes"]))

    return {
        "wall": wall,
        "bytes": bytes_,
        "kernel_wall": kernel_wall,
        "kernel_bytes": kernel_bytes,
    }


def aggregate_profiles(
    profiles: Iterable[dict[str, dict[str, float]]],
) -> dict[str, dict[str, float]]:
    """Aggregate per-run profiles across seeds: mean for wall sections
    (timing noise averages out), max for byte sections (peaks gate)."""
    profiles = [p for p in profiles if p]
    if not profiles:
        return {k: {} for k in PROFILE_KEYS}
    out: dict[str, dict[str, float]] = {}
    for key in PROFILE_KEYS:
        agg: dict[str, list[float]] = {}
        for p in profiles:
            for phase, v in p.get(key, {}).items():
                agg.setdefault(phase, []).append(float(v))
        if key.endswith("bytes"):
            out[key] = {ph: max(vs) for ph, vs in agg.items()}
        else:
            out[key] = {ph: sum(vs) / len(vs) for ph, vs in agg.items()}
    return out


def profiles_from_records(records: Iterable[dict]) -> dict:
    """Aggregate profile over DB records (records without obs are skipped)."""
    return aggregate_profiles(
        phase_profile(rec["obs"]) for rec in records if rec.get("obs")
    )


# --------------------------------------------------------------------- #
# diffing
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PhaseDelta:
    """One phase's contribution to a regression (or improvement)."""

    phase: str
    metric: str  # "time" | "bytes"
    base: float
    cand: float
    kernel: bool = False

    @property
    def pct(self) -> float:
        if self.base <= 0:
            return float("inf")
        return (self.cand / self.base - 1.0) * 100.0

    def describe(self) -> str:
        unit = self.metric
        if self.pct == float("inf"):
            return f"{self.phase} (new) {unit}"
        return f"{self.phase} {self.pct:+.0f}% {unit}"


def diff_profiles(
    base: dict[str, dict[str, float]],
    cand: dict[str, dict[str, float]],
    *,
    section: str,
    min_pct: float = 5.0,
    min_share: float = 0.02,
    top: int = 4,
) -> list[PhaseDelta]:
    """Phases of one profile section whose value moved by >= ``min_pct``.

    ``min_share`` drops phases too small to matter (below that fraction of
    the section's candidate total) so 1-ms noise phases never headline a
    report.  Results sort by absolute phase delta, largest offender first.
    """
    metric = "bytes" if section.endswith("bytes") else "time"
    kernel = section.startswith("kernel_")
    b = base.get(section, {})
    c = cand.get(section, {})
    total = sum(c.values()) or sum(b.values())
    deltas: list[PhaseDelta] = []
    for phase in sorted(set(b) | set(c)):
        bv, cv = b.get(phase, 0.0), c.get(phase, 0.0)
        if total > 0 and max(bv, cv) / total < min_share:
            continue
        d = PhaseDelta(phase, metric, bv, cv, kernel=kernel)
        if d.pct == float("inf") or abs(d.pct) >= min_pct:
            deltas.append(d)
    deltas.sort(
        key=lambda d: abs(d.cand - d.base)
        if d.base > 0
        else float("inf"),
        reverse=True,
    )
    return deltas[:top]


def attribute(
    base_records: Iterable[dict],
    cand_records: Iterable[dict],
    *,
    regressed_metrics: Iterable[str] = ("wall_seconds", "peak_bytes"),
    base_profile: dict | None = None,
    min_pct: float = 5.0,
    top: int = 4,
) -> list[PhaseDelta]:
    """Name the phases behind a flagged regression.

    ``base_records``/``cand_records`` are run-DB records; when the baseline
    was captured with a condensed profile (no raw obs), pass it as
    ``base_profile``.  Only the sections matching a regressed total are
    diffed: ``wall_seconds`` -> time sections, ``peak_bytes`` -> byte
    sections.  Top-level phases headline; kernels refine them.
    """
    bp = base_profile if base_profile is not None else profiles_from_records(
        base_records
    )
    cp = profiles_from_records(cand_records)
    regressed = set(regressed_metrics)
    sections: list[str] = []
    if "wall_seconds" in regressed:
        sections += ["wall", "kernel_wall"]
    if "peak_bytes" in regressed:
        sections += ["bytes", "kernel_bytes"]
    out: list[PhaseDelta] = []
    for section in sections:
        out.extend(
            diff_profiles(bp, cp, section=section, min_pct=min_pct, top=top)
        )
    return out


def format_attribution(deltas: Iterable[PhaseDelta], *, top: int = 3) -> str:
    """The one-line headline: worst regressing phases, time before bytes."""
    worsened = [d for d in deltas if d.cand > d.base and not d.kernel]
    if not worsened:
        worsened = [d for d in deltas if d.cand > d.base]
    worsened.sort(key=lambda d: (d.metric != "time", -(d.cand - d.base)))
    if not worsened:
        return "no phase moved beyond the noise floor"
    return ", ".join(d.describe() for d in worsened[:top])
