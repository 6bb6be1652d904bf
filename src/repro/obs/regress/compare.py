"""Baseline capture and statistical baseline-vs-candidate comparison.

A *baseline* is a named snapshot of a run matrix: per (algorithm,
instance, k) the per-seed values of every gated metric, plus a condensed
per-phase profile for attribution.  A *comparison* pairs candidate
records against the baseline per (algorithm, instance, k), forms the
seed-mean ratio candidate/baseline for each pair, and classifies each
metric from a bootstrap confidence interval on the geometric mean of
those ratios (the paper's cross-instance aggregate, Section VI).  Seeded
runs are deterministic, so the comparison is *paired*: only seeds both
sides ran are compared, and the bootstrap draws one set of seed indices
per pair and applies it to both sides -- an unchanged tree reads exactly
1.000 [1.000, 1.000].  Verdicts:

* ``regressed``  — the CI lies entirely above ``1 + neutral_band``,
* ``improved``   — the CI lies entirely below ``1 - neutral_band``,
* ``neutral``    — otherwise (the CI straddles the band; CI noise never
  fails a gate).

All gated metrics are lower-is-better and deterministic per seed; seconds
are recorded in the rows but judged by the ladder (``BENCHMARK.json``),
never here -- a metric without a declared neutral band cannot be
classified at all.  Three hard rules sit outside the statistics: a
candidate run violating its balance constraint fails the gate outright;
so does a hole in the comparison -- a baseline group the candidate did
not run, or a requested metric with no paired seed in a compared group --
because a gate that compared nothing has not passed; and a pair whose
baseline value is 0 while the candidate is positive (a vanished perfect
cut) is a regression no geometric mean can express, so it forces the
metric to ``regressed``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.regress.attrib import aggregate_profiles, attribute, phase_profile
from repro.obs.regress.rundb import KINDS

BASELINE_SCHEMA = 2

#: half-width of the per-metric neutral band around ratio 1.0, read off the
#: kinds table: its keys are the complete set of metrics the observatory
#: may classify
DEFAULT_NEUTRAL_BANDS = {
    metric: band
    for kind in KINDS.values()
    for metric, band in kind.gated.items()
}


@dataclass(frozen=True)
class CompareThresholds:
    """Knobs of the classifier; defaults match the CI perf gate."""

    neutral_bands: dict = field(
        default_factory=lambda: dict(DEFAULT_NEUTRAL_BANDS)
    )
    confidence: float = 0.95
    bootstrap_samples: int = 1000
    rng_seed: int = 0

    def band(self, metric: str) -> float:
        try:
            return self.neutral_bands[metric]
        except KeyError:
            raise ValueError(
                f"metric {metric!r} has no declared neutral band "
                f"(declared: {', '.join(sorted(self.neutral_bands))})"
            ) from None


# --------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------- #
def group_key(run: dict) -> str:
    return f"{run['algorithm']}|{run['instance']}|{run['k']}"


@dataclass
class Baseline:
    """Named snapshot of a run matrix, ready to be committed to the repo."""

    name: str
    env: dict = field(default_factory=dict)
    created_unix: float | None = None
    # key -> {"algorithm", "instance", "k", "seeds", "metrics", "balanced",
    #          "profile"}
    groups: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": BASELINE_SCHEMA,
            "kind": "baseline",
            "name": self.name,
            "created_unix": self.created_unix,
            "env": self.env,
            "groups": self.groups,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Baseline":
        version = d.get("schema", 0)
        if version != BASELINE_SCHEMA:
            age = "newer" if version > BASELINE_SCHEMA else "older"
            raise ValueError(
                f"baseline has schema {version}, {age} than supported "
                f"{BASELINE_SCHEMA}; read it with the code that wrote it"
            )
        return cls(
            name=d.get("name", "unnamed"),
            env=d.get("env", {}),
            created_unix=d.get("created_unix"),
            groups=d.get("groups", {}),
        )

    def save(self, path: str | Path) -> None:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=False)
            f.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def capture_baseline(
    records: list[dict],
    name: str,
    *,
    env: dict | None = None,
    kind: str = "partition",
    metrics: tuple[str, ...] | None = None,
    timestamp: float | None = None,
) -> Baseline:
    """Snapshot the run-DB records of ``kind`` into a named baseline.

    ``metrics`` defaults to what the kind gates plus ``imbalance`` (kept
    for the record; the hard gate never ratio-classifies it).  The raw obs
    registries are condensed to per-phase profiles at capture time, so a
    committed baseline stays a few KB however long the runs traced.
    ``service``-kind records carry no ``balanced`` flag; a metric some
    record of a group lacks is absent from that group, so every metric
    vector lines up with the group's ``seeds``."""
    if metrics is None:
        metrics = (*KINDS[kind].gated, "imbalance")
    base = Baseline(
        name=name,
        env=env if env is not None else {},
        created_unix=time.time() if timestamp is None else timestamp,
    )
    by_key: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("kind") == kind:
            by_key.setdefault(group_key(rec["run"]), []).append(rec)
    for key, recs in sorted(by_key.items()):
        recs = sorted(recs, key=lambda r: r["run"]["seed"])
        run0 = recs[0]["run"]
        group_metrics = {}
        for m in metrics:
            if all(m in r["run"] for r in recs):
                group_metrics[m] = [float(r["run"][m]) for r in recs]
        base.groups[key] = {
            "algorithm": run0["algorithm"],
            "instance": run0["instance"],
            "k": run0["k"],
            "seeds": [r["run"]["seed"] for r in recs],
            "metrics": group_metrics,
            "balanced": [
                bool(r["run"].get("balanced", True)) for r in recs
            ],
            "profile": aggregate_profiles(
                phase_profile(r["obs"]) for r in recs if r.get("obs")
            ),
        }
    return base


# --------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------- #
@dataclass
class MetricVerdict:
    """One metric's classification across all compared (instance, k)."""

    metric: str
    ratio: float  # geometric mean of per-key seed-mean ratios
    ci_low: float
    ci_high: float
    classification: str  # improved | neutral | regressed
    n_keys: int
    neutral_band: float
    per_key: dict = field(default_factory=dict)
    dropped_pairs: int = 0  # zero/zero or positive/zero pairs left out
    dropped_seeds: int = 0  # seeds only one side ran, left out of the pairing
    infinite_pairs: int = 0  # baseline 0 -> candidate > 0 (forces regressed)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "ratio": self.ratio,
            "ci": [self.ci_low, self.ci_high],
            "classification": self.classification,
            "n_keys": self.n_keys,
            "neutral_band": self.neutral_band,
            "per_key": self.per_key,
            "dropped_pairs": self.dropped_pairs,
            "dropped_seeds": self.dropped_seeds,
            "infinite_pairs": self.infinite_pairs,
        }


@dataclass
class GateResult:
    """The hard gate: no statistics, any entry fails.

    ``violations`` are candidate runs breaking their balance constraint;
    ``uncompared`` names what the baseline holds and the comparison did not
    reach -- ``"<group>"`` for a baseline group with no candidate rows,
    ``"<metric>@<group>"`` for a requested metric with no paired seed in a
    compared group."""

    violations: list = field(default_factory=list)
    uncompared: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.uncompared

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": self.violations,
            "uncompared": self.uncompared,
        }


@dataclass
class CompareReport:
    baseline_name: str
    verdicts: list[MetricVerdict] = field(default_factory=list)
    gate: GateResult = field(default_factory=GateResult)
    keys_compared: list[str] = field(default_factory=list)
    attribution: list = field(default_factory=list)  # PhaseDelta list

    @property
    def regressed_metrics(self) -> list[str]:
        return [
            v.metric for v in self.verdicts if v.classification == "regressed"
        ]

    @property
    def regressed(self) -> bool:
        return bool(self.regressed_metrics) or not self.gate.passed

    def verdict_for(self, metric: str) -> MetricVerdict | None:
        for v in self.verdicts:
            if v.metric == metric:
                return v
        return None


def _pair_ratio(base_mean: float, cand_mean: float) -> float | None:
    """Ratio of seed means; None = drop, inf = unexpressible regression."""
    if base_mean > 0 and cand_mean > 0:
        return cand_mean / base_mean
    if base_mean == 0 and cand_mean == 0:
        return 1.0  # both perfect: identical, counts as ratio 1
    if base_mean == 0 and cand_mean > 0:
        return float("inf")
    return None  # candidate reached 0 from positive: drop from geomean


def _paired_values(
    group: dict, cand_recs: list[dict], metric: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Baseline and candidate values of ``metric`` over the seeds both
    sides ran (ascending seed), plus how many seeds only one side has."""
    bvals = group["metrics"].get(metric)
    base = dict(zip(group["seeds"], bvals, strict=True)) if bvals else {}
    cand = {
        r["run"]["seed"]: float(r["run"][metric])
        for r in cand_recs
        if metric in r["run"]
    }
    seeds = sorted(base.keys() & cand.keys())
    return (
        np.array([base[s] for s in seeds], dtype=float),
        np.array([cand[s] for s in seeds], dtype=float),
        len(base.keys() ^ cand.keys()),
    )


def _bootstrap_ci(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    *,
    n_samples: int,
    confidence: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Percentile bootstrap CI of the geometric-mean ratio.

    Resamples both levels of the design: (instance, k) pairs with
    replacement, and seeds within each sampled pair -- one draw of seed
    indices applied to baseline and candidate alike, so only a difference
    *between* the sides widens the interval, never the seed-to-seed
    spread they share."""
    stats = np.empty(n_samples)
    n = len(pairs)
    for s in range(n_samples):
        idxs = rng.integers(0, n, n)
        logs = []
        for i in idxs:
            b, c = pairs[i]
            js = rng.integers(0, len(b), len(b))
            r = _pair_ratio(float(b[js].mean()), float(c[js].mean()))
            if r is not None and np.isfinite(r) and r > 0:
                logs.append(np.log(r))
        stats[s] = float(np.exp(np.mean(logs))) if logs else 1.0
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(stats, alpha)),
        float(np.quantile(stats, 1.0 - alpha)),
    )


def _classify(
    ratio: float,
    ci_low: float,
    ci_high: float,
    band: float,
    infinite_pairs: int,
) -> str:
    if infinite_pairs:
        return "regressed"
    if ci_low > 1.0 + band:
        return "regressed"
    if ci_high < 1.0 - band:
        return "improved"
    return "neutral"


def compare(
    baseline: Baseline,
    candidate_records: list[dict],
    *,
    kind: str = "partition",
    metrics: tuple[str, ...] | None = None,
    thresholds: CompareThresholds | None = None,
    attribute_regressions: bool = True,
) -> CompareReport:
    """Classify the candidate run-DB records of ``kind`` against a
    baseline, on ``metrics`` (default: everything the kind gates)."""
    if metrics is None:
        metrics = tuple(KINDS[kind].gated)
    thresholds = thresholds or CompareThresholds()
    rng = np.random.default_rng(thresholds.rng_seed)
    report = CompareReport(baseline_name=baseline.name)

    cand_by_key: dict[str, list[dict]] = {}
    for rec in candidate_records:
        if rec.get("kind") == kind:
            cand_by_key.setdefault(group_key(rec["run"]), []).append(rec)

    shared = sorted(set(baseline.groups) & set(cand_by_key))
    report.keys_compared = shared
    report.gate.uncompared.extend(sorted(set(baseline.groups) - set(cand_by_key)))

    # imbalance hard gate: any unbalanced candidate run fails, full stop
    for key in sorted(cand_by_key):
        for rec in cand_by_key[key]:
            run = rec["run"]
            if not run.get("balanced", True):
                report.gate.violations.append(
                    {
                        "key": key,
                        "seed": run.get("seed"),
                        "imbalance": run.get("imbalance"),
                    }
                )

    for metric in metrics:
        band = thresholds.band(metric)
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        per_key: dict[str, float] = {}
        dropped = infinite = dropped_seeds = 0
        point_ratios: list[float] = []
        for key in shared:
            bvals, cvals, unpaired = _paired_values(
                baseline.groups[key], cand_by_key[key], metric
            )
            if not len(bvals):
                report.gate.uncompared.append(f"{metric}@{key}")
                continue
            dropped_seeds += unpaired
            r = _pair_ratio(float(bvals.mean()), float(cvals.mean()))
            if r is None:
                dropped += 1
                per_key[key] = 0.0
                continue
            if r == float("inf"):
                infinite += 1
                per_key[key] = float("inf")
                continue
            per_key[key] = r
            point_ratios.append(r)
            pairs.append((bvals, cvals))
        if not per_key:
            continue
        if pairs:
            ratio = float(np.exp(np.mean(np.log(point_ratios))))
            ci_low, ci_high = _bootstrap_ci(
                pairs,
                n_samples=thresholds.bootstrap_samples,
                confidence=thresholds.confidence,
                rng=rng,
            )
        else:
            ratio, ci_low, ci_high = float("inf"), float("inf"), float("inf")
        report.verdicts.append(
            MetricVerdict(
                metric=metric,
                ratio=ratio,
                ci_low=ci_low,
                ci_high=ci_high,
                classification=_classify(ratio, ci_low, ci_high, band, infinite),
                n_keys=len(per_key),
                neutral_band=band,
                per_key=per_key,
                dropped_pairs=dropped,
                dropped_seeds=dropped_seeds,
                infinite_pairs=infinite,
            )
        )

    regressed = report.regressed_metrics
    if attribute_regressions and regressed:
        base_profile = aggregate_profiles(
            baseline.groups[key].get("profile", {}) for key in shared
        )
        cand_recs = [r for key in shared for r in cand_by_key[key]]
        report.attribution = attribute(
            [],
            cand_recs,
            regressed_metrics=regressed,
            base_profile=base_profile,
        )
    return report
