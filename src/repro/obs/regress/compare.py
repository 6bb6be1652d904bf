"""Baseline capture and exact baseline-vs-candidate comparison.

A *baseline* is a named snapshot of a run matrix: per (algorithm,
instance, k) the per-seed values of every gated metric, the digest of the
config the rows ran under (``None`` for a dist system, which is no
preset) and a condensed per-phase profile for attribution.  Its ``env``
is the records' own provenance, never the capturing process's.

Every gated metric is deterministic per seed (a seeded partition, a
ledger peak, a byte count), so a *comparison* is exact and paired: for
every baseline group, seed and gated metric, the candidate's value either
equals the baseline's or is reported as a :class:`Change` (``group seed
metric old → new``).  A group whose candidate rows ran under another
config is named first, as a :class:`ConfigChange` (``group config old →
new``).  Any change fails the gate, an improvement included -- a baseline
that no longer reproduces is stale, and is re-recorded on purpose.

Seconds are recorded in the rows but judged by the ladder
(``BENCHMARK.json``), never here.  Two more rules fail the gate: a
candidate run violating its balance constraint, and a hole in the
comparison -- a baseline group the candidate did not run, or a baseline
(seed, metric) value it has no counterpart for -- because a gate that
compared nothing has not passed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.regress.attrib import aggregate_profiles, attribute, phase_profile
from repro.obs.regress.rundb import KINDS

BASELINE_SCHEMA = 2


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
    # key -> {"algorithm", "instance", "k", "config", "seeds", "metrics",
    #          "balanced", "profile"}
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


def _config_digest(rec: dict) -> str | None:
    return (rec.get("config") or {}).get("digest")


def _one(values: list, what: str):
    """The one value ``values`` hold, or a ``ValueError`` naming them all."""
    distinct = sorted(set(values), key=repr)
    if len(distinct) > 1:
        named = ", ".join(map(repr, distinct))
        raise ValueError(f"the records disagree on {what}: {named}")
    return distinct[0]


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

    ``env`` defaults to the records' own: a ``ValueError`` if they disagree
    on ``git_sha`` or ``git_dirty``, or if a group's rows ran under more
    than one config.
    ``metrics`` defaults to what the kind gates plus ``imbalance`` (kept
    for the record; the balance gate reads the candidate's flag instead).  The raw obs
    registries are condensed to per-phase profiles at capture time, so a
    committed baseline stays a few KB however long the runs traced.
    ``service``-kind records carry no ``balanced`` flag; a metric some
    record of a group lacks is absent from that group, so every metric
    vector lines up with the group's ``seeds``."""
    if metrics is None:
        metrics = (*KINDS[kind].gated, "imbalance")
    records = [rec for rec in records if rec.get("kind") == kind]
    if env is None:
        envs = [rec.get("env") or {} for rec in records]
        for stamp in ("git_sha", "git_dirty"):
            _one([e.get(stamp) for e in envs], stamp)
        env = envs[0] if envs else {}
    base = Baseline(
        name=name,
        env=env,
        created_unix=time.time() if timestamp is None else timestamp,
    )
    by_key: dict[str, list[dict]] = {}
    for rec in records:
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
            "config": _one([_config_digest(r) for r in recs], f"the config of {key}"),
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
@dataclass(frozen=True)
class Change:
    """One baseline value the candidate did not reproduce."""

    group: str
    seed: int
    metric: str
    old: float
    new: float

    def __str__(self) -> str:
        old, new = _exact(self.old), _exact(self.new)
        return f"{self.group} seed {self.seed} {self.metric} {old} → {new}"


@dataclass(frozen=True)
class ConfigChange:
    """A group whose candidate rows ran under another config than the
    baseline's: its value changes are that config's."""

    group: str
    old: str | None
    new: str | None

    def __str__(self) -> str:
        return f"{self.group} config {self.old} → {self.new}"


def _exact(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


@dataclass
class GateResult:
    """The gate beside the values: any entry fails.

    ``violations`` are candidate runs breaking their balance constraint;
    ``uncompared`` names what the baseline holds and the comparison did not
    reach -- ``"<group>"`` for a baseline group with no candidate rows,
    ``"<metric>@<group> seed <s>"`` for a baseline value with no candidate
    counterpart (``"<metric>@<group>"`` if the baseline lacks the metric)."""

    violations: list = field(default_factory=list)
    uncompared: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.uncompared


@dataclass
class CompareReport:
    baseline_name: str
    metrics: tuple[str, ...] = ()
    pairs: int = 0  # (group, seed, metric) values compared
    configs: list[ConfigChange] = field(default_factory=list)
    changes: list[Change] = field(default_factory=list)
    gate: GateResult = field(default_factory=GateResult)
    keys_compared: list[str] = field(default_factory=list)
    attribution: list = field(default_factory=list)  # PhaseDelta list

    @property
    def passed(self) -> bool:
        return not self.configs and not self.changes and self.gate.passed

    @property
    def risen_metrics(self) -> list[str]:
        """Gated metrics some pair of which rose: what attribution explains."""
        risen = {c.metric for c in self.changes if c.new > c.old}
        return [m for m in self.metrics if m in risen]


def compare(
    baseline: Baseline,
    candidate_records: list[dict],
    *,
    kind: str = "partition",
) -> CompareReport:
    """Compare the candidate run-DB records of ``kind`` against a baseline,
    value by value, on every metric the kind gates."""
    metrics = KINDS[kind].gated
    report = CompareReport(baseline_name=baseline.name, metrics=metrics)

    cand_by_key: dict[str, list[dict]] = {}
    for rec in candidate_records:
        if rec.get("kind") == kind:
            cand_by_key.setdefault(group_key(rec["run"]), []).append(rec)

    shared = sorted(set(baseline.groups) & set(cand_by_key))
    report.keys_compared = shared
    report.gate.uncompared.extend(sorted(set(baseline.groups) - set(cand_by_key)))

    # imbalance: any unbalanced candidate run fails, full stop
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

    for key in shared:
        group = baseline.groups[key]
        if "config" in group:  # absent: recorded before configs were stored
            old = group["config"]
            digests = {_config_digest(r) for r in cand_by_key[key]} - {old}
            report.configs.extend(
                ConfigChange(key, old, new) for new in sorted(digests, key=repr)
            )
        cand = {r["run"]["seed"]: r["run"] for r in cand_by_key[key]}
        for metric in metrics:
            olds = group["metrics"].get(metric)
            if olds is None:
                report.gate.uncompared.append(f"{metric}@{key}")
                continue
            for seed, old in zip(group["seeds"], olds, strict=True):
                new = cand.get(seed, {}).get(metric)
                if new is None:
                    report.gate.uncompared.append(f"{metric}@{key} seed {seed}")
                    continue
                report.pairs += 1
                if float(new) != float(old):
                    report.changes.append(
                        Change(key, seed, metric, float(old), float(new))
                    )

    risen = report.risen_metrics
    if risen:
        base_profile = aggregate_profiles(
            baseline.groups[key].get("profile", {}) for key in shared
        )
        cand_recs = [r for key in shared for r in cand_by_key[key]]
        report.attribution = attribute(
            [],
            cand_recs,
            regressed_metrics=risen,
            base_profile=base_profile,
        )
    return report
