"""Append-only run database for the regression observatory.

Every benchmark run — a full partitioner run out of the bench harness or a
microbenchmark record like the decode hot path — is persisted as one JSON
line in a ``.jsonl`` file.  Records are versioned (``RUNDB_SCHEMA``) and
stamped with enough provenance to make any two records comparable later:

* the environment: git SHA (+dirty flag), python / numpy versions, platform,
* the configuration: preset name plus the seed-independent
  :func:`~repro.core.config.config_digest`,
* the measurement itself (``run`` section), and
* the per-phase observability snapshot (``obs``) when the run was traced.

The store is append-only by construction: :meth:`RunDB.append` opens the
file in ``"a"`` mode and never rewrites history.  Loading accepts only
records of the current schema (the committed rows were restamped once when
the migration chain was retired) and fills their optional fields.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Iterable
from pathlib import Path

RUNDB_SCHEMA = 4

#: metrics of a partition-kind record, in report order
PARTITION_METRICS = (
    "cut",
    "wall_seconds",
    "peak_bytes",
    "imbalance",
)

#: gated metric of a service-kind record (lower-is-better): the warm-start
#: quality overhead (warm cut / from-scratch cut).  The latency quantiles
#: and ``warm_over_full`` are recorded beside it but are wall-clock: CI
#: bounds them by absolute SLOs, the ladder's ``serve-churn`` judges them
SERVICE_METRICS = ("cut_overhead",)

#: gated metrics of a dist-kind record (all lower-is-better): quality, the
#: worst single-rank ledger peak, the cluster memory ratio (max rank peak /
#: mean rank peak — 1.0 is perfectly even, the paper's tera-scale runs stay
#: under ~2), and the raw / compressed communication volumes
DIST_METRICS = (
    "cut",
    "max_rank_peak_bytes",
    "memory_ratio",
    "comm_raw_bytes",
    "comm_varint_bytes",
)


# --------------------------------------------------------------------- #
# provenance stamps
# --------------------------------------------------------------------- #
def environment_stamp() -> dict:
    """Best-effort provenance of the machine/tree producing a record."""
    git_sha, git_dirty = _git_state()
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    return {
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _git_state() -> tuple[str | None, bool | None]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return sha.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def config_stamp(cfg) -> dict:
    """Name + seed-independent digest of a :class:`PartitionerConfig`."""
    from repro.core.config import config_digest

    return {"name": cfg.name, "digest": config_digest(cfg)}


# --------------------------------------------------------------------- #
# record builders
# --------------------------------------------------------------------- #
def make_record(
    run_record,
    *,
    bench: str,
    label: str | None = None,
    config=None,
    env: dict | None = None,
    timestamp: float | None = None,
) -> dict:
    """Stamp a harness :class:`~repro.bench.harness.RunRecord` into a DB
    record.  ``run_record`` is duck-typed (anything with the RunRecord
    fields works), so this module never imports the bench harness."""
    extra = dict(getattr(run_record, "extra", None) or {})
    obs = extra.pop("obs", None)
    rec = {
        "schema": RUNDB_SCHEMA,
        "kind": "partition",
        "bench": bench,
        "label": label,
        "recorded_unix": time.time() if timestamp is None else timestamp,
        "env": env if env is not None else environment_stamp(),
        "config": config_stamp(config) if config is not None else None,
        "run": {
            "algorithm": run_record.algorithm,
            "instance": run_record.instance,
            "k": int(run_record.k),
            "seed": int(run_record.seed),
            "cut": int(run_record.cut),
            "balanced": bool(run_record.balanced),
            "imbalance": float(run_record.imbalance),
            "wall_seconds": float(run_record.wall_seconds),
            "peak_bytes": int(run_record.peak_bytes),
            "extra": extra,
        },
        "obs": obs,
    }
    return rec


def make_service_record(
    bench: str,
    *,
    algorithm: str,
    instance: str,
    k: int,
    seed: int,
    metrics: dict,
    label: str | None = None,
    config=None,
    obs: dict | None = None,
    env: dict | None = None,
    timestamp: float | None = None,
) -> dict:
    """Stamp one replayed-trace service benchmark into a DB record.

    Service records carry the same (algorithm, instance, k, seed) identity
    as partition records so the baseline/compare machinery groups them
    identically — but the ``run`` payload is the flat service metric dict
    (latency quantiles, hit rates, warm-vs-full ratios) a trace replay
    produced, and ``obs`` holds the service's counter-only metrics
    registry snapshot.
    """
    return {
        "schema": RUNDB_SCHEMA,
        "kind": "service",
        "bench": bench,
        "label": label,
        "recorded_unix": time.time() if timestamp is None else timestamp,
        "env": env if env is not None else environment_stamp(),
        "config": config_stamp(config) if config is not None else None,
        "run": {
            "algorithm": algorithm,
            "instance": instance,
            "k": int(k),
            "seed": int(seed),
            **{str(m): v for m, v in metrics.items()},
        },
        "obs": obs,
    }


def make_dist_record(
    bench: str,
    *,
    algorithm: str,
    instance: str,
    k: int,
    seed: int,
    metrics: dict,
    label: str | None = None,
    config=None,
    obs: dict | None = None,
    env: dict | None = None,
    timestamp: float | None = None,
) -> dict:
    """Stamp one distributed partitioner run into a DB record.

    Dist records carry the partition identity + quality fields plus the
    cluster-observability metrics of :data:`DIST_METRICS` flat in the
    ``run`` section (rank count, per-rank peak spread, communication
    volumes raw vs varint-compressed).  ``obs`` holds the full
    memory-ratio report + per-phase rollup
    (:func:`~repro.obs.dist.report.dist_obs_registry`), condensed or
    dropped by the baseline capture exactly like traced partition runs.
    """
    return {
        "schema": RUNDB_SCHEMA,
        "kind": "dist",
        "bench": bench,
        "label": label,
        "recorded_unix": time.time() if timestamp is None else timestamp,
        "env": env if env is not None else environment_stamp(),
        "config": config_stamp(config) if config is not None else None,
        "run": {
            "algorithm": algorithm,
            "instance": instance,
            "k": int(k),
            "seed": int(seed),
            **{str(m): v for m, v in metrics.items()},
        },
        "obs": obs,
    }


def make_microbench_record(
    bench: str,
    metrics: dict,
    *,
    label: str | None = None,
    env: dict | None = None,
    timestamp: float | None = None,
) -> dict:
    """Stamp a flat microbenchmark metric dict into a DB record."""
    return {
        "schema": RUNDB_SCHEMA,
        "kind": "microbench",
        "bench": bench,
        "label": label,
        "recorded_unix": time.time() if timestamp is None else timestamp,
        "env": env if env is not None else environment_stamp(),
        "config": None,
        "run": dict(metrics),
        "obs": None,
    }


# --------------------------------------------------------------------- #
# schema check
# --------------------------------------------------------------------- #
def migrate_record(rec: dict) -> dict:
    """Fill the optional fields of a ``RUNDB_SCHEMA`` record.

    Every committed row is stamped at the current schema (4: record kinds
    ``partition``, ``microbench``, ``service``, ``dist``), so there is no
    migration chain: a record from any other schema raises -- refusing to
    silently reinterpret data written by newer code, or by code old enough
    that its layout is no longer known here.
    """
    version = rec.get("schema", 0)
    if version != RUNDB_SCHEMA:
        age = "newer" if version > RUNDB_SCHEMA else "older"
        raise ValueError(
            f"run-DB record has schema {version}, {age} than supported "
            f"{RUNDB_SCHEMA}; read it with the code that wrote it"
        )
    out = dict(rec)
    out.setdefault("kind", "partition")
    out.setdefault("bench", "unknown")
    out.setdefault("label", None)
    out.setdefault("recorded_unix", None)
    out.setdefault("env", {})
    out.setdefault("config", None)
    out.setdefault("run", {})
    out.setdefault("obs", None)
    return out


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #
class RunDB:
    """One JSONL file of versioned run records, append-only."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    # -- writing ------------------------------------------------------- #
    def append(self, record: dict) -> dict:
        """Schema-check and append one record; returns the stored form."""
        rec = migrate_record(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(rec, sort_keys=False) + "\n")
        return rec

    def extend(self, records: Iterable[dict]) -> list[dict]:
        return [self.append(r) for r in records]

    # -- reading ------------------------------------------------------- #
    def load(self) -> list[dict]:
        """All records (current schema only), in append order."""
        if not self.path.exists():
            return []
        out = []
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                out.append(migrate_record(json.loads(line)))
        return out

    def query(
        self,
        *,
        kind: str | None = None,
        bench: str | None = None,
        label: str | None = None,
        algorithm: str | None = None,
        instance: str | None = None,
        k: int | None = None,
        since: float | None = None,
        predicate: Callable[[dict], bool] | None = None,
    ) -> list[dict]:
        """Filter records; every criterion is optional and conjunctive."""
        out = []
        for rec in self.load():
            run = rec.get("run", {})
            if kind is not None and rec.get("kind") != kind:
                continue
            if bench is not None and rec.get("bench") != bench:
                continue
            if label is not None and rec.get("label") != label:
                continue
            if algorithm is not None and run.get("algorithm") != algorithm:
                continue
            if instance is not None and run.get("instance") != instance:
                continue
            if k is not None and run.get("k") != k:
                continue
            if since is not None and (rec.get("recorded_unix") or 0) < since:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out


def latest_per_key(
    records: Iterable[dict], key_fn: Callable[[dict], tuple]
) -> list[dict]:
    """Keep only the last (most recently appended) record per key."""
    by_key: dict[tuple, dict] = {}
    for rec in records:
        by_key[key_fn(rec)] = rec
    return list(by_key.values())


def run_key(rec: dict) -> tuple:
    """The identity a partition record is compared under."""
    run = rec.get("run", {})
    return (
        run.get("algorithm"),
        run.get("instance"),
        run.get("k"),
        run.get("seed"),
    )


def default_rundb() -> RunDB | None:
    """The process-wide default DB: ``$REPRO_RUNDB`` if set, else none.

    The bench suite's conftest points this at the repo-root
    ``BENCH_runs.jsonl`` so every figure script appends its runs by
    default; unit tests (no env var) stay side-effect free.
    """
    import os

    path = os.environ.get("REPRO_RUNDB")
    return RunDB(path) if path else None
