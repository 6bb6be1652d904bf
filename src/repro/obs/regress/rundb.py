"""Append-only run database for the regression observatory.

Every benchmark run is persisted as one JSON line in a ``.jsonl`` file.
What a row *is* depends on its kind -- a one-shot ``partition`` run, a
replayed ``service`` trace, a ``dist`` cluster run -- and that decision is
stated once, in :data:`KINDS`: the metrics the kind gates, the
bench-name prefix, the default cell matrix, the
summary columns and the function that runs one cell.  Everything else
(:func:`make_record`, the matrix loop in :mod:`repro.bench.harness`,
baseline capture, compare, the ``repro bench`` verbs) reads that table.

Records are versioned (``RUNDB_SCHEMA``) and stamped with enough
provenance to make any two records comparable later:

* the environment: git SHA (+dirty flag), python / numpy versions, platform,
* the configuration: preset name plus the seed-independent
  :func:`~repro.core.config.config_digest`,
* the measurement itself (``run`` section), and
* the per-phase observability snapshot (``obs``) when the run was traced.

The store is append-only by construction: :meth:`RunDB.append` opens the
file in ``"a"`` mode and never rewrites history.  Loading accepts only
records of the current schema (the committed rows were restamped once when
the migration chain was retired), fills their optional fields and never
switches on ``kind``: rows of a kind no longer written (the two committed
``microbench`` rows) load as opaque data.
"""

from __future__ import annotations

import importlib
import json
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.memory.report import fmt_bytes

RUNDB_SCHEMA = 4


# --------------------------------------------------------------------- #
# the kinds table
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Kind:
    """What a run-DB row of one kind is."""

    name: str
    #: the metrics a baseline of the kind must reproduce exactly: each is
    #: deterministic per seed; wall-clock fields ride in the rows but are
    #: judged by the ladder (``BENCHMARK.json``) and, for the service, by
    #: CI's absolute SLOs
    gated: tuple[str, ...]
    #: rows are stamped ``bench = bench_prefix + suite``
    bench_prefix: str
    #: default k values and seeds of ``repro bench record`` (the matrix the
    #: committed baseline of the kind was captured on)
    ks: tuple[int, ...]
    seeds: tuple[int, ...]
    #: ``(header, run-section field, formatter)`` columns of the summary
    #: ``record`` prints: seed means per (algorithm, instance, k)
    summary: tuple[tuple[str, str, Callable[[float], str]], ...]
    #: ``"module:function"``: ``configs(opts)`` builds the matrix's config
    #: axis from the parsed ``bench record`` options, and
    #: ``cell(config, instance, k, seed)`` runs one cell and returns its
    #: measurement (see :func:`make_record`)
    configs: str
    cell: str

    def load(self, role: str) -> Callable:
        """Import and return the ``"configs"`` or ``"cell"`` function (by
        name, so this module never imports the bench harness)."""
        module, _, name = getattr(self, role).partition(":")
        return getattr(importlib.import_module(module), name)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


_COUNT = "{:.0f}".format
_RATIO = "{:.3f}".format

KINDS: dict[str, Kind] = {
    kind.name: kind
    for kind in (
        Kind(
            "partition",
            gated=("cut", "peak_bytes"),
            bench_prefix="",
            ks=(4,),
            seeds=(0, 1, 2),
            summary=(
                ("cut", "cut", _COUNT),
                ("wall", "wall_seconds", "{:.2f}s".format),
                ("peak", "peak_bytes", fmt_bytes),
            ),
            configs="repro.bench.harness:traced_presets",
            cell="repro.bench.harness:run_partitioner",
        ),
        Kind(
            "service",
            # the warm-start quality overhead (warm cut / from-scratch cut);
            # the latency quantiles and warm_over_full beside it are
            # wall-clock
            gated=("cut_overhead",),
            bench_prefix="service-",
            ks=(8,),
            seeds=(0,),
            summary=(
                ("p50", "p50_seconds", _ms),
                ("p99", "p99_seconds", _ms),
                ("warm/full", "warm_over_full", _RATIO),
                ("cut ovhd", "cut_overhead", _RATIO),
                ("hit rate", "cache_hit_rate", "{:.2f}".format),
            ),
            configs="repro.bench.service:presets",
            cell="repro.bench.service:bench_one",
        ),
        Kind(
            "dist",
            # quality, the worst single-rank ledger peak, the cluster memory
            # ratio (max rank peak / mean rank peak -- 1.0 is perfectly
            # even, the paper's tera-scale runs stay under ~2) and the raw /
            # varint-compressed communication volumes
            gated=(
                "cut",
                "max_rank_peak_bytes",
                "memory_ratio",
                "comm_raw_bytes",
                "comm_varint_bytes",
            ),
            bench_prefix="dist-",
            ks=(8,),
            seeds=(0,),
            summary=(
                ("cut", "cut", _COUNT),
                ("mem ratio", "memory_ratio", _RATIO),
                ("max rank peak", "max_rank_peak_bytes", fmt_bytes),
                ("comm raw", "comm_raw_bytes", fmt_bytes),
                ("comm varint", "comm_varint_bytes", fmt_bytes),
            ),
            configs="repro.bench.dist:systems",
            cell="repro.bench.dist:bench_one",
        ),
    )
}


# --------------------------------------------------------------------- #
# provenance stamps
# --------------------------------------------------------------------- #
def environment_stamp() -> dict:
    """Best-effort provenance of the machine/tree producing a record."""
    import numpy

    git_sha, git_dirty = _git_state()
    return {
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _git_state() -> tuple[str | None, bool | None]:
    """HEAD and dirty flag of the checkout this package runs from, wherever
    the process's cwd is (``None``: not run from a git checkout)."""
    here = Path(__file__).resolve().parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=here,
        )
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=here,
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
# the record builder
# --------------------------------------------------------------------- #
@dataclass
class Measurement:
    """What one cell of a run matrix reports: the row's identity, the flat
    fields of its ``run`` section after the identity, and its obs registry
    snapshot.  The harness's :class:`~repro.bench.harness.RunRecord`
    offers the same six attributes, so :func:`make_record` takes either."""

    algorithm: str
    instance: str
    k: int
    seed: int
    metrics: dict
    obs: dict | None = None


def make_record(
    kind: str,
    measurement,
    *,
    bench: str,
    label: str | None = None,
    config=None,
    env: dict | None = None,
    timestamp: float | None = None,
) -> dict:
    """Stamp one cell's measurement into a DB record of ``kind``.

    Every kind carries the same (algorithm, instance, k, seed) identity at
    the head of its ``run`` section, so the baseline/compare machinery
    groups all rows alike; what follows is the kind's own flat metric dict,
    which must hold every metric the kind gates.
    """
    run = {
        "algorithm": measurement.algorithm,
        "instance": measurement.instance,
        "k": int(measurement.k),
        "seed": int(measurement.seed),
        **measurement.metrics,
    }
    missing = [m for m in KINDS[kind].gated if m not in run]
    if missing:
        raise ValueError(f"{kind} record lacks gated metric(s) {missing}")
    return {
        "schema": RUNDB_SCHEMA,
        "kind": kind,
        "bench": bench,
        "label": label,
        "recorded_unix": time.time() if timestamp is None else timestamp,
        "env": env if env is not None else environment_stamp(),
        "config": config_stamp(config) if config is not None else None,
        "run": run,
        "obs": measurement.obs,
    }


# --------------------------------------------------------------------- #
# schema check
# --------------------------------------------------------------------- #
def migrate_record(rec: dict) -> dict:
    """Fill the optional fields of a ``RUNDB_SCHEMA`` record.

    Every committed row is stamped at the current schema, so there is no
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
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as err:
                    # e.g. a crash mid-append truncated the last line
                    raise ValueError(
                        f"{self.path}:{lineno}: not a JSON record ({err})"
                    ) from None
                out.append(migrate_record(rec))
        return out

    def query(
        self, *, kind: str | None = None, label: str | None = None
    ) -> list[dict]:
        """Records of one kind and/or under one label, in append order."""
        return [
            rec
            for rec in self.load()
            if (kind is None or rec.get("kind") == kind)
            and (label is None or rec.get("label") == label)
        ]


def latest_per_key(
    records: Iterable[dict], key_fn: Callable[[dict], tuple]
) -> list[dict]:
    """Keep only the last (most recently appended) record per key."""
    by_key: dict[tuple, dict] = {}
    for rec in records:
        by_key[key_fn(rec)] = rec
    return list(by_key.values())


def run_key(rec: dict) -> tuple:
    """The identity a record of any kind is compared under."""
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
