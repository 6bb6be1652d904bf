"""Partitioner configuration and the paper's algorithm-variant presets."""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace


class GainTableKind(enum.Enum):
    """FM gain-cache strategies compared in Figure 7."""

    NONE = "none"  # recompute gains from scratch at every inspection
    FULL = "full"  # standard O(n*k) table
    SPARSE = "sparse"  # the paper's O(m) table (Section V)


@dataclass(frozen=True)
class CoarseningConfig:
    """Knobs of the coarsening stage (Section IV)."""

    two_phase_lp: bool = True  # Algorithm 2 vs Algorithm 1
    one_pass_contraction: bool = True  # Section IV-B2 vs buffered
    lp_rounds: int = 5  # paper: five rounds per level
    # bump threshold T_bump; paper default is 10 000 on billion-edge graphs.
    # 0 = auto-scale: clamp(n / (8 p), 128, 10 000), preserving the paper's
    # regime p*T_bump << n at benchmark scale.
    t_bump: int = 0
    max_levels: int = 64


@dataclass(frozen=True)
class FMConfig:
    """Knobs of k-way FM refinement (Section V)."""

    gain_table: GainTableKind = GainTableKind.SPARSE
    max_rounds: int = 3
    # adaptive stopping: abort a pass after this many consecutive
    # non-improving moves (classic FM stopping rule)
    max_fruitless_moves: int = 250
    # localized multi-search FM ([4],[15]) instead of one global search
    localized: bool = False
    # per-search move cap for localized FM
    max_region: int = 64


@dataclass(frozen=True)
class DebugConfig:
    """Knobs of the verify layer (phase-boundary invariant checks).

    Defaults to off: the production path pays nothing for the verify
    layer's existence.
    """

    # 0 = off, 1 = cheap phase-boundary checks (partition / coarse-mapping
    # consistency), 2 = adds the deep O(m)-ish checks (graph symmetry,
    # compressed roundtrip, gain-table-vs-recompute)
    validation_level: int = 0


@dataclass(frozen=True)
class ObsConfig:
    """Knobs of the observability layer (span tracing + metrics registry).

    Defaults to off: the production path threads a shared no-op tracer and
    pays one attribute load per would-be span.  When enabled, the
    partitioner records the full span tree (phases, hierarchy levels,
    counters, memory snapshots at every span boundary) and attaches a
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot plus the raw
    tracer to the :class:`~repro.core.partitioner.PartitionResult`.
    Tracing never perturbs the computation: partitions are bit-identical
    with and without it (tested).
    """

    enabled: bool = False
    # charge transient decode/codec scratch buffers to the memory ledger
    # (repro.memory.scratch).  Off by default so peaks stay comparable with
    # historical baselines; selfcheck runs turn it on for full accounting.
    track_scratch: bool = False


@dataclass(frozen=True)
class DistObsConfig:
    """Knobs of the distributed observability layer (DESIGN.md §12).

    Lives here (not on :class:`ObsConfig`) because it configures the
    *cluster* observer of :func:`repro.dist.dpartitioner.dpartition`:
    per-rank span trees coupled to the per-rank ledgers, collective
    instrumentation, and the memory-ratio report.  Defaults to off; the
    disabled path threads a shared no-op observer and the partition is
    bit-identical with and without it (tested).
    """

    enabled: bool = False


@dataclass(frozen=True)
class InitialPartitioningConfig:
    """Portfolio of randomized greedy-graph-growing bipartitioners + 2-way FM."""

    attempts: int = 8  # portfolio size per bisection
    fm_rounds: int = 2
    # "recursive": classic recursive bisection to k on the coarsest graph.
    # "deep": KaMinPar's deep multilevel [3] -- coarsen to constant size,
    # bisect blocks progressively during uncoarsening.
    scheme: str = "recursive"


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the long-lived partitioning service (``repro serve``).

    Deliberately *not* a field of :class:`PartitionerConfig`: the service
    wraps a partitioner variant rather than changing what it computes, so
    serving knobs must not perturb :func:`config_digest` — cache entries
    and run-DB groups keyed by the digest stay comparable whether the run
    came from the service or from a one-shot CLI invocation.
    """

    # byte budget of the LRU cache holding compressed graphs, finished
    # partitions, and warm-start seeds (tracked via the MemoryTracker
    # ledger under category "serve-cache")
    cache_budget_bytes: int = 256 * 1024 * 1024
    # incremental repartitioning: cumulative fraction of (directed) edges
    # changed since the last full run above which a request falls back to
    # a full repartition instead of a refinement-only warm start
    drift_threshold: float = 0.25


@dataclass(frozen=True)
class PartitionerConfig:
    """Full configuration of one partitioner variant."""

    name: str = "terapart"
    epsilon: float = 0.03
    seed: int = 0
    p: int = 8  # virtual threads
    compress_input: bool = True
    coarsening: CoarseningConfig = field(default_factory=CoarseningConfig)
    initial: InitialPartitioningConfig = field(
        default_factory=InitialPartitioningConfig
    )
    use_fm: bool = False
    fm: FMConfig = field(default_factory=FMConfig)
    lp_refinement_rounds: int = 3
    debug: DebugConfig = field(default_factory=DebugConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    def with_(self, **kwargs) -> "PartitionerConfig":
        return replace(self, **kwargs)


def config_to_dict(cfg: PartitionerConfig) -> dict:
    """JSON-safe dict of a config (enums collapse to their values)."""

    def _default(o):
        if isinstance(o, enum.Enum):
            return o.value
        return str(o)

    return json.loads(json.dumps(asdict(cfg), default=_default))


@functools.lru_cache(maxsize=256)
def config_digest(cfg: PartitionerConfig) -> str:
    """Stable short hash identifying a configuration *variant*.

    Only result-affecting knobs are hashed.  The seed is excluded: runs of
    the same variant under different seeds share a digest, which is what
    the run database groups by.  So are ``debug`` and ``obs``: traced ==
    untraced and validated == unvalidated are tested invariants, so turning
    tracing or validation on must not fork the service cache key or the
    run-DB group.  Any other knob change yields a new digest.

    Memoized on the frozen, hashable config: the service asks once per
    request, and equal configs share one digest.
    """
    d = config_to_dict(cfg)
    for key in ("seed", "debug", "obs"):
        d.pop(key, None)
    payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# presets: the variant ladder of Figure 4 / Figure 7
# --------------------------------------------------------------------- #
def kaminpar(**overrides) -> PartitionerConfig:
    """The unoptimized baseline: classic LP, buffered contraction, raw CSR."""
    cfg = PartitionerConfig(
        name="kaminpar",
        compress_input=False,
        coarsening=CoarseningConfig(two_phase_lp=False, one_pass_contraction=False),
    )
    return cfg.with_(**overrides)


def kaminpar_2lp(**overrides) -> PartitionerConfig:
    """Baseline + two-phase label propagation (Fig. 4, optimization i)."""
    cfg = PartitionerConfig(
        name="kaminpar+2lp",
        compress_input=False,
        coarsening=CoarseningConfig(two_phase_lp=True, one_pass_contraction=False),
    )
    return cfg.with_(**overrides)


def kaminpar_2lp_compress(**overrides) -> PartitionerConfig:
    """+ graph compression (Fig. 4, optimization ii)."""
    cfg = PartitionerConfig(
        name="kaminpar+2lp+compress",
        compress_input=True,
        coarsening=CoarseningConfig(two_phase_lp=True, one_pass_contraction=False),
    )
    return cfg.with_(**overrides)


def terapart(**overrides) -> PartitionerConfig:
    """All three optimizations: the TeraPart configuration (LP refinement)."""
    cfg = PartitionerConfig(
        name="terapart",
        compress_input=True,
        coarsening=CoarseningConfig(two_phase_lp=True, one_pass_contraction=True),
    )
    return cfg.with_(**overrides)


def terapart_fm(**overrides) -> PartitionerConfig:
    """TeraPart-FM: + k-way FM refinement with the sparse gain table."""
    cfg = terapart().with_(
        name="terapart-fm", use_fm=True, fm=FMConfig(gain_table=GainTableKind.SPARSE)
    )
    return cfg.with_(**overrides)


def terapart_fm_full_table(**overrides) -> PartitionerConfig:
    """FM with the standard O(nk) gain table (Fig. 7 'Full Table')."""
    cfg = terapart().with_(
        name="terapart-fm-full", use_fm=True, fm=FMConfig(gain_table=GainTableKind.FULL)
    )
    return cfg.with_(**overrides)


def terapart_fm_no_table(**overrides) -> PartitionerConfig:
    """FM recomputing gains from scratch (Fig. 7 'No Table')."""
    cfg = terapart().with_(
        name="terapart-fm-none", use_fm=True, fm=FMConfig(gain_table=GainTableKind.NONE)
    )
    return cfg.with_(**overrides)


def terapart_deep(**overrides) -> PartitionerConfig:
    """TeraPart with the deep multilevel scheme [3] (KaMinPar's default)."""
    cfg = terapart().with_(
        name="terapart-deep",
        initial=InitialPartitioningConfig(scheme="deep", attempts=4, fm_rounds=1),
    )
    return cfg.with_(**overrides)


PRESETS = {
    "kaminpar": kaminpar,
    "kaminpar+2lp": kaminpar_2lp,
    "kaminpar+2lp+compress": kaminpar_2lp_compress,
    "terapart": terapart,
    "terapart-fm": terapart_fm,
    "terapart-fm-full": terapart_fm_full_table,
    "terapart-fm-none": terapart_fm_no_table,
    "terapart-deep": terapart_deep,
}


def preset(name: str, **overrides) -> PartitionerConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; know {sorted(PRESETS)}")
    return PRESETS[name](**overrides)
