"""Differential test: tracing must not perturb the computation.

Runs the full partitioner with observability enabled and disabled across
4 seeds x p in {1, 4} and asserts bit-identical partitions plus identical
cost-model op counts (work / span / bytes moved / atomic ops per phase) --
the tracer only ever *reads* the clock and the ledger, so enabling it can
change nothing the algorithms observe.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import config as C
from repro.graph import generators as gen

SEEDS = (0, 1, 2, 3)
THREADS = (1, 4)


def _stats_signature(result) -> dict:
    """The op-count fingerprint of a run, independent of wall time."""
    return {
        name: (
            s.work,
            s.span,
            s.bytes_moved,
            s.atomic_ops,
            s.max_parallelism,
        )
        for name, s in sorted(result.phase_stats.items())
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", THREADS)
def test_traced_run_is_bit_identical(seed, p):
    graph = gen.weblike(500, avg_degree=8, seed=41)
    base_cfg = C.preset("terapart", seed=seed, p=p)
    traced_cfg = base_cfg.with_(obs=C.ObsConfig(enabled=True))

    plain = repro.partition(graph, 6, base_cfg)
    traced = repro.partition(graph, 6, traced_cfg)

    assert np.array_equal(plain.partition, traced.partition)
    assert plain.cut == traced.cut
    assert plain.imbalance == traced.imbalance
    assert plain.peak_bytes == traced.peak_bytes
    assert plain.num_levels == traced.num_levels
    assert _stats_signature(plain) == _stats_signature(traced)

    # the artifacts exist exactly when requested
    assert plain.trace is None and plain.obs is None
    assert traced.trace is not None and traced.obs is not None
    assert traced.trace.spans, "traced run must record spans"


def test_traced_run_is_identical_under_fm_and_schedule_policy():
    """Heavier config: FM refinement + an adversarial schedule policy."""
    graph = gen.rgg2d(400, avg_degree=8, seed=9)
    base_cfg = C.preset("terapart", seed=5, p=4).with_(
        use_fm=True,
        debug=C.DebugConfig(schedule_policy="heavy-first"),
    )
    traced_cfg = base_cfg.with_(obs=C.ObsConfig(enabled=True))

    plain = repro.partition(graph, 4, base_cfg)
    traced = repro.partition(graph, 4, traced_cfg)

    assert np.array_equal(plain.partition, traced.partition)
    assert _stats_signature(plain) == _stats_signature(traced)


def test_tracing_is_repeatable():
    """Two traced runs with the same seed produce the same span tree and
    the same counters (the trace itself is deterministic modulo time)."""
    graph = gen.weblike(400, avg_degree=8, seed=13)
    cfg = C.preset("terapart", seed=2, p=4).with_(obs=C.ObsConfig(enabled=True))
    a = repro.partition(graph, 4, cfg)
    b = repro.partition(graph, 4, cfg)
    assert a.trace.span_tree() == b.trace.span_tree()
    assert a.obs["counters"] == b.obs["counters"]
    assert a.obs["waterfall"] == b.obs["waterfall"]
