"""Disabled-tracing overhead guard (obs satellite; also asserted in CI).

When ``config.obs.enabled`` is False the partitioner must not install any
hooks: no decode-counter hook in ``graph.access``, no trace artifacts on
the result (the runtime holds no tracer at all: it keeps its chunk ledger
traced or not) -- and the per-call cost
of the ``NullTracer`` fast path must stay within an order of magnitude of
a plain no-op function call (generous bound; this guards against someone
accidentally adding allocation or string formatting to the disabled path).
"""

from __future__ import annotations

import time

import repro
from repro.core import config as C
from repro.graph import access as graph_access
from repro.graph import generators as gen
from repro.memory.tracker import MemoryTracker
from repro.obs.tracer import NULL_TRACER


def test_disabled_run_installs_no_hooks_and_attaches_no_artifacts():
    graph = gen.weblike(300, avg_degree=8, seed=21)
    result = repro.partition(graph, 4, C.preset("terapart", seed=0, p=4))
    assert result.trace is None
    assert result.obs is None
    # module-level decode hook must be left uninstalled
    assert graph_access._tracer is None


def test_traced_run_uninstalls_hooks_afterwards():
    graph = gen.weblike(300, avg_degree=8, seed=21)
    cfg = C.preset("terapart", seed=0, p=4).with_(obs=C.ObsConfig(enabled=True))
    repro.partition(graph, 4, cfg)
    assert graph_access._tracer is None


def test_null_tracer_calls_are_cheap():
    """Microbenchmark with a very generous bound: the disabled fast path
    must cost no more than 10x a trivial no-op call (it is a `pass` body;
    anything slower means work crept into the disabled path)."""

    def noop(name, value=1):
        pass

    n = 50_000

    def best_of(fn, reps=5):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            for _i in range(n):
                fn("counter", 1)
            best = min(best, time.perf_counter() - t0)
        return best

    t_noop = best_of(noop)
    t_null = best_of(NULL_TRACER.add)
    assert t_null < 10 * t_noop + 1e-3, (t_null, t_noop)


def test_null_phase_is_plain_tracker_phase():
    """`ctx.phase` with the NullTracer must enter the very same phase paths
    a tracker-only driver would -- no extra phases, no renames."""
    tracker = MemoryTracker()
    with NULL_TRACER.phase("a", tracker):
        with NULL_TRACER.phase("b", tracker):
            tracker.alloc("x", 64, "scratch")
    assert set(tracker.phases().keys()) == {"a", "a/b"}
