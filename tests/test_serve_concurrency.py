"""Concurrency tests for the partitioning service.

The contracts under test:

* N concurrent clients asking for the same (graph, k, ε, config) key
  trigger exactly ONE partitioner run (coalescing),
* requests under distinct config digests never share cache entries,
* a client cancelled mid-run leaves the cache and the in-flight table
  consistent — the shielded run completes and later clients hit it,
* the executor is the only queue: every cache insert of a run happens on
  its thread, and closing finishes every admitted run.

A counting fake partitioner (injectable ``partition_fn``) makes "how
many runs actually happened" observable without timing heuristics.
"""

import asyncio
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import config as C
from repro.core.config import ServeConfig, config_digest
from repro.graph import generators as gen
from repro.serve import PartitionService, ServiceError, ServiceHandle

#: compression off so the fake partitioner sees the raw CSR graph
CFG = C.terapart().with_(compress_input=False)
SCFG = ServeConfig(cache_budget_bytes=4 * 1024 * 1024)

GRAPH = gen.weblike(120, avg_degree=6, seed=21)
GRAPH_B = gen.grid2d(10, 12)


class CountingPartitioner:
    """Fake partition_fn: counts calls, sleeps to hold the run window open."""

    def __init__(self, delay: float = 0.05):
        self.calls = 0
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, graph, k, config, tracker=None):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        n = graph.n
        part = (np.arange(n, dtype=np.int64) * k // max(n, 1)).astype(
            np.int32
        )
        return SimpleNamespace(
            partition=part,
            cut=1000 + self.calls,  # distinguishable per run
            imbalance=0.0,
            balanced=True,
            wall_seconds=self.delay,
            num_levels=1,
        )


class TestAdmissionBatching:
    def test_concurrent_same_key_runs_once(self):
        counter = CountingPartitioner()
        with ServiceHandle(CFG, SCFG, partition_fn=counter) as h:
            h.register_graph("g", GRAPH)
            results = h.partition_many([("g", 4)] * 8)
            snap = h.metrics_snapshot()
        assert counter.calls == 1
        assert len(results) == 8
        # every client got the SAME run's result
        assert len({r.cut for r in results}) == 1
        assert all(np.array_equal(r.partition, results[0].partition)
                   for r in results)
        # 1 admitted + 7 coalesced onto the in-flight run
        assert snap["serve.batched"] == 7
        assert snap["serve.full_runs"] == 1

    def test_distinct_keys_run_separately(self):
        counter = CountingPartitioner()
        with ServiceHandle(CFG, SCFG, partition_fn=counter) as h:
            h.register_graph("a", GRAPH)
            h.register_graph("b", GRAPH_B)
            results = h.partition_many(
                [("a", 4), ("b", 4), ("a", 4), ("b", 4), ("a", 2)]
            )
        # three distinct keys: (a,4), (b,4), (a,2)
        assert counter.calls == 3
        assert len(results) == 5

    def test_sequential_after_completion_hits_cache(self):
        counter = CountingPartitioner(delay=0.0)
        with ServiceHandle(CFG, SCFG, partition_fn=counter) as h:
            h.register_graph("g", GRAPH)
            r1 = h.partition("g", 4)
            r2 = h.partition("g", 4)
        assert counter.calls == 1
        assert r1.mode == "full" and r2.mode == "cached"


class TestConfigIsolation:
    def test_distinct_digests_never_share_entries(self):
        counter = CountingPartitioner()
        cfg_a = CFG
        cfg_b = CFG.with_(lp_refinement_rounds=CFG.lp_refinement_rounds + 1)
        assert config_digest(cfg_a) != config_digest(cfg_b)
        with ServiceHandle(cfg_a, SCFG, partition_fn=counter) as h:
            h.register_graph("g", GRAPH)
            ra = h.partition("g", 4)
            rb = h.partition("g", 4, config=cfg_b)
            ra2 = h.partition("g", 4)
            rb2 = h.partition("g", 4, config=cfg_b)
            part_keys = [
                k for k in h.service.cache.keys() if k[0] == "part"
            ]
        assert counter.calls == 2  # one run per digest, then cache hits
        assert ra.config_digest != rb.config_digest
        assert ra2.mode == "cached" and rb2.mode == "cached"
        assert ra2.cut == ra.cut and rb2.cut == rb.cut
        assert len(part_keys) == 2
        assert len({k[1].config_digest for k in part_keys}) == 2

    def test_epsilon_is_part_of_the_key(self):
        counter = CountingPartitioner(delay=0.0)
        with ServiceHandle(CFG, SCFG, partition_fn=counter) as h:
            h.register_graph("g", GRAPH)
            h.partition("g", 4, epsilon=0.03)
            h.partition("g", 4, epsilon=0.3)
        assert counter.calls == 2


def _consistent(service) -> None:
    cache = service.cache
    assert not service._inflight
    assert cache.stats.resident_bytes == sum(
        cache._entries[k].nbytes for k in cache.keys()
    )
    assert (
        service.tracker.breakdown().get("serve-cache", 0)
        == cache.stats.resident_bytes
    )


class TestCancellation:
    def test_cancel_mid_run_keeps_cache_consistent(self):
        counter = CountingPartitioner(delay=0.1)

        async def main():
            svc = PartitionService(CFG, SCFG, partition_fn=counter)
            await svc.register_graph("g", GRAPH)
            task = asyncio.create_task(svc.partition("g", 4))
            await asyncio.sleep(0.03)  # run is in the executor now
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # the shielded run completes; wait for it
            await asyncio.gather(*svc._inflight.values())
            _consistent(svc)
            r = await svc.partition("g", 4)
            snap = svc.metrics_snapshot()
            await svc.aclose()
            return r, snap

        r, snap = asyncio.run(main())
        assert counter.calls == 1
        assert r.mode == "cached"  # the cancelled run's result was kept
        assert snap["serve.cancelled"] == 1

    def test_cancel_one_of_many_batched_clients(self):
        counter = CountingPartitioner(delay=0.1)

        async def main():
            svc = PartitionService(CFG, SCFG, partition_fn=counter)
            await svc.register_graph("g", GRAPH)
            tasks = [
                asyncio.create_task(svc.partition("g", 4)) for _ in range(3)
            ]
            await asyncio.sleep(0.03)
            tasks[1].cancel()
            survivors = await asyncio.gather(*tasks, return_exceptions=True)
            _consistent(svc)
            await svc.aclose()
            return survivors

        survivors = asyncio.run(main())
        assert counter.calls == 1
        assert isinstance(survivors[1], asyncio.CancelledError)
        assert survivors[0].cut == survivors[2].cut
        assert survivors[0].mode == "full"

    def test_cancel_before_run_starts(self):
        """Cancelling while the job is still queued must not wedge the
        executor or leave the in-flight table dirty."""
        counter = CountingPartitioner(delay=0.05)

        async def main():
            svc = PartitionService(CFG, SCFG, partition_fn=counter)
            await svc.register_graph("g", GRAPH)
            t1 = asyncio.create_task(svc.partition("g", 4))
            t2 = asyncio.create_task(svc.partition("g", 2))
            await asyncio.sleep(0)  # admit both; neither finished
            t2.cancel()
            r1 = await t1
            with pytest.raises(asyncio.CancelledError):
                await t2
            await asyncio.gather(*svc._inflight.values())
            _consistent(svc)
            await svc.aclose()
            return r1

        r1 = asyncio.run(main())
        assert r1.balanced
        # both jobs were admitted before the cancel, so both ran; the
        # cancelled key's result is still cached for the next client
        assert counter.calls == 2


class TestOneQueue:
    def test_every_cache_insert_of_a_run_happens_on_the_run_thread(self):
        """Full, warm and failed runs write the cache (and so the ledger)
        only from the executor thread, never from the event loop."""
        from repro.core.partitioner import partition
        from repro.serve import GraphDelta

        def fails_at_k3(graph, k, config, tracker=None):
            if k == 3:
                raise RuntimeError("injected")
            return partition(graph, k, config, tracker=tracker)

        puts = []
        with ServiceHandle(C.terapart(), SCFG, partition_fn=fails_at_k3) as h:
            put = h.service.cache.put

            def recording_put(key, value, nbytes):
                puts.append((key[0], threading.current_thread().name))
                return put(key, value, nbytes)

            h.service.cache.put = recording_put
            h.register_graph("g", GRAPH)
            assert h.partition("g", 4).mode == "full"
            h.apply_delta("g", GraphDelta(add_edges=[[0, 50]]))
            assert h.partition("g", 4).mode == "warm"
            with pytest.raises(ServiceError):
                h.partition("g", 3)
        kinds = [kind for kind, _ in puts]
        # full: compressed graph, seed, answer; warm: seed, answer; failed:
        # the compressed graph it got to before the partitioner raised
        assert kinds == ["graph", "seed", "part", "seed", "part", "graph"]
        assert {name for _, name in puts} == {"repro-serve_0"}

    def test_close_finishes_every_admitted_run(self):
        """aclose() waits for runs still queued on the executor: their
        clients get answers, and the cache and its ledger agree after."""
        counter = CountingPartitioner(delay=0.0)
        gate = threading.Event()

        async def main():
            svc = PartitionService(CFG, SCFG, partition_fn=counter)
            await svc.register_graph("g", GRAPH)
            blocker = svc._executor.submit(gate.wait, 10)
            clients = [
                asyncio.create_task(svc.partition("g", k)) for k in (2, 4)
            ]
            await asyncio.sleep(0.02)  # both admitted, behind the blocker
            closing = asyncio.create_task(svc.aclose())
            await asyncio.sleep(0.02)
            with pytest.raises(ServiceError) as late:
                await svc.partition("g", 8)
            gate.set()
            await asyncio.wait_for(closing, 30)
            assert blocker.result(0)
            _consistent(svc)
            return await asyncio.gather(*clients), late.value.code

        results, late_code = asyncio.run(main())
        assert [r.mode for r in results] == ["full", "full"]
        assert [r.k for r in results] == [2, 4]
        assert counter.calls == 2
        assert late_code == "shutdown"


class TestDeltaBetweenEnqueueAndExecute:
    @pytest.mark.parametrize("grow", [0, 1], ids=["same-n", "appends-a-vertex"])
    def test_job_answers_its_snapshot_and_no_delta_vertex_is_lost(self, grow):
        """A delta that lands while a warm job waits for the executor may
        only add seeds to that job; the job still answers the graph it was
        enqueued on, and the next request starts from the later delta."""
        from repro.core.partitioner import refine_partition
        from repro.serve import GraphDelta

        seen = []

        def recording_refine(graph, k, part0, config, **kwargs):
            seen.append((graph.n, kwargs["seeds"]))
            return refine_partition(graph, k, part0, config, **kwargs)

        first = GraphDelta(add_edges=[[0, 50]], remove_edges=[[1, 2]])
        second = GraphDelta(
            add_edges=[[7, GRAPH.n - 1 + grow]], add_weights=[5], add_vertices=grow
        )
        gate = threading.Event()

        async def main():
            svc = PartitionService(CFG, SCFG, refine_fn=recording_refine)
            await svc.register_graph("g", GRAPH)
            await svc.partition("g", 4)
            await svc.apply_delta("g", first)
            # the one worker thread is busy: the next job waits in line
            blocker = svc._executor.submit(gate.wait, 10)
            queued = asyncio.create_task(svc.partition("g", 4))
            await asyncio.sleep(0.02)  # enqueued on the post-`first` graph
            await svc.apply_delta("g", second)
            gate.set()
            assert blocker.result(10)
            snapshot_answer = await asyncio.wait_for(queued, 30)
            next_answer = await svc.partition("g", 4)
            await svc.aclose()
            return snapshot_answer, next_answer

        snapshot_answer, next_answer = asyncio.run(main())
        (n1, seeds1), (n2, seeds2) = seen
        assert snapshot_answer.mode == "warm" and next_answer.mode == "warm"
        assert len(snapshot_answer.partition) == n1 == GRAPH.n
        assert snapshot_answer.balanced
        assert set(first.vertices(GRAPH.n)) <= set(seeds1.tolist())
        assert seeds1.max() < GRAPH.n
        assert len(next_answer.partition) == n2 == GRAPH.n + grow
        assert set(seeds2.tolist()) == set(second.vertices(GRAPH.n).tolist())
