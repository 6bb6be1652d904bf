"""Failure-injection tests: corrupt inputs must fail loudly, not quietly.

A partitioner that silently decodes garbage produces silently-wrong
science; these tests corrupt each on-disk/in-memory format and assert the
failure is an exception (never a wrong-but-plausible graph).
"""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.compressed import CompressedGraph, compress_graph, decompress_graph
from repro.graph.io import read_binary, read_metis, write_binary
from repro.graph.varint import decode_varint

from conftest import graphs_equal


@pytest.fixture
def web_cg(web_graph):
    return compress_graph(web_graph)


class TestCorruptVarint:
    def test_endless_continuation_detected(self):
        with pytest.raises(ValueError, match="too long"):
            decode_varint(bytes([0x80] * 20), 0)

    def test_truncated_buffer_raises(self):
        buf = bytearray()
        from oracles import encode_varint

        encode_varint(2**40, buf)
        with pytest.raises(IndexError):
            decode_varint(bytes(buf[:-1]), 0)


class TestCorruptCompressedGraph:
    def _clone_with_data(self, cg: CompressedGraph, data: bytes) -> CompressedGraph:
        return CompressedGraph(
            cg.n,
            cg.num_directed_edges,
            cg.offsets.copy(),
            data,
            None,
            has_edge_weights=cg.has_edge_weights,
            config=cg.config,
            stats=cg.stats,
        )

    def test_truncated_data_fails(self, web_cg):
        bad = self._clone_with_data(web_cg, web_cg.data[: len(web_cg.data) // 2])
        with pytest.raises(ValueError):
            decompress_graph(bad)

    def test_chunk_length_mismatch_detected(self):
        g = gen.star(3000)
        cg = compress_graph(g, high_degree_threshold=1000, chunk_length=100)
        # flip a byte inside the hub's first chunk-length prefix
        data = bytearray(cg.data)
        hub_off = int(cg.offsets[0])
        # skip the first-edge-id header, then clobber the length prefix
        _, pos = decode_varint(data, hub_off)
        data[pos] = (data[pos] ^ 0x3F) | 0x01
        bad = CompressedGraph(
            cg.n,
            cg.num_directed_edges,
            cg.offsets.copy(),
            bytes(data),
            None,
            has_edge_weights=False,
            config=cg.config,
            stats=cg.stats,
        )
        with pytest.raises(ValueError, match="vertex 0"):
            bad.neighbors(0)

    def test_header_tamper_changes_degrees_consistently(self, web_graph):
        """Headers are load-bearing: degree comes from consecutive headers,
        so a consistent graph after tampering is impossible to miss."""
        cg = compress_graph(web_graph)
        assert np.array_equal(cg.degrees, web_graph.degrees)


class TestCorruptBinaryFiles:
    def test_wrong_magic(self, tmp_path, grid_graph):
        p = tmp_path / "g.bin"
        write_binary(grid_graph, p)
        data = bytearray(p.read_bytes())
        data[:4] = b"EVIL"
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            read_binary(p)

    def test_wrong_version(self, tmp_path, grid_graph):
        p = tmp_path / "g.bin"
        write_binary(grid_graph, p)
        data = bytearray(p.read_bytes())
        data[4] = 99
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            read_binary(p)

    def test_out_of_range_neighbor_rejected(self, tmp_path, grid_graph):
        p = tmp_path / "g.bin"
        write_binary(grid_graph, p)
        data = bytearray(p.read_bytes())
        # clobber the first adjacency entry with a huge vertex id
        header = 32
        indptr_bytes = 8 * (grid_graph.n + 1)
        data[header + indptr_bytes : header + indptr_bytes + 8] = (
            10**12
        ).to_bytes(8, "little")
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            read_binary(p)


class TestCorruptMetis:
    def test_vertex_index_out_of_range(self, tmp_path):
        p = tmp_path / "g.metis"
        p.write_text("2 1\n9\n1\n")
        with pytest.raises((ValueError, IndexError)):
            read_metis(p)

    def test_garbage_tokens(self, tmp_path):
        p = tmp_path / "g.metis"
        p.write_text("2 1\nabc\n1\n")
        with pytest.raises(ValueError):
            read_metis(p)


class TestServiceFailureInjection:
    """A partitioner raising mid-request must surface as a structured
    error — without poisoning the request queue or leaking cache bytes."""

    class _Flaky:
        """partition_fn that raises for the first ``fail`` calls."""

        def __init__(self, fail: int = 1):
            self.calls = 0
            self.fail = fail

        def __call__(self, graph, k, config, tracker=None):
            from types import SimpleNamespace

            self.calls += 1
            if self.calls <= self.fail:
                raise RuntimeError("injected partitioner crash")
            part = np.zeros(graph.n, dtype=np.int32)
            part[graph.n // 2 :] = k - 1
            return SimpleNamespace(
                partition=part,
                cut=7,
                imbalance=0.0,
                balanced=True,
                wall_seconds=0.0,
                num_levels=1,
            )

    @staticmethod
    def _handle(flaky):
        from repro.core import config as C
        from repro.core.config import ServeConfig
        from repro.serve import ServiceHandle

        return ServiceHandle(
            C.terapart().with_(compress_input=False),
            ServeConfig(cache_budget_bytes=1 << 20),
            partition_fn=flaky,
        )

    def test_structured_error_then_queue_survives(self, grid_graph):
        from repro.serve import ServiceError

        flaky = self._Flaky(fail=1)
        with self._handle(flaky) as h:
            h.register_graph("g", grid_graph)
            with pytest.raises(ServiceError) as ei:
                h.partition("g", 4)
            err = ei.value.to_dict()
            # structured: machine-readable code + request context
            assert err["code"] == "partitioner-error"
            assert "injected partitioner crash" in err["error"]
            assert err["detail"]["graph"] == "g" and err["detail"]["k"] == 4
            # the queue is not poisoned: the next request runs and succeeds
            r = h.partition("g", 4)
            snap = h.metrics_snapshot()
        assert flaky.calls == 2
        assert r.mode == "full" and r.cut == 7
        assert snap["serve.run_errors"] == 1

    def test_failed_run_leaks_no_cache_bytes(self, grid_graph):
        from repro.serve import ServiceError

        flaky = self._Flaky(fail=1)
        with self._handle(flaky) as h:
            h.register_graph("g", grid_graph)
            with pytest.raises(ServiceError):
                h.partition("g", 4)
            cache = h.service.cache
            tracker = h.service.tracker
            # nothing was cached for the failed key, no in-flight leftovers
            assert len(cache) == 0
            assert cache.stats.resident_bytes == 0
            assert not h.service._inflight
            assert tracker.breakdown().get("serve-cache", 0) == 0

    def test_failure_propagates_to_all_batched_clients(self, grid_graph):
        from repro.serve import ServiceError

        class _SlowFlaky(self._Flaky):
            def __call__(self, graph, k, config, tracker=None):
                import time

                time.sleep(0.05)  # hold the window so clients batch up
                return super().__call__(graph, k, config, tracker=tracker)

        flaky = _SlowFlaky(fail=1)
        with self._handle(flaky) as h:
            h.register_graph("g", grid_graph)
            import asyncio

            async def _gather():
                return await asyncio.gather(
                    *(h.service.partition("g", 4) for _ in range(4)),
                    return_exceptions=True,
                )

            results = h._call(_gather())
            snap = h.metrics_snapshot()
        # one run, one failure, four structured errors — never a hang
        assert flaky.calls == 1
        assert len(results) == 4
        assert all(isinstance(r, ServiceError) for r in results)
        assert snap["serve.run_errors"] == 1
        assert snap["serve.errors"] == 4

    def test_bad_delta_rejected_without_state_change(self, grid_graph):
        from repro.serve import GraphDelta, ServiceError

        flaky = self._Flaky(fail=0)
        with self._handle(flaky) as h:
            fp0 = h.register_graph("g", grid_graph)
            with pytest.raises(ServiceError) as ei:
                h.apply_delta(
                    "g", GraphDelta(add_edges=[[0, 10**9]])
                )
            entry = h.service._entries["g"]
            assert ei.value.code == "bad-request"
            # the graph, its fingerprint, and drift are untouched
            assert entry.fingerprint == fp0
            assert entry.total_changed == 0 and entry.deltas_applied == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"remove_edges": [[-1, 5]]},
            {"add_edges": [[3, -2]]},
            {"add_edges": [[0, 1]], "vertex_weights": [[10**6, 2]]},
            {"remove_edges": [[0, 1]], "vertex_weights": [[-1, 2]]},
        ],
        ids=["remove-negative", "add-negative", "vwgt-high", "vwgt-negative"],
    )
    def test_rejected_delta_leaves_entry_and_seed_bookkeeping_alone(
        self, grid_graph, bad
    ):
        """Every id is checked before anything is built or marked."""
        from repro.serve import GraphDelta, ServiceError

        with self._handle(self._Flaky(fail=0)) as h:
            h.register_graph("g", grid_graph)
            h.apply_delta("g", GraphDelta(add_edges=[[0, 50]]))
            entry = h.service._entries["g"]
            graph, epoch, marks = entry.graph, entry.epoch, entry.epoch.copy()
            counters = (entry.fingerprint, entry.total_changed, entry.deltas_applied)
            with pytest.raises(ServiceError) as ei:
                h.apply_delta("g", GraphDelta(**bad))
            assert ei.value.code == "bad-request"
            assert "references vertex" in str(ei.value)
            assert entry.graph is graph and entry.epoch is epoch
            assert np.array_equal(entry.epoch, marks)
            assert counters == (
                entry.fingerprint, entry.total_changed, entry.deltas_applied
            )


class TestRoundTripUnderStress:
    def test_many_empty_neighborhoods(self):
        g = gen.star(50)  # 49 degree-1 vertices + hub, then add isolates
        from repro.graph.builder import from_edges

        edges = np.stack(
            [np.zeros(20, dtype=np.int64), np.arange(1, 21, dtype=np.int64)],
            axis=1,
        )
        g = from_edges(1000, edges)  # 979 isolated vertices
        cg = compress_graph(g)
        assert graphs_equal(decompress_graph(cg), g)

    def test_maximal_ids(self):
        from repro.graph.builder import from_edges

        n = 2**20
        edges = np.array([[0, n - 1], [n - 2, n - 1]], dtype=np.int64)
        g = from_edges(n, edges)
        cg = compress_graph(g)
        assert graphs_equal(decompress_graph(cg), g)

    def test_huge_weights(self):
        from repro.graph.builder import from_edges

        g = from_edges(
            3,
            np.array([[0, 1], [1, 2]]),
            np.array([2**55, 2**50], dtype=np.int64),
        )
        cg = compress_graph(g)
        assert graphs_equal(decompress_graph(cg), g)
