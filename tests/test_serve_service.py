"""Service-layer tests: deltas, fingerprints, warm/full/cached request
modes, the drift fallback, metrics plumbing, and the HTTP front end."""

import asyncio
import json

import numpy as np
import pytest

from repro.core import config as C
from repro.core.config import ServeConfig
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.graph.fingerprint import graph_fingerprint
from repro.memory.tracker import MemoryTracker
from repro.serve import (
    DeltaFieldError,
    GraphDelta,
    PartitionService,
    ServiceError,
    ServiceHandle,
    apply_delta,
    random_delta,
)

CFG = C.terapart()
FAST_SERVE = ServeConfig(cache_budget_bytes=8 * 1024 * 1024)


@pytest.fixture
def small_web():
    return gen.weblike(300, avg_degree=8, seed=3)


# --------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------- #
class TestFingerprint:
    def test_deterministic(self, small_web):
        assert graph_fingerprint(small_web) == graph_fingerprint(small_web)

    def test_structure_sensitivity(self, small_web):
        other = gen.weblike(300, avg_degree=8, seed=4)
        assert graph_fingerprint(small_web) != graph_fingerprint(other)

    def test_weights_change_fingerprint(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        a = from_edges(3, edges)
        b = from_edges(3, edges, np.array([5, 1], dtype=np.int64))
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_compressed_form_distinct(self, small_web):
        cg = compress_graph(small_web)
        assert graph_fingerprint(cg) != graph_fingerprint(small_web)


# --------------------------------------------------------------------- #
# deltas
# --------------------------------------------------------------------- #
class TestApplyDelta:
    def test_add_edge(self, tiny_graph):
        g, changed = apply_delta(
            tiny_graph, GraphDelta(add_edges=[[0, 5]])
        )
        assert changed == 1 and g.m == tiny_graph.m + 1
        g.validate()

    def test_remove_edge(self, tiny_graph):
        g, changed = apply_delta(
            tiny_graph, GraphDelta(remove_edges=[[2, 3]])
        )
        assert changed == 1 and g.m == tiny_graph.m - 1
        g.validate()

    def test_remove_absent_is_noop_without_drift(self, tiny_graph):
        g, changed = apply_delta(
            tiny_graph, GraphDelta(remove_edges=[[0, 4]])
        )
        assert changed == 0 and g.m == tiny_graph.m

    def test_add_existing_replaces_weight(self, weighted_graph):
        g, changed = apply_delta(
            weighted_graph,
            GraphDelta(add_edges=[[0, 1]], add_weights=[9]),
        )
        assert changed == 1 and g.m == weighted_graph.m
        nbrs, wgts = g.neighbors_and_weights(0)
        assert int(np.asarray(wgts)[np.asarray(nbrs) == 1][0]) == 9

    def test_add_existing_same_weight_no_drift(self, weighted_graph):
        g, changed = apply_delta(
            weighted_graph,
            GraphDelta(add_edges=[[0, 1]], add_weights=[5]),
        )
        assert changed == 0

    def test_unit_weights_stay_unit(self, tiny_graph):
        assert not tiny_graph.has_edge_weights
        g, _ = apply_delta(tiny_graph, GraphDelta(add_edges=[[0, 4]]))
        assert not g.has_edge_weights

    def test_add_vertices_isolated(self, tiny_graph):
        g, changed = apply_delta(tiny_graph, GraphDelta(add_vertices=3))
        assert g.n == tiny_graph.n + 3 and g.m == tiny_graph.m
        assert changed == 0

    def test_edge_to_new_vertex(self, tiny_graph):
        g, changed = apply_delta(
            tiny_graph,
            GraphDelta(add_edges=[[0, 6]], add_vertices=1),
        )
        assert g.n == 7 and changed == 1
        g.validate()

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="references vertex"):
            apply_delta(tiny_graph, GraphDelta(add_edges=[[0, 99]]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphDelta(add_edges=[[1, 1]])

    def test_vertex_weight_update(self, tiny_graph):
        g, changed = apply_delta(
            tiny_graph, GraphDelta(vertex_weights=[[2, 7]])
        )
        assert changed == 1 and int(g.vwgt[2]) == 7

    def test_wire_roundtrip(self):
        d = GraphDelta(
            add_edges=[[0, 1], [2, 3]],
            add_weights=[4, 5],
            remove_edges=[[1, 2]],
            vertex_weights=[[0, 2]],
            add_vertices=1,
        )
        d2 = GraphDelta.from_dict(json.loads(json.dumps(d.to_dict())))
        assert np.array_equal(d.add_edges, d2.add_edges)
        assert np.array_equal(d.add_weights, d2.add_weights)
        assert np.array_equal(d.remove_edges, d2.remove_edges)
        assert np.array_equal(d.vertex_weights, d2.vertex_weights)
        assert d2.add_vertices == 1

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"add_edges": [[0, 1.5]]}, "add"),
            ({"add_edges": [[True, 2]]}, "add"),
            ({"add_edges": np.array([[0, 1]], dtype=bool)}, "add"),
            ({"add_edges": {"a": 1}}, "add"),
            ({"remove_edges": [[0, 2**63]]}, "remove"),
            ({"remove_edges": np.array([[0, 2**63]], dtype=np.uint64)}, "remove"),
            ({"add_edges": [[0, 1]], "add_weights": [2.0]}, "add_weights"),
            ({"vertex_weights": [[0, 2**63]]}, "vertex_weights"),
            ({"vertex_weights": [[0, "2"]]}, "vertex_weights"),
            ({"add_vertices": True}, "add_vertices"),
            ({"add_vertices": 1.5}, "add_vertices"),
            ({"add_vertices": 2**63}, "add_vertices"),
        ],
    )
    def test_hostile_entries_name_their_field(self, kwargs, field):
        with pytest.raises(DeltaFieldError) as ei:
            GraphDelta(**kwargs)
        assert ei.value.field == field and str(ei.value).startswith(field)

    def test_empty_fields_stay_legal(self, tiny_graph):
        d = GraphDelta.from_dict(
            {"add": [], "remove": [], "add_weights": [], "vertex_weights": []}
        )
        g, changed = apply_delta(tiny_graph, d)
        assert changed == 0 and g.m == tiny_graph.m

    def test_random_delta_applies_cleanly(self, small_web):
        rng = np.random.default_rng(0)
        d = random_delta(small_web, rng, n_add=20, n_remove=20)
        g, changed = apply_delta(small_web, d)
        g.validate()
        assert changed > 0


# --------------------------------------------------------------------- #
# request modes
# --------------------------------------------------------------------- #
class TestRequestModes:
    def test_full_then_cached(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            r1 = h.partition("g", 4)
            r2 = h.partition("g", 4)
        assert r1.mode == "full" and r1.balanced
        assert r2.mode == "cached" and r2.cut == r1.cut
        assert np.array_equal(r1.partition, r2.partition)

    def test_delta_then_warm(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            r1 = h.partition("g", 4)
            info = h.apply_delta(
                "g",
                random_delta(
                    small_web, np.random.default_rng(1), n_add=6, n_remove=6
                ),
            )
            r2 = h.partition("g", 4)
            snap = h.metrics_snapshot()
        assert r1.mode == "full"
        assert info["changed_edges"] > 0
        assert r2.mode == "warm" and r2.drift > 0
        assert r2.balanced
        assert snap["serve.warm_runs"] == 1 and snap["serve.full_runs"] == 1
        # the warm result is a valid partition of the drifted graph
        assert len(r2.partition) == info["n"]

    def test_drift_fallback_forces_full(self, small_web):
        scfg = ServeConfig(
            cache_budget_bytes=FAST_SERVE.cache_budget_bytes,
            drift_threshold=1e-9,
        )
        with ServiceHandle(CFG, scfg) as h:
            h.register_graph("g", small_web)
            h.partition("g", 4)
            h.apply_delta(
                "g",
                random_delta(
                    small_web, np.random.default_rng(2), n_add=8, n_remove=8
                ),
            )
            r2 = h.partition("g", 4)
            snap = h.metrics_snapshot()
        assert r2.mode == "full"
        assert snap["serve.fallback_drift"] == 1

    def test_force_full_overrides_warm(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            h.partition("g", 4)
            h.apply_delta(
                "g",
                random_delta(
                    small_web, np.random.default_rng(3), n_add=4, n_remove=4
                ),
            )
            r2 = h.partition("g", 4, force_full=True)
        assert r2.mode == "full"

    def test_warm_covers_added_vertices(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            h.partition("g", 4)
            h.apply_delta(
                "g",
                GraphDelta(
                    add_edges=[[0, small_web.n], [1, small_web.n + 1]],
                    add_vertices=2,
                ),
            )
            r2 = h.partition("g", 4)
        assert r2.mode == "warm"
        assert len(r2.partition) == small_web.n + 2
        assert r2.partition.min() >= 0 and r2.partition.max() < 4

    def test_unknown_graph_structured_error(self):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            with pytest.raises(ServiceError) as ei:
                h.partition("nope", 4)
        assert ei.value.code == "unknown-graph"
        assert ei.value.to_dict()["detail"]["graph"] == "nope"

    def test_bad_k_rejected(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            with pytest.raises(ServiceError) as ei:
                h.partition("g", 0)
        assert ei.value.code == "bad-request"

    def test_compressed_registration_rejected(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            with pytest.raises(ServiceError) as ei:
                h.register_graph("g", compress_graph(small_web))
        assert ei.value.code == "bad-request"

    def test_metrics_registry_schema(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            h.partition("g", 4)
            reg = h.metrics_registry()
        d = reg.to_dict()
        assert d["counters"]["serve.requests"] == 1
        assert d["counters"]["serve.full_runs"] == 1
        assert "g" in d["meta"]["graphs"]

    def test_epsilon_changes_cache_key(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            r1 = h.partition("g", 4, epsilon=0.03)
            r2 = h.partition("g", 4, epsilon=0.10)
            snap = h.metrics_snapshot()
        assert r1.mode == "full" and r2.mode == "full"
        assert snap["serve.full_runs"] == 2


# --------------------------------------------------------------------- #
# the state digest and the cache it keys
# --------------------------------------------------------------------- #
def _stream(graph, seed: int, count: int) -> list[GraphDelta]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(random_delta(graph, rng, n_add=5, n_remove=5, weighted=True))
        graph, _ = apply_delta(graph, out[-1])
    return out


class TestStateDigest:
    def test_registration_key_is_the_content_fingerprint(self, small_web):
        with ServiceHandle(CFG, FAST_SERVE) as h:
            fp = h.register_graph("g", small_web)
            assert fp == graph_fingerprint(small_web)
            assert h.service._entries["g"].fingerprint == fp

    @pytest.mark.parametrize(
        "delta",
        [
            GraphDelta(),
            GraphDelta(remove_edges=[[0, 1], [0, 1]], add_edges=[]),
            GraphDelta(vertex_weights=[[3, 1]]),
        ],
        ids=["empty", "remove-absent", "same-vertex-weight"],
    )
    def test_a_no_op_delta_keeps_the_key(self, delta):
        graph = from_edges(4, np.array([[1, 2], [2, 3]]))
        with ServiceHandle(CFG, FAST_SERVE) as h:
            fp = h.register_graph("g", graph)
            info = h.apply_delta("g", delta)
        assert info["changed_edges"] == 0 and info["fingerprint"] == fp

    def test_every_change_advances_the_key(self, weighted_graph):
        changes = [
            GraphDelta(add_edges=[[1, 3]]),
            GraphDelta(remove_edges=[[1, 3]]),
            GraphDelta(add_edges=[[0, 1]], add_weights=[7]),
            GraphDelta(vertex_weights=[[2, 4]]),
            GraphDelta(add_vertices=1),
        ]
        with ServiceHandle(CFG, FAST_SERVE) as h:
            seen = [h.register_graph("g", weighted_graph)]
            for delta in changes:
                seen.append(h.apply_delta("g", delta)["fingerprint"])
        assert all(a != b for a, b in zip(seen, seen[1:]))

    def test_two_services_fed_one_stream_agree(self, small_web):
        stream = _stream(small_web, seed=4, count=5)
        keys = []
        for _ in range(2):
            with ServiceHandle(CFG, FAST_SERVE) as h:
                h.register_graph("g", small_web)
                keys.append([h.apply_delta("g", d)["fingerprint"] for d in stream])
        assert keys[0] == keys[1] and len(set(keys[0])) == len(stream)
        with ServiceHandle(CFG, FAST_SERVE) as h:
            h.register_graph("g", small_web)
            other = [
                h.apply_delta("g", d)["fingerprint"]
                for d in _stream(small_web, seed=6, count=5)
            ]
        assert not set(other) & set(keys[0])

    def test_deltas_strand_no_cached_answer(self, small_web):
        tracker = MemoryTracker()
        with ServiceHandle(CFG, FAST_SERVE, tracker=tracker) as h:
            h.register_graph("g", small_web)
            h.register_graph("twin", small_web)  # shares the first key
            twin_key = h.service._entries["twin"].fingerprint
            h.partition("g", 4, force_full=True)
            for delta in _stream(small_web, seed=5, count=6):
                h.apply_delta("g", delta)
                h.partition("g", 4)
            cache = h.service.cache
            live = {e.fingerprint for e in h.service._entries.values()}
            assert live == {h.service._entries["g"].fingerprint, twin_key}
            fps = [
                key[1].fingerprint if key[0] == "part" else key[1]
                for key in cache.keys()
                if key[0] in ("part", "graph")
            ]
            assert fps and set(fps) <= live
            assert twin_key in fps  # still held by "twin": kept
            assert h.partition("twin", 4).mode == "cached"
            assert cache.resident_bytes == tracker.breakdown()["serve-cache"]
            # a re-registration strands the old key's answers too
            h.register_graph("twin", gen.weblike(120, avg_degree=6, seed=9))
            assert not any(
                twin_key in (key[1], getattr(key[1], "fingerprint", None))
                for key in cache.keys()
            )


# --------------------------------------------------------------------- #
# the HTTP front end
# --------------------------------------------------------------------- #
async def _http(port: int, method: str, path: str, body: dict | None = None):
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode()
    return await _raw_http(port, head + payload)


async def _raw_http(port: int, request: bytes):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    writer.write_eof()  # a short body ends here rather than hanging the server
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_s, _, body_s = raw.partition(b"\r\n\r\n")
    status = int(head_s.split(b" ")[1])
    return status, json.loads(body_s)


def _body(payload: dict) -> bytes:
    """Headers plus body of a well-framed JSON request."""
    raw = json.dumps(payload).encode()
    return b"Content-Length: %d\r\n\r\n%s" % (len(raw), raw)


class TestHttpFrontend:
    def _run(self, coro_fn):
        """Run a coroutine against a live service + frontend on port 0."""
        from repro.serve.http import HttpFrontend

        async def _main():
            service = PartitionService(CFG, FAST_SERVE)
            service_graph = gen.weblike(200, avg_degree=8, seed=5)
            await service.register_graph("web", service_graph)
            frontend = HttpFrontend(service)
            await frontend.start("127.0.0.1", 0)
            try:
                return await coro_fn(frontend.port)
            finally:
                await frontend.aclose()
                await service.aclose()

        return asyncio.run(_main())

    def test_healthz_and_partition_and_metrics(self):
        async def flow(port):
            s1, health = await _http(port, "GET", "/healthz")
            s2, part = await _http(
                port, "POST", "/partition", {"graph": "web", "k": 4}
            )
            s3, again = await _http(
                port,
                "POST",
                "/partition",
                {"graph": "web", "k": 4, "include_partition": True},
            )
            s4, metrics = await _http(port, "GET", "/metrics")
            return s1, health, s2, part, s3, again, s4, metrics

        s1, health, s2, part, s3, again, s4, metrics = self._run(flow)
        assert s1 == 200 and health["ok"] and health["graphs"] == ["web"]
        assert s2 == 200 and part["mode"] == "full" and part["balanced"]
        assert "partition" not in part
        assert s3 == 200 and again["mode"] == "cached"
        assert len(again["partition"]) == 200
        assert s4 == 200 and metrics["serve.requests"] == 2

    def test_delta_then_warm_over_http(self):
        async def flow(port):
            await _http(port, "POST", "/partition", {"graph": "web", "k": 4})
            s1, dinfo = await _http(
                port,
                "POST",
                "/delta",
                {"graph": "web", "add": [[0, 7], [3, 11]], "remove": []},
            )
            s2, part = await _http(
                port, "POST", "/partition", {"graph": "web", "k": 4}
            )
            return s1, dinfo, s2, part

        s1, dinfo, s2, part = self._run(flow)
        assert s1 == 200 and dinfo["total_changed"] >= 1
        assert s2 == 200 and part["mode"] == "warm"

    def test_error_statuses(self):
        async def flow(port):
            s404, e404 = await _http(
                port, "POST", "/partition", {"graph": "nope", "k": 4}
            )
            s400, e400 = await _http(port, "POST", "/partition", {"k": 4})
            s405, _ = await _http(port, "GET", "/partition")
            sbad, _ = await _http(port, "GET", "/bogus")
            return s404, e404, s400, e400, s405, sbad

        s404, e404, s400, e400, s405, sbad = self._run(flow)
        assert s404 == 404 and e404["code"] == "unknown-graph"
        assert s400 == 400 and e400["code"] == "bad-request"
        assert s405 == 405
        assert sbad == 404

    @pytest.mark.parametrize(
        "route, request_bytes, field",
        [
            (b"/partition", b"Content-Length: abc\r\n\r\n", "Content-Length"),
            (b"/partition", b"Content-Length: -5\r\n\r\n", "Content-Length"),
            (b"/partition", b'Content-Length: 40\r\n\r\n{"graph": "web"}',
             "Content-Length"),
            (b"/partition", _body({"graph": "web", "k": "ab"}), "k"),
            (b"/partition", _body({"graph": "web", "k": 4, "epsilon": "x"}),
             "epsilon"),
            (b"/delta", _body({"graph": "web", "add": [[0, 1.5]]}), "add"),
            (b"/delta", _body({"graph": "web", "add": [[True, 2]]}), "add"),
            (b"/delta", _body({"graph": "web", "add": {"a": 1}}), "add"),
            (b"/delta", _body({"graph": "web", "remove": [[0, 2**63]]}),
             "remove"),
            (b"/delta", _body({"graph": "web", "add": [[0, 1]],
                               "add_weights": [1.5]}), "add_weights"),
            (b"/delta", _body({"graph": "web", "vertex_weights": [[0, 2**63]]}),
             "vertex_weights"),
            (b"/delta", _body({"graph": "web", "add_vertices": True}),
             "add_vertices"),
            (b"/delta", _body({"graph": "web", "add_vertices": 1.5}),
             "add_vertices"),
        ],
        ids=["length-not-a-number", "length-negative", "body-short",
             "k-not-a-number", "epsilon-not-a-number",
             "delta-float-id", "delta-bool-id", "delta-object-edges",
             "delta-id-beyond-int64", "delta-float-weight",
             "delta-vertex-weight-beyond-int64", "delta-bool-count",
             "delta-float-count"],
    )
    def test_hostile_input_is_a_bad_request(self, route, request_bytes, field):
        async def flow(port):
            return await _raw_http(
                port, b"POST " + route + b" HTTP/1.1\r\n" + request_bytes
            )

        status, err = self._run(flow)
        assert status == 400 and err["code"] == "bad-request"
        assert err["detail"]["field"] == field and field in err["error"]
