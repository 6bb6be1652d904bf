"""Minimal HTTP/1.1 front end over :class:`PartitionService`.

Stdlib-only (asyncio streams): the container bakes no web framework, and
the protocol surface is four routes of JSON:

* ``GET  /healthz``            -- liveness + registered graphs
* ``GET  /metrics``            -- the service metrics snapshot
* ``POST /partition``          -- ``{"graph": name, "k": int,
  "epsilon"?: float, "include_partition"?: bool, "force_full"?: bool}``
* ``POST /delta``              -- ``{"graph": name, "add": [[u,v],...],
  "remove": [[u,v],...], "add_weights"?: [...],
  "vertex_weights"?: [[v,w],...], "add_vertices"?: int}``

Errors come back as ``{"error", "code", "detail"}`` with 4xx/5xx status
— the :class:`ServiceError` wire form.  One connection handles one
request (``Connection: close``): serving partitions is compute-bound,
so keep-alive buys nothing and complicates shutdown.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.deltas import DeltaFieldError, GraphDelta
from repro.serve.service import PartitionService, ServiceError

_MAX_BODY = 64 * 1024 * 1024  # deltas can be large; a DoS guard regardless

_STATUS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _response(status: int, payload: dict) -> bytes:
    body = (json.dumps(payload) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {_STATUS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode()
    return head + body


_ERROR_STATUS = {
    "unknown-graph": 404,
    "bad-request": 400,
    "shutdown": 500,
    "partitioner-error": 500,
}


def _bad_field(name: str, problem: str) -> ServiceError:
    return ServiceError("bad-request", f"{name} {problem}", {"field": name})


def _number(body: dict, name: str, kind: type):
    """``kind(body[name])``, or a bad-request naming the field."""
    try:
        return kind(body[name])
    except (TypeError, ValueError) as e:
        raise _bad_field(
            name, f"must be {kind.__name__}, got {body[name]!r}"
        ) from e


class HttpFrontend:
    """Bind a :class:`PartitionService` to a TCP port."""

    def __init__(self, service: PartitionService) -> None:
        self.service = service
        self._server: asyncio.AbstractServer | None = None

    async def start(self, host: str = "127.0.0.1", port: int = 8642):
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        return self._server.sockets[0].getsockname()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def port(self) -> int | None:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except ServiceError as e:
            status, payload = _ERROR_STATUS.get(e.code, 500), e.to_dict()
        except Exception as e:  # noqa: BLE001 - last-resort 500
            status, payload = 500, {
                "error": f"{type(e).__name__}: {e}",
                "code": "internal",
                "detail": {},
            }
        try:
            writer.write(_response(status, payload))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, reader) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ServiceError("bad-request", "empty request")
        parts = request_line.split()
        if len(parts) < 2:
            raise ServiceError("bad-request", f"malformed: {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            if line.lower().startswith("content-length:"):
                value = line.split(":", 1)[1].strip()
                if not (value.isascii() and value.isdigit()):
                    raise _bad_field(
                        "Content-Length",
                        f"must be a non-negative integer, got {value!r}",
                    )
                content_length = int(value)
        if content_length > _MAX_BODY:
            return 413, {
                "error": "body too large",
                "code": "bad-request",
                "detail": {"max_bytes": _MAX_BODY},
            }
        body = {}
        if content_length:
            try:
                raw = await reader.readexactly(content_length)
            except asyncio.IncompleteReadError as e:
                raise _bad_field(
                    "Content-Length",
                    f"is {content_length}, but the body ended after "
                    f"{len(e.partial)} bytes",
                ) from e
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as e:
                raise ServiceError(
                    "bad-request", f"invalid JSON body: {e}"
                ) from e
            if not isinstance(body, dict):
                raise ServiceError("bad-request", "JSON body must be an object")

        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "graphs": self.service.graph_names()}
        if method == "GET" and path == "/metrics":
            return 200, self.service.metrics_snapshot()
        if method == "POST" and path == "/partition":
            return await self._partition(body)
        if method == "POST" and path == "/delta":
            return await self._delta(body)
        if path in ("/partition", "/delta", "/metrics", "/healthz"):
            return 405, {
                "error": f"{method} not allowed on {path}",
                "code": "bad-request",
                "detail": {},
            }
        return 404, {
            "error": f"no route {path}",
            "code": "bad-request",
            "detail": {},
        }

    async def _partition(self, body: dict) -> tuple[int, dict]:
        if "graph" not in body or "k" not in body:
            raise ServiceError(
                "bad-request", "POST /partition needs 'graph' and 'k'"
            )
        result = await self.service.partition(
            str(body["graph"]),
            _number(body, "k", int),
            epsilon=(
                _number(body, "epsilon", float)
                if body.get("epsilon") is not None
                else None
            ),
            force_full=bool(body.get("force_full", False)),
        )
        return 200, result.to_dict(
            include_partition=bool(body.get("include_partition", False))
        )

    async def _delta(self, body: dict) -> tuple[int, dict]:
        if "graph" not in body:
            raise ServiceError("bad-request", "POST /delta needs 'graph'")
        try:
            delta = GraphDelta.from_dict(body)
        except DeltaFieldError as e:
            raise ServiceError("bad-request", str(e), {"field": e.field}) from e
        info = await self.service.apply_delta(str(body["graph"]), delta)
        return 200, info


async def serve_forever(
    service: PartitionService,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready_callback=None,
) -> None:
    """Run the HTTP front end until cancelled (the ``repro serve`` loop)."""
    frontend = HttpFrontend(service)
    addr = await frontend.start(host, port)
    if ready_callback is not None:
        ready_callback(addr)
    try:
        await asyncio.Event().wait()  # until cancelled
    finally:
        await frontend.aclose()
        await service.aclose()
