"""Thin stdlib-only HTTP facade over :class:`AnnotationService`.

Remote emitters that cannot call into the process speak line-protocol HTTP/1.1
with JSON bodies instead.  The server is deliberately minimal — ``asyncio``
streams plus a hand-rolled request parser, **no third-party dependencies** —
because the container bakes in only the standard library; it is an optional
adapter, not the service itself (in-process callers should use
:class:`~repro.service.service.AnnotationService` directly and skip the JSON
round-trip).

Endpoints
---------
``POST /ingest``
    Body ``{"object_id": ..., "x": ..., "y": ..., "t": ...}`` for one event
    or ``{"events": [{...}, ...]}`` for a batch.  Replies
    ``{"accepted": n}``.  Backpressure propagates naturally: when the target
    shard queue is full the reply is simply delayed, so a synchronous HTTP
    emitter slows down with the service.
``POST /close``
    Body ``{"object_id": ...}`` — end of stream for one emitter.
``POST /drain``
    Stop intake, flush everything, reply with summary counters.
``GET /metrics``
    Prometheus text exposition of the service registry.
``GET /healthz``
    Liveness plus headline counters.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.errors import ServiceError
from repro.core.points import SpatioTemporalPoint
from repro.service.service import AnnotationService

__all__ = ["HttpIngestServer"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
}


class _BadRequest(Exception):
    """Client sent something the parser or a handler rejects."""


def _parse_event(payload: Dict[str, Any]) -> Tuple[str, SpatioTemporalPoint]:
    try:
        object_id = str(payload["object_id"])
        point = SpatioTemporalPoint(
            float(payload["x"]), float(payload["y"]), float(payload["t"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _BadRequest(f"event needs object_id, x, y, t fields: {exc}") from exc
    return object_id, point


class HttpIngestServer:
    """Serve an :class:`AnnotationService` over HTTP on ``host:port``.

    ``port=0`` binds an ephemeral port (tests read :attr:`port` after
    :meth:`start`).  The server owns only the sockets — the service's
    lifecycle (``start``/``drain``/``shutdown``) stays with the caller,
    except that ``POST /drain`` forwards a drain request.
    """

    def __init__(self, service: AnnotationService, host: str = "127.0.0.1", port: int = 8753):
        self._service = service
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return int(self._server.sockets[0].getsockname()[1])
        return self._port

    async def start(self) -> "HttpIngestServer":
        if self._server is not None:
            raise ServiceError("HTTP server already started")
        self._server = await asyncio.start_server(self._handle, self._host, self._port)
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "HttpIngestServer":
        return await self.start()

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # --------------------------------------------------------------- plumbing
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body = request
                status, payload, content_type = await self._dispatch(method, path, body)
                data = (
                    payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
                )
                reason = _REASONS.get(status, "Error")
                head = (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    "Connection: keep-alive\r\n\r\n"
                )
                writer.write(head.encode("ascii") + data)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # Server stop() cancels handlers parked on a keep-alive read;
            # swallow so teardown stays quiet (nobody awaits handler tasks).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass  # teardown race with server stop(); the task ends anyway

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            raise _BadRequest("request head too large") from exc
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {request_line!r}")
        method, path, _version = parts
        length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise _BadRequest("bad Content-Length") from exc
        if length > _MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any, str]:
        service = self._service
        try:
            if method == "GET" and path == "/metrics":
                return 200, service.render_prometheus().encode("utf-8"), "text/plain; version=0.0.4"
            if method == "GET" and path == "/healthz":
                failures = service.failure_log.snapshot()
                return (
                    200,
                    {
                        "status": "ok",
                        "shards": service.shard_count,
                        "events": service.stats.events,
                        "results": service.stats.results,
                        "open_sessions": service.open_session_count,
                        "errors": service.stats.errors,
                        "failures": failures["failures"],
                        "quarantined": failures["quarantined"],
                        "wal_replayed": failures["wal_replayed"],
                    },
                    "application/json",
                )
            if method == "POST" and path == "/ingest":
                payload = self._json_body(body)
                events = payload.get("events")
                if events is None:
                    events = [payload]
                if not isinstance(events, list):
                    raise _BadRequest("events must be a list")
                # Parse everything before feeding anything, so a malformed
                # event rejects the whole batch instead of half-applying it.
                parsed = [_parse_event(event) for event in events]
                accepted = await service.ingest_many(parsed)
                return 200, {"accepted": accepted}, "application/json"
            if method == "POST" and path == "/close":
                payload = self._json_body(body)
                object_id = payload.get("object_id")
                if not object_id:
                    raise _BadRequest("close needs an object_id")
                await service.close_object(str(object_id))
                return 200, {"closed": str(object_id)}, "application/json"
            if method == "POST" and path == "/drain":
                results = await service.drain()
                return (
                    200,
                    {
                        "results": len(results),
                        "events": service.stats.events,
                        "dropped": service.dropped_events,
                    },
                    "application/json",
                )
            return 404, {"error": f"no route for {method} {path}"}, "application/json"
        except _BadRequest as exc:
            return 400, {"error": str(exc)}, "application/json"
        except ServiceError as exc:
            return 409, {"error": str(exc)}, "application/json"

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        if not body:
            raise _BadRequest("request body is required")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        return payload
